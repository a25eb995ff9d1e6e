"""Concrete base categories: free categories on finite quivers, and a
category of piecewise-linear sampled paths on a Euclidean chart.

Quiver morphisms are arrow words stored in application order (first arrow
first), so composition is word concatenation and strictly associative. In a
block a quiver morphism is an int code, its index in `morphisms_upto()` (a
longer composite gets the next free code when a block first forms it), and
an object is its index in `objects`: `source`, `target`, `identity` and
`compose` look codes up in tables (`groups.gather`), `point_eq` and
`morphism_eq` give a per-case mask, and a CodeTable maps codes to the codes
of a finite group, such as eta's.

A SampledPath is an ordered array of points; composing paths records the
junction as a binary tree node so that parallel transport of a composite is,
by construction, the product of the transports of its pieces: `path_values`
is the one place that folds a path's value from its leaves', and what it
keeps between calls, leaf values and a table's rows, it keeps in the mapping
it is given. A scenario's PathCategory (dimension, eps_pt) is made by
`Scenario.path_category()` alone. In a block a path base holds a PathBlock,
the k paths of k cases as arrays: drawn paths are ids into a leaf table (their
samples end to end, with offsets, and each as its SampledPath), and k
composites are one tree node over two blocks. `source` and `target` gather
(k, dim) points, `identity` takes them, `compose` checks all endpoints at once
and adds one node, raising CompositionUndefined if any pair does not meet,
and `point_eq` and `morphism_eq` give per-case masks, the latter from the
blocks' samples end to end, deduplicating one path at a time only where a
step within eps_pt is not an exact repeat.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .groups import CompositionUndefined, StructuralError, gather
from .stream import Stream

DEFAULT_WORD_BOUND = 3
DEFAULT_PT_TOL = 1e-12


@dataclass(frozen=True)
class QuiverMorphism:
    source: str
    target: str
    word: tuple[str, ...]  # arrow names, first applied first

    @property
    def is_identity(self) -> bool:
        return not self.word

    def __repr__(self) -> str:
        body = "∘".join(reversed(self.word)) if self.word else f"id_{self.source}"
        return f"{body}:{self.source}->{self.target}"


class QuiverCategory:
    """Free category on a finite quiver; morphisms enumerated up to a word
    length bound, and coded by their index in that list in blocks."""

    def __init__(self, objects: Sequence[str], arrows: Sequence[tuple[str, str, str]],
                 word_bound: int = DEFAULT_WORD_BOUND):
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValueError(f"repeated object in {list(self.objects)}")
        self.arrows: dict[str, tuple[str, str]] = {}
        for name, src, dst in arrows:
            if name in self.arrows:
                raise ValueError(f"duplicate arrow name {name!r}")
            if src not in self.objects or dst not in self.objects:
                raise ValueError(f"arrow {name!r} endpoints not among objects")
            self.arrows[name] = (src, dst)
        self.word_bound = word_bound
        self._identities = {o: QuiverMorphism(o, o, ()) for o in self.objects}
        self._coded: list[QuiverMorphism] | None = None  # the morphism of each code

    def identity(self, obj):
        try:
            return self._identities[obj]
        except KeyError:
            raise ValueError(f"unknown object {obj!r}") from None
        except TypeError:  # an array of object indices: identities come first in code order
            return obj

    def arrow(self, name: str) -> QuiverMorphism:
        src, dst = self.arrows[name]
        return QuiverMorphism(src, dst, (name,))

    def generators(self) -> list[QuiverMorphism]:
        return [self.arrow(name) for name in self.arrows]

    def source(self, m):
        try:
            return m.source
        except AttributeError:  # an array of codes
            return self._coding()[0][m]

    def target(self, m):
        try:
            return m.target
        except AttributeError:
            return self._coding()[1][m]

    def point_eq(self, a, b):
        """a == b for objects or morphisms; on arrays of codes, a per-case mask."""
        return a == b

    morphism_eq = point_eq

    def compose(self, m2, m1):
        """m2 ∘ m1: apply m1 first."""
        try:
            composable = m1.target == m2.source
        except AttributeError:  # arrays of codes
            return self._compose_codes(m2, m1)
        if not composable:
            raise CompositionUndefined(
                f"base morphisms not composable: target {m1.target!r} != source {m2.source!r}",
                target_value=m1.target, source_value=m2.source,
            )
        return QuiverMorphism(m1.source, m2.target, m1.word + m2.word)

    def morphisms_upto(self) -> list[QuiverMorphism]:
        """All composable arrow words of length <= word_bound, plus identities;
        deterministic order (identities first, then by length, then lexicographic)."""
        self._coding()
        return self._coded[:self._enumerated]

    # -- codes --

    def codes(self) -> range:
        """The codes of morphisms_upto(), in its order."""
        self._coding()
        return range(self._enumerated)

    def _coding(self) -> np.ndarray:
        """The (2, codes) source and target object indices, enumerating the
        morphisms up to the word bound on first use."""
        if self._coded is None:
            ms = [self.identity(o) for o in self.objects]
            current = [(src, (), src) for src in self.objects]  # (source, word, current target)
            for _ in range(self.word_bound):
                current = sorted((src, word + (name,), dst) for src, word, at in current
                                 for name, (a_src, dst) in self.arrows.items() if a_src == at)
                ms += [QuiverMorphism(src, at, word) for src, word, at in current]
            index = {o: i for i, o in enumerate(self.objects)}
            self._coded, self._enumerated = ms, len(ms)
            self._code_of = {m: c for c, m in enumerate(ms)}
            self._ends = np.array([[index[m.source] for m in ms], [index[m.target] for m in ms]],
                                  dtype=np.int64).reshape(2, len(ms))
            self._composite = np.full((len(ms), len(ms)), -1)  # [c1, c2]: code of c2 ∘ c1
        return self._ends

    def morphism(self, code):
        """The morphism of an int code from `codes()` or `code`; an array of
        codes stands for its morphisms in a block as it is."""
        return code if isinstance(code, np.ndarray) else self._coded[code]

    def object(self, index):
        """The object at an index into `objects`; an array of indices stands
        for its objects in a block as it is (each the code of its identity)."""
        return index if isinstance(index, np.ndarray) else self.objects[index]

    def code(self, m: QuiverMorphism) -> int:
        """The code of m, the next free one if m is new."""
        self._coding()
        code = self._code_of.get(m)
        if code is None:
            code = self._code_of[m] = len(self._coded)
            self._coded.append(m)
            index = self.objects.index
            self._ends = np.hstack([self._ends, [[index(m.source)], [index(m.target)]]])
            self._composite = np.pad(self._composite, (0, 1), constant_values=-1)
        return code

    def _compose_codes(self, m2: np.ndarray, m1: np.ndarray) -> np.ndarray:
        ends = self._coding()
        if np.any(ends[1][m1] != ends[0][m2]):
            raise CompositionUndefined("base morphisms in a block are not composable")
        out = gather(self._composite, m1, m2)
        new = out < 0
        if new.any():  # composites no block has formed yet, in order of first appearance
            for c1, c2 in dict.fromkeys(zip(m1[new].tolist(), m2[new].tolist())):
                code = self.code(self.compose(self._coded[c2], self._coded[c1]))
                self._composite[c1, c2] = code
            out = gather(self._composite, m1, m2)  # `code` may have widened the table
        return out

    def composable_pairs(self) -> Iterator[tuple[QuiverMorphism, QuiverMorphism]]:
        ms = self.morphisms_upto()
        for m1 in ms:
            for m2 in ms:
                if m1.target == m2.source:
                    yield m2, m1


class CodeTable:
    """A map of quiver morphisms into a finite group, looked up by code on a
    block: `fn` runs on a morphism the first time a block holds its code, and
    on a morphism where it raised, again the next time. A value that is not a
    code of `group` raises StructuralError, and is not kept."""

    def __init__(self, base: QuiverCategory, fn, group):
        self.base, self.fn, self.group = base, fn, group
        self.values = np.zeros(0, dtype=np.int64)  # -1 where not yet evaluated

    def __call__(self, codes: np.ndarray) -> np.ndarray:
        top = int(codes.max()) + 1
        if top > len(self.values):
            self.values = np.concatenate([self.values, np.full(top - len(self.values), -1)])
        out = self.values[codes]
        if (out < 0).any():
            for code in dict.fromkeys(codes[out < 0].tolist()):  # np.unique imports numpy.ma
                self.values[code] = self.value(self.base.morphism(code))
            out = self.values[codes]
        return out

    def value(self, m):
        """`fn(m)`, which must be an element of `group`."""
        value = self.fn(m)
        if not self.group.contains(value):
            raise StructuralError(f"{value!r} at {m!r} is not an element of {self.group.name}")
        return value


class SampledPath:
    """Piecewise-linear path through `samples` (shape (k, dim), k >= 2),
    parametrized over [0, 1].

    `pieces` records composition structure: None for a directly-sampled path,
    else (first, second).
    """

    def __init__(self, samples, pieces: tuple["SampledPath", "SampledPath"] | None = None):
        arr = np.asarray(samples, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 2:
            raise ValueError("a path needs at least 2 samples of equal dimension")
        self.samples = arr
        self.pieces = pieces

    @property
    def dim(self) -> int:
        return self.samples.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.samples[0]

    @property
    def end(self) -> np.ndarray:
        return self.samples[-1]

    def leaves(self) -> Iterator["SampledPath"]:
        if self.pieces is None:
            yield self
        else:
            yield from self.pieces[0].leaves()
            yield from self.pieces[1].leaves()

    def reverse(self) -> "SampledPath":
        if self.pieces is None:
            return SampledPath(self.samples[::-1].copy())
        first, second = self.pieces
        return compose_paths(first.reverse(), second.reverse())

    def fold(self, value, mul):
        """`value(self)` on a directly-sampled path; on a composite, the
        product `mul(second, first)` of its pieces' folds, the later piece on
        the left, as transport multiplies them."""
        if self.pieces is None:
            return value(self)
        first, second = self.pieces
        return mul(second.fold(value, mul), first.fold(value, mul))

    def dedup(self, tol: float = DEFAULT_PT_TOL) -> np.ndarray:
        """Samples with consecutive duplicates (zero-length segments) removed;
        canonical form for path equality. Where every step exceeds `tol`, one
        vectorised test finds that nothing is removed."""
        if (abs(np.diff(self.samples, axis=0)).max(axis=1) > tol).all():
            return self.samples
        keep = [self.samples[0]]
        for p in self.samples[1:]:
            if np.max(np.abs(p - keep[-1])) > tol:
                keep.append(p)
        if len(keep) == 1:
            keep.append(self.samples[-1])
        return np.array(keep)

    def __repr__(self) -> str:
        return f"<SampledPath dim={self.dim} samples={len(self.samples)}>"


class LeafTable:
    """Paths in one array: path j's samples are rows offsets[j]:offsets[j + 1]
    of `points`, and `paths` keeps each as the SampledPath that a single case
    is and that the transport twist keeps leaf values by."""
    __slots__ = ("paths", "points", "offsets", "__weakref__")

    def __init__(self, paths):
        self.paths = tuple(paths)
        self.offsets = _offsets([len(p.samples) for p in self.paths])
        self.points = np.concatenate([p.samples for p in self.paths] or [np.empty((0, 1))])


class PathBlock:
    """The paths of k cases of a block, in case order, as arrays: drawn paths
    are `ids` into a LeafTable (a block made from paths is a table of them),
    composites one tree node, `pieces` = (first, second), over two blocks of
    k paths. An int index gives one SampledPath, an index array a block."""
    __slots__ = ("table", "ids", "pieces")

    def __init__(self, paths=(), table: LeafTable | None = None, ids=None, pieces=None):
        if table is None and pieces is None:
            table = LeafTable(paths)
            ids = np.arange(len(table.paths))
        self.table, self.ids, self.pieces = table, ids, pieces

    def __len__(self) -> int:
        return len(self.ids) if self.pieces is None else len(self.pieces[0])

    def __iter__(self) -> Iterator[SampledPath]:
        if self.pieces is None:
            return map(self.table.paths.__getitem__, self.ids.tolist())
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i):
        if self.pieces is None:
            return PathBlock(table=self.table, ids=self.ids[i]) if isinstance(i, np.ndarray) \
                else self.table.paths[self.ids[i]]
        first, second = (piece[i] for piece in self.pieces)
        if isinstance(i, np.ndarray):
            return PathBlock(pieces=(first, second))
        return compose_paths(second, first, math.inf)  # the block checked that they meet

    @staticmethod
    def where(mask: np.ndarray, a: "PathBlock", b: "PathBlock") -> "PathBlock":
        """Case i of drawn block `a` where mask[i], else of `b`."""
        ids = np.where(mask, a.ids, len(a.table.paths) + b.ids)
        return PathBlock(table=LeafTable(a.table.paths + b.table.paths), ids=ids)

    @property
    def dim(self) -> int:
        return self.pieces[0].dim if self.pieces else self.table.points.shape[1]

    @property
    def start(self) -> np.ndarray:
        t = self.table
        return self.pieces[0].start if self.pieces else t.points[t.offsets[self.ids]]

    @property
    def end(self) -> np.ndarray:
        t = self.table
        return self.pieces[1].end if self.pieces else t.points[t.offsets[self.ids + 1] - 1]

    def fold(self, value, mul):
        """`value(table, ids)` on drawn paths; on composites, the product
        `mul(second, first)` of the pieces' folds, as `SampledPath.fold`."""
        if self.pieces is None:
            return value(self.table, self.ids)
        return mul(self.pieces[1].fold(value, mul), self.pieces[0].fold(value, mul))

    def flat(self) -> tuple[np.ndarray, np.ndarray]:
        """The k paths' samples end to end, bitwise each path's `samples`,
        and the k + 1 offsets of their rows."""
        if self.pieces is None:
            t = self.table
            lengths = np.diff(t.offsets)[self.ids]
            return t.points[_ranges(t.offsets[self.ids], lengths)], _offsets(lengths)
        (p1, o1), (p2, o2) = (piece.flat() for piece in self.pieces)
        l1, l2 = np.diff(o1), np.diff(o2) - 1  # the second piece's first sample is the junction
        offsets = _offsets(l1 + l2)
        out = np.empty((offsets[-1], p1.shape[1]))
        out[_ranges(offsets[:-1], l1)] = p1
        out[_ranges(offsets[:-1] + l1, l2)] = p2[_ranges(o2[:-1] + 1, l2)]
        return out, offsets

    def dedup(self, tol: float = DEFAULT_PT_TOL) -> tuple[np.ndarray, np.ndarray]:
        """`flat()` with each path deduplicated as `SampledPath.dedup`: all at
        once where every step within `tol` repeats a sample exactly and two
        samples stay, else one path at a time."""
        points, offsets = self.flat()
        steps = abs(np.diff(points, axis=0)).max(axis=1)
        keep = np.concatenate([[True], steps > tol])
        keep[offsets[:-1]] = True  # a path's first sample, after the step from the path before
        kept, odd = _offsets(keep), _offsets((steps != 0) & ~(steps > tol))  # NaN is odd
        counts = kept[offsets[1:]] - kept[offsets[:-1]]
        if (counts > 1).all() and (odd[offsets[1:] - 1] == odd[offsets[:-1]]).all():
            return points[keep], _offsets(counts)
        out = [SampledPath(points[a:b]).dedup(tol) for a, b in zip(offsets[:-1], offsets[1:])]
        return np.concatenate(out), _offsets([len(x) for x in out])


def path_values(path, leaf_values, mul, kept):
    """The value of a path, or the stack of a PathBlock's: a leaf's from
    `leaf_values(leaves)`, which stacks those of a list of leaves, a
    composite's the product `mul(second, first)` of its pieces'. `kept`
    keeps a leaf's value by the leaf and a table's rows (values, known) by
    the table; one `leaf_values` call takes the distinct leaves it lacks,
    and when they are the table paths needed, gives their rows as they are."""
    block = path if isinstance(path, PathBlock) else PathBlock([path])
    need = {}
    for table, ids in block.fold(lambda table, ids: [(table, ids)], lambda b, a: a + b):
        need.setdefault(table, np.zeros(len(table.paths), dtype=bool))[ids] = True
    jobs = [(t, np.flatnonzero(m & ~kept[t][1] if t in kept else m)) for t, m in need.items()]
    paths = [t.paths[j] for t, js in jobs for j in js.tolist()]
    if paths:
        leaves = dict.fromkeys(leaf for p in paths for leaf in p.leaves())
        new = [leaf for leaf in leaves if leaf not in kept]
        if new:
            got = leaf_values(new)
            kept.update(zip(new, got))
        if new != paths:
            got = np.array([p.fold(kept.__getitem__, mul) for p in paths])
        at = 0
        for t, js in jobs:
            values, known = kept.setdefault(t, (np.empty((len(t.paths), *got.shape[1:])),
                                                np.zeros(len(t.paths), dtype=bool)))
            values[js], known[js] = got[at:at + len(js)], True
            at += len(js)
    out = block.fold(lambda table, ids: kept[table][0][ids], mul)
    return out if block is path else out[0]


def _offsets(lengths) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, end to end."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1] if len(ends) else 0)


def same_samples(a, b):
    """Whether two paths have equal samples, none dropped: a bool, or a
    per-case mask on two blocks (or on their `flat()`s)."""
    if isinstance(a, SampledPath):
        return bool(np.array_equal(a.samples, b.samples))
    (pa, oa), (pb, ob) = (x.flat() if isinstance(x, PathBlock) else x for x in (a, b))
    la = np.diff(oa)
    same = (la == np.diff(ob)) & (pa.shape[1] == pb.shape[1])
    cases = np.flatnonzero(same)
    if len(cases):
        rows = [_ranges(o[:-1][cases], la[cases]) for o in (oa, ob)]
        same[np.repeat(cases, la[cases])[(pa[rows[0]] != pb[rows[1]]).any(axis=1)]] = False
    return same


def constant_path(point) -> SampledPath:
    p = np.atleast_1d(np.asarray(point, dtype=float))
    return SampledPath(np.stack([p, p]))


def compose_paths(gamma2: SampledPath, gamma1: SampledPath,
                  tol: float = DEFAULT_PT_TOL) -> SampledPath:
    """gamma2 ∘ gamma1 (gamma1 first): concatenated samples with the shared
    junction point deduplicated, renormalized over [0, 1]."""
    if gamma1.dim != gamma2.dim:
        raise CompositionUndefined("paths live in different ambient dimensions")
    if np.max(np.abs(gamma1.end - gamma2.start)) > tol:
        raise CompositionUndefined(
            f"path endpoints do not match within {tol}: {gamma1.end} vs {gamma2.start}",
            target_value=gamma1.end, source_value=gamma2.start,
        )
    samples = np.vstack([gamma1.samples, gamma2.samples[1:]])
    return SampledPath(samples, pieces=(gamma1, gamma2))


class PathCategory:
    """Points of R^dim as objects, sampled paths as morphisms; composition is
    concatenation when endpoints match within eps_pt. Each map also takes the
    PathBlock or (k, dim) points of a block."""

    def __init__(self, dim: int, eps_pt: float = DEFAULT_PT_TOL):
        if dim not in (1, 2, 3):
            raise ValueError("ambient dimension must be 1, 2 or 3")
        self.dim = dim
        self.eps_pt = eps_pt

    def identity(self, point):
        """The constant path at a point, or a block of them at the rows of a
        (k, dim) array."""
        if np.ndim(point) == 2:
            return PathBlock(map(constant_path, point))
        return constant_path(point)

    def source(self, p) -> np.ndarray:
        return p.start

    def target(self, p) -> np.ndarray:
        return p.end

    def compose(self, gamma2, gamma1):
        """gamma2 ∘ gamma1; on two blocks, one endpoint check for all pairs,
        raising CompositionUndefined if any does not meet, and one node."""
        if not isinstance(gamma1, PathBlock):
            return compose_paths(gamma2, gamma1, self.eps_pt)
        if gamma1.dim != gamma2.dim or (abs(gamma1.end - gamma2.start).max(axis=-1) > self.eps_pt).any():
            raise CompositionUndefined("paths in the block do not meet")
        return PathBlock(pieces=(gamma1, gamma2))

    def point_eq(self, a, b):
        """Max-abs coordinate difference within eps_pt: a bool, or a per-case
        mask on (k, dim) arrays of points."""
        diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        if diff.ndim < 2:
            return bool(diff.max() <= self.eps_pt)
        return diff.max(axis=-1) <= self.eps_pt

    def morphism_eq(self, a, b):
        """Paths agree as morphisms when their deduplicated sample lists do;
        on two blocks, a per-case mask."""
        if isinstance(a, PathBlock):
            return same_samples(a.dedup(self.eps_pt), b.dedup(self.eps_pt))
        a, b = a.dedup(self.eps_pt), b.dedup(self.eps_pt)
        return a.shape == b.shape and bool(np.array_equal(a, b))

    def random_path(self, rng: Stream, n_segments: int | None = None,
                    start=None, scale: float = 1.0) -> SampledPath:
        """Seeded random piecewise-linear path used by sampled suites: a
        start in [-1, 1)^dim unless given, then n_segments steps in
        [-scale, scale)^dim, all from one uniform draw, bitwise the point by
        point `uniform` draws."""
        if n_segments is None:
            n_segments = int(rng.integers(1, 4))
        u = rng.random((n_segments + (start is None), self.dim))
        rows = 2 * scale * u - scale  # low + (high - low)·u, as `uniform` computes it
        if start is not None:
            rows = np.concatenate([np.asarray(start, dtype=float)[None], rows])
        elif scale != 1.0:
            rows[0] = 2.0 * u[0] - 1.0
        return SampledPath(rows.cumsum(axis=0))
