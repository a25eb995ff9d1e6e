"""Case spaces and pass/fail law reports shared by every verification suite.

A law's cases come from a CaseSpace, whose `plan` decides exhaustive vs
sampled by one rule: the whole space in order when it fits the budget,
else `budget` seeded draws. Every case is `build(*parts)`, and a plan takes
one of two routes to its blocks:

- a finite space is decoded FINITE_BLOCK case numbers (or seeded picks) at
  a time, one vectorised divmod per axis into part columns: int codes
  (range axes, coded spaces such as the twisted chains on a quiver) or
  listed items. A sampled product with counted or enumerated axes is made
  finite first, by drawing each sampled axis up front (a counted product as
  one unit);
- an open sampled space (SO(n) carriers, random paths) is drawn DRAWN_BLOCK
  cases at a time: one uniform array where its parts are uniforms, else
  case by case, from a saved RNG state that reruns a block's cases one at a
  time.

Either way the block is built once where every part column stacks, and case
by case otherwise. A law is `run_law(law, anchor, plan, ok, witness)`:
`ok(case)` is a per-case mask on a block, and `witness(case)` describes one
failing case. A finite block whose build or check raises is searched by
halves, each rebuilt from its part columns, for the first case that fails,
so a big block costs a failing law about log2(FINITE_BLOCK) block checks
and one single case.

A suite produces a LawReport: one LawRecord per algebraic law, each carrying
the law's anchor string (its identifier in the library's law registry, e.g.
"Eq 2.4"), a pass/fail status, the number of cases checked, whether the
check was exhaustive, and a witness payload on failure.

The machine-readable serialization (JSONL) is canonical: records sorted by
law id, keys sorted, no timing fields, so identical inputs give identical
bytes. Timing appears only in the human-readable table.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .basecat import PathBlock, SampledPath
from .groups import CompositionUndefined, StructuralError

# a case that raises one of these fails its law with an error witness
CASE_ERRORS = (CompositionUndefined, StructuralError)

# cases a law may check when neither the caller nor the scenario sets a budget
DEFAULT_BUDGET = 10_000


class CaseSpace:
    """The cases of one law, built without listing them: each is
    `build(*parts)`.

    A finite space has `size` cases, and `decode(i)` maps an int64 array of
    case numbers (an object array past int64) to the `arity` columns of its
    parts, each an int64 array of codes or a list of items; `space[i]` is
    case i in enumeration order, and iterating a space lists it. A sampled
    space (an infinite carrier, random paths) has `size` None and stands in
    for `count` seeded draws, or for as many as the budget allows when
    `count` is None. `draw(rng)` draws one case's parts; where `width` is set
    and `draw` is not, the parts are one row of `width` uniforms, so k cases
    are built at once from a (k, width) array, bitwise k draws. A sampled
    product keeps its `axes`, each drawn in turn. Sequences serve as finite
    axes as they are (a `range`, as codes).
    """

    def __init__(self, size: int | None, build: Callable, decode: Callable | None = None,
                 arity: int = 1, draw: Callable | None = None, width: int | None = None,
                 count: int | None = None, axes: tuple = ()):
        self.size, self.build = size, build
        self.decode, self.arity = decode, arity  # finite spaces
        self.draw, self.width, self.count, self.axes = draw, width, count, axes  # sampled ones

    def __len__(self) -> int:
        return self.size  # a TypeError on a sampled space

    def __getitem__(self, i: int):
        if not 0 <= i < self.size:
            raise IndexError(f"case {i} of a space of {self.size}")
        i = np.array([i], dtype=np.int64 if i < 2**63 else object)
        return next(_singles(self, self.decode(i)))

    def __iter__(self):
        return itertools.chain.from_iterable(
            _singles(self, self.decode(np.arange(start, min(start + FINITE_BLOCK, self.size))))
            for start in range(0, self.size, FINITE_BLOCK))

    @staticmethod
    def finite(items: Sequence) -> "CaseSpace":
        return CaseSpace.product(items, build=_same)

    @staticmethod
    def coded(size: int, arity: int, codes: Callable, build: Callable) -> "CaseSpace":
        """Cases `build(*parts)`, where `codes(i)` maps an int64 array of case
        numbers to `arity` arrays of codes, one per part: a block gets the
        arrays, a single case their Python ints."""
        return CaseSpace(size, build, decode=codes, arity=arity)

    @staticmethod
    def sampled(draw: Callable, count: int | None = None,
                build: Callable | None = None) -> "CaseSpace":
        """Seeded cases `draw(rng)`; with `build`, `draw(rng)` gives a
        case's parts and the case is `build(*parts)`."""
        if build is None:
            return CaseSpace(None, _same, draw=lambda rng: (draw(rng),), count=count)
        return CaseSpace(None, build, draw=draw, count=count)

    @staticmethod
    def carrier(group, count: int | None = None):
        """A group's elements, or seeded samples of an infinite group, drawn
        from `width` uniforms each where the group has a stack sampler."""
        if group.is_finite:
            return group.elements
        if group.width is None:
            return CaseSpace.sampled(group.sample, count)
        return CaseSpace(None, group.sample_stack, width=group.width, count=count)

    @staticmethod
    def product(*axes, build: Callable | None = None, count: int | None = None) -> "CaseSpace":
        """Cases `build(*parts)` (a tuple by default), one part per axis; the
        last axis varies fastest, as in the nested loops it replaces. A
        sampled product stands in for `count` draws of itself when given,
        else for the product of its axes' counts when they all have one."""
        build = build or (lambda *parts: parts)
        if not any(_is_sampled(a) for a in axes):
            return _finite_product(axes, build)
        if any(_is_sampled(a) and not all(map(_is_sampled, a.axes)) for a in axes):
            raise ValueError("a product with enumerated axes cannot be drawn as an axis")
        if count is None and all(_is_sampled(a) and a.count is not None for a in axes):
            count = math.prod(a.count for a in axes)
        width = (sum(a.width for a in axes)
                 if all(_is_sampled(a) and a.width is not None for a in axes) else None)
        return CaseSpace(None, build, draw=lambda rng: [_case(a, rng) for a in axes],
                         width=width, count=count, axes=axes)

    def plan(self, budget: int, rng) -> "Plan":
        """The cases a law checks: the whole finite space in order when it
        fits the budget (exhaustive); else `budget` seeded picks from
        range(size). A sampled space is drawn `count` times, or `budget`
        times; in a product, finite and counted axes are enumerated whole
        and one open sampled axis is drawn max(1, budget // their size)
        times. No cases when budget <= 0. The cases come as Blocks of at
        most FINITE_BLOCK (finite) or DRAWN_BLOCK (open) cases where they
        stack, with the RNG consumed as case-by-case draws consume it."""
        if budget <= 0:
            return Plan((), exhaustive=False, space=self.size)
        if self.size is not None:
            if self.size <= budget:
                return Plan(_decoded(self, range(self.size)), exhaustive=True, space=self.size)
            return Plan(_decoded(self, _picks(rng, self.size, budget)), exhaustive=False,
                        space=self.size)
        if self.count is None and all(_is_sampled(a) and a.count is None for a in self.axes):
            return Plan(_drawn(self, budget, rng), exhaustive=False)
        finite = _made_finite(self, budget, rng)
        return Plan(_decoded(finite, range(finite.size)), exhaustive=False)


# cases per block: a decoded block is int-code columns, 32 kB a part, and
# mostly costs its Python dispatch; a drawn one holds SO(n) stacks and paths,
# a few hundred kB of SO(3) stacks per law
FINITE_BLOCK = 4096
DRAWN_BLOCK = 512


class Block:
    """`size` cases stacked along a first axis as `cases` (None where their
    build raised a CASE_ERRORS error), and `singles(first)`, which yields
    them one at a time from case `first` on (a drawn block redraws them from
    its saved RNG state, the cases before `first` too, unchecked). A finite
    block also has `part(lo, hi)`, its cases lo..hi-1 built stacked anew
    from its part columns; a drawn one has None. A plain class: a frozen
    dataclass adds about 1 ms to every CLI start."""
    __slots__ = ("cases", "size", "singles", "part")

    def __init__(self, cases, size: int, singles: Callable, part: Callable | None = None):
        self.cases, self.size, self.singles, self.part = cases, size, singles, part


def _block(k: int, stacked: Callable, singles: Callable, part: Callable | None = None):
    """The k cases of one block: a Block of the cases `stacked()` builds
    at once, or, where their parts do not stack (None), the cases from
    `singles()` one at a time. Where the build raises a CASE_ERRORS error, a
    finite block (one with `part`) is a Block without cases, which run_law
    searches by halves, and a drawn one comes as its singles, each raising
    in its turn."""
    try:
        cases = stacked()
    except CASE_ERRORS:
        return singles() if part is None else (Block(None, k, singles, part),)
    return singles() if cases is None else (Block(cases, k, singles, part),)


def _decoded(space: CaseSpace, indices):
    """The cases of a finite space at `indices` (case numbers or picks),
    FINITE_BLOCK at a time: their part columns decoded at once, and the
    block built once from them. Its `part` and `singles` slice the same
    columns, so a rerun from case i builds no case before it. Listed items
    do not stack: their cases come one at a time."""
    for start in range(0, len(indices), FINITE_BLOCK):
        chunk = indices[start:start + FINITE_BLOCK]
        columns = space.decode(np.arange(chunk.start, chunk.stop)
                               if isinstance(chunk, range) else chunk)
        if any(isinstance(c, list) for c in columns):
            yield from _singles(space, columns)
            continue

        def part(lo, hi, columns=columns):
            return space.build(*(c[lo:hi] for c in columns))

        def singles(first=0, columns=columns):
            return _singles(space, [c[first:] for c in columns])

        yield from _block(len(chunk), lambda: part(0, len(chunk)), singles, part)


def _drawn(space: CaseSpace, budget: int, rng):
    """`budget` draws of an open sampled space, DRAWN_BLOCK at a time, which
    take the RNG exactly as per-case draws do: one (k, width) uniform array
    per block where its parts are uniforms, else k per-case draws of its
    parts, built once, stacked. A block's singles redraw from its saved RNG
    state and stop drawing where their rerun stops."""
    for start in range(0, budget, DRAWN_BLOCK):
        k = min(DRAWN_BLOCK, budget - start)
        state = rng.bit_generator.state

        def redraw(first=0, state=state, k=k):
            rng.bit_generator.state = state
            return itertools.islice((_case(space, rng) for _ in range(k)), first, None)

        if space.width is not None:
            yield from _block(k, lambda: _uniform(space, rng.random((k, space.width))), redraw)
        else:
            yield from _block(k, lambda: _built(space.build, [
                tuple(space.draw(rng)) for _ in range(k)]), redraw)


def _made_finite(space: CaseSpace, budget: int, rng) -> CaseSpace:
    """A sampled space that is not open, made finite: drawn `count` times as
    one unit when its axes are all open, else a product of its axes, each
    sampled one drawn up front in turn, `count` times or (the one open axis)
    max(1, budget // the size of the others) times."""
    if all(_is_sampled(a) and a.count is None for a in space.axes):
        return _drawn_axis(space, space.count, rng)
    counts = [(a.count if _is_sampled(a) else _size(a)) for a in space.axes]
    if counts.count(None) > 1:
        raise ValueError("a product may sample at most one axis beside enumerated ones")
    draws = max(1, budget // max(1, math.prod(c for c in counts if c is not None)))
    return CaseSpace.product(*(_drawn_axis(a, draws if c is None else c, rng) if _is_sampled(a)
                               else a for a, c in zip(space.axes, counts)), build=space.build)


def _drawn_axis(axis: CaseSpace, n: int, rng):
    """n draws of a sampled axis as a finite one: drawn as one (n, width)
    uniform array where its parts are uniforms, else case by case, and coded
    by draw number where the draws stack; listed where they do not."""
    if axis.width is not None:
        stacked = _uniform(axis, rng.random((n, axis.width)))
    else:
        cases = [_case(axis, rng) for _ in range(n)]
        stacked = _stack(cases)
        if stacked is None:
            return CaseSpace.finite(cases)
    return CaseSpace.coded(n, 1, lambda i: [i], lambda i: _take(stacked, i))


def _finite_product(axes: tuple, build: Callable) -> CaseSpace:
    """The product of finite axes, decoded by one divmod per axis into each
    axis's columns in its place, and built from them through each space
    axis's own build."""
    sizes = [_size(a) for a in axes]
    arities = [a.arity if isinstance(a, CaseSpace) else 1 for a in axes]

    def decode(i):  # int64 case numbers, or Python ints in an object array past int64
        out = []  # last axis first
        for a, size in zip(reversed(axes), reversed(sizes)):
            i, r = (i // size, i % size) if i.dtype == object else np.divmod(i, size)
            if size <= 2**63:  # so a residue fits int64
                r = r.astype(np.int64, copy=False)
            if isinstance(a, CaseSpace):
                out += reversed(a.decode(r))
            elif isinstance(a, range):
                out.append(r if a.start == 0 and a.step == 1 else a.start + a.step * r)
            else:
                out.append(list(map(a.__getitem__, r.tolist())))
        out.reverse()
        return out

    def whole(*parts):
        it = iter(parts)
        return build(*(a.build(*itertools.islice(it, n)) if isinstance(a, CaseSpace)
                       else next(it) for a, n in zip(axes, arities)))

    spaced = any(isinstance(a, CaseSpace) for a in axes)
    return CaseSpace(math.prod(sizes), whole if spaced else build, decode=decode,
                     arity=sum(arities))


def _built(build: Callable, parts: list):
    """`build` once on the stacked parts of k cases, or None where they do
    not stack."""
    stacked = _stack(parts)
    return None if stacked is None else build(*stacked)


def _singles(space: CaseSpace, columns: list):
    """The cases of a block's part columns one at a time, built from Python
    ints and items."""
    return itertools.starmap(space.build, zip(*(
        c.tolist() if isinstance(c, np.ndarray) else c for c in columns)))


def _case(space: CaseSpace, rng):
    """One seeded case of a sampled space."""
    if space.draw is None:
        return space.build(rng.random(space.width))
    return space.build(*space.draw(rng))


def _uniform(space: CaseSpace, u: np.ndarray):
    """The k cases of a sampled space whose parts are uniforms, from a
    (k, width) array of them: a product's columns split per axis, as a case
    draws its axes in turn."""
    if not space.axes:
        return space.build(u)
    ends = itertools.accumulate(a.width for a in space.axes)
    return space.build(*[_uniform(a, u[:, e - a.width:e]) for a, e in zip(space.axes, ends)])


def _stack(items):
    """A sequence of k cases of one kind as one stacked case, or None where
    they do not stack: SO(n) elements along a new first axis, paths as a
    PathBlock, tuples and dataclasses part by part."""
    try:
        first = items[0]
    except IndexError:  # an empty axis
        return None
    if isinstance(first, np.ndarray):
        return np.stack(items)
    if isinstance(first, SampledPath):
        return PathBlock(items)
    if isinstance(first, tuple):
        parts = [_stack(p) for p in zip(*items)]
        return None if any(p is None for p in parts) else tuple(parts)
    if dataclasses.is_dataclass(first):
        names = [f.name for f in dataclasses.fields(first)]
        parts = [_stack([getattr(x, name) for x in items]) for name in names]
        return None if any(p is None for p in parts) else type(first)(*parts)
    return None


def _take(block, i):
    """Case i of a stacked case, or the stacked cases at an index array."""
    if isinstance(block, tuple):
        return tuple(_take(b, i) for b in block)
    if dataclasses.is_dataclass(block):
        return type(block)(*(_take(getattr(block, f.name), i) for f in dataclasses.fields(block)))
    return block[i]


def _picks(rng, size: int, budget: int) -> np.ndarray:
    """`budget` draws of `_index(rng, size)`, in one call below 2**63, where
    every axis size fits int64 arithmetic too: the same values and generator
    state as per-draw calls."""
    if size < 2**63:
        return rng.integers(size, size=budget)
    return np.array([_index(rng, size) for _ in range(budget)], dtype=object)


def _index(rng, size: int) -> int:
    """A uniform draw from range(size): `rng.integers(size)` where numpy's
    int64 draw reaches (size <= 2**63), else rejection sampling on random
    bytes."""
    if size <= 2**63:
        return int(rng.integers(size))
    bits = size.bit_length()
    while True:
        i = int.from_bytes(rng.bytes((bits + 7) // 8), "little") >> (-bits % 8)
        if i < size:
            return i


def _is_sampled(axis) -> bool:
    return isinstance(axis, CaseSpace) and axis.size is None


def _size(axis) -> int:
    """The size of a finite axis: a space's `size`, which unlike `len` is not
    capped at sys.maxsize, or a sequence's length."""
    return axis.size if isinstance(axis, CaseSpace) else len(axis)


def _same(case):
    return case


@dataclass(frozen=True)
class Plan:
    """The cases one law checks, whether they are its whole case space, and
    the size of that space (None when infinite). A plan from
    `CaseSpace.plan` is consumed by the one law that iterates it."""
    cases: Iterable
    exhaustive: bool
    space: int | None = None

    def __iter__(self):
        return iter(self.cases)


@dataclass(frozen=True)
class LawRecord:
    law: str
    anchor: str
    status: str  # "pass" | "fail"
    checks: int
    exhaustive: bool
    witness: dict | None = None
    # not serialized: the time taken, the case-space size (None if
    # infinite), the block checks made and the cases checked one at a time
    elapsed_ms: float = 0.0
    space: int | None = None
    blocks: int = 0
    singles: int = 0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class LawReport:
    suite: str
    records: list[LawRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # overall status is fail iff any record fails
        return all(r.passed for r in self.records)

    def sorted_records(self) -> list[LawRecord]:
        return sorted(self.records, key=lambda r: r.law)

    def extend(self, other: "LawReport") -> "LawReport":
        self.records.extend(other.records)
        return self

    def find(self, law: str) -> LawRecord:
        for r in self.records:
            if r.law == law:
                return r
        raise KeyError(law)

    def to_jsonl(self) -> str:
        lines = []
        for r in self.sorted_records():
            lines.append(json.dumps(
                {
                    "suite": self.suite,
                    "law": r.law,
                    "anchor": r.anchor,
                    "status": r.status,
                    "checks": r.checks,
                    "exhaustive": r.exhaustive,
                    "witness": r.witness,
                },
                sort_keys=True,
                separators=(",", ":"),
            ))
        lines.append(json.dumps(
            {
                "suite": self.suite,
                "laws": len(self.records),
                "overall": "pass" if self.passed else "fail",
            },
            sort_keys=True,
            separators=(",", ":"),
        ))
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        rows = [("LAW", "ANCHOR", "STATUS", "CHECKS", "MODE", "MS")]
        for r in self.sorted_records():
            rows.append((
                r.law,
                r.anchor,
                "PASS" if r.passed else "FAIL",
                str(r.checks),
                "exhaustive" if r.exhaustive else "sampled",
                f"{r.elapsed_ms:.1f}",
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(6)]
        out = []
        for row in rows:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        status = "PASS" if self.passed else "FAIL"
        out.append(f"suite {self.suite}: {status} ({len(self.records)} laws)")
        failing = [r for r in self.sorted_records() if not r.passed]
        for r in failing:
            out.append(f"  witness [{r.law}]: {json.dumps(r.witness, sort_keys=True)}")
        return "\n".join(out) + "\n"


def sides_witness(fmt: Callable, sides) -> dict:
    """The two sides (lhs, rhs) of a failed comparison, formatted by `fmt`."""
    return {"lhs": fmt(sides[0]), "rhs": fmt(sides[1])}


def run_law(law: str, anchor: str, plan: Plan, ok: Callable, witness: Callable) -> LawRecord:
    """Check `ok` over the cases of `plan`, from `CaseSpace.plan`, up to the
    first that fails, and describe that one by `witness(case)`. The record
    is exhaustive exactly when the plan is. A case that raises
    CompositionUndefined or StructuralError fails with the error as its
    witness; other exceptions propagate. A law checked on no case fails.

    On a Block, `ok` gives a per-case mask. The first case whose check is
    False, or raises one of the two errors, is found by `_first_failure`;
    at index i it counts i + 1 checks, and the block is rerun case by case
    from there (a drawn block redraws its first i cases too, so the RNG
    stands where a case-by-case run leaves it), so that case is the first
    checked on its own. The record counts the block checks and the cases
    checked one at a time."""
    t0 = time.perf_counter()
    n, found, blocks, singles = 0, None, 0, 0
    for item in plan:
        cases = (item,)
        if isinstance(item, Block):
            first, checked = _first_failure(item, ok)
            n, blocks = n + first, blocks + checked
            if first == item.size:
                continue
            cases = item.singles(first)
        for case in cases:
            n += 1
            singles += 1
            try:
                if ok(case):
                    continue
                found = witness(case)
            except CASE_ERRORS as exc:
                # a law whose check cannot even be formed has failed
                found = {"error": f"{type(exc).__name__}: {exc}"}
            break
        if found is not None:
            break
    if n == 0:
        found = {"error": "no cases checked"}
    return LawRecord(law=law, anchor=anchor, status="pass" if found is None else "fail", checks=n,
                     exhaustive=plan.exhaustive, witness=found,
                     elapsed_ms=(time.perf_counter() - t0) * 1000.0, space=plan.space,
                     blocks=blocks, singles=singles)


def _first_failure(block: Block, ok: Callable) -> tuple[int, int]:
    """The index of the first case of `block` whose check is False or raises
    a CASE_ERRORS error (`block.size` where every case holds), and the number
    of block checks that found it. Where the block's build or check raises,
    a finite block is searched by halves, as in binary-splitting group
    testing (Hwang, JASA 67(339), 1972): the earlier half of the span that
    holds the first failure is built from the part columns and checked, and
    the search goes on in whichever half holds the first False or raise,
    until it finds a False or one case is left: at most
    ceil(log2(block.size)) more checks. A drawn block has no `part`: its
    search stops at case 0."""
    lo, hi = 0, block.size  # the first failure, if any, is in lo..hi-1
    checks, held = 0, None  # held: how many of the last cases checked hold first
    if block.cases is not None:
        checks, held = 1, _held(ok, lambda: block.cases, hi)
    while held is None and hi - lo > 1 and block.part is not None:
        mid = (lo + hi) // 2
        checks, held = checks + 1, _held(ok, lambda: block.part(lo, mid), mid - lo)
        if held is None:
            hi = mid
        elif held == mid - lo:
            lo, held = mid, None
    return (lo if held is None else lo + held), checks


def _held(ok: Callable, build: Callable, k: int) -> int | None:
    """How many of the k stacked cases `build()` gives hold before the first
    whose check is False (k where all hold), or None where the build or the
    check raises a CASE_ERRORS error."""
    try:
        mask = np.broadcast_to(ok(build()), (k,))
    except CASE_ERRORS:
        return None
    return k if mask.all() else int(mask.argmin())
