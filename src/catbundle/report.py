"""Case spaces and pass/fail law reports shared by every verification suite.

A law's cases come from a CaseSpace, whose `plan` decides exhaustive vs
sampled by one rule: the whole space in order when it fits the budget,
else `budget` seeded draws. Plans come in blocks of at most BLOCK cases
wherever the cases stack: a coded space of any size (range axes and coded
spaces, such as the twisted chains on a quiver) as arrays of codes; an open
sampled product of SO(n) carriers as stacks from one uniform array; another
open sampled space (random paths) drawn case by case and built once from its
stacked parts; and a product of counted axes gathered from their drawn lists.
Cases that do not stack (finite codes beside sampled axes) come one at a
time. A law is `run_law(law, anchor, plan, ok, witness)`: `ok(case)` is a
per-case mask on a block, and `witness(case)` describes one failing case.

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
    """The cases of one law, built without listing them.

    A finite space has `size` cases and `space[i]` decodes the i-th in
    enumeration order (an IndexError outside range(size), so `list(space)`
    lists them all). A sampled space (an infinite carrier, random paths) has
    `size` None, draws one seeded case per `draw(rng)`, and stands in for
    `count` draws, or for as many as the budget allows when `count` is None;
    its `stack(u)` may build k stacked cases from a (k, width) array of
    uniform draws, bitwise those of k `draw` calls, and `parts(rng)` with
    `build` split a draw into the parts drawn and the case built from them
    (`build` runs once on a block's stacked parts). A coded space maps an
    int64 array of case numbers to `arity` arrays of codes, `codes(i)`, which
    `from_codes(*parts)` builds into stacked cases (or one case, from Python
    ints). Sequences serve as finite axes as they are (a `range`, as codes).
    """

    def __init__(self, size: int | None, get: Callable | None = None,
                 draw: Callable | None = None, count: int | None = None):
        self.size = size
        self._get = get
        self.draw = draw  # sampled spaces: rng -> one case
        self.parts: Callable | None = None  # rng -> the parts that `build` makes a case of
        self.count = count
        self.width: int | None = None  # stackable sampled spaces: draws per case
        self.stack: Callable | None = None
        self.axes: tuple | None = None  # a product's axes and case builder
        self.build: Callable | None = None
        self.codes: Callable | None = None  # coded spaces: case numbers -> codes per part
        self.from_codes: Callable | None = None
        self.arity = 0

    def __len__(self) -> int:
        return self.size  # a TypeError on a sampled space

    def __getitem__(self, i: int):
        if not 0 <= i < self.size:  # which also ends `for case in space`
            raise IndexError(f"case {i} of a space of {self.size}")
        return self._get(i)

    @staticmethod
    def finite(items: Sequence) -> "CaseSpace":
        return CaseSpace(len(items), items.__getitem__)

    @staticmethod
    def coded(size: int, arity: int, codes: Callable, build: Callable) -> "CaseSpace":
        """Cases `build(*parts)`, where `codes(i)` maps an int64 array of case
        numbers to `arity` arrays of codes, one per part: a block gets the
        arrays, a single case their Python ints."""
        space = CaseSpace(size, lambda i: build(*(c.item() for c in codes(np.array([i])))))
        space.codes, space.from_codes, space.arity = codes, build, arity
        return space

    @staticmethod
    def sampled(draw: Callable, count: int | None = None,
                build: Callable | None = None) -> "CaseSpace":
        """Seeded cases `draw(rng)`; with `build`, `draw(rng)` gives a
        case's parts and the case is `build(*parts)`."""
        if build is None:
            return CaseSpace(None, draw=draw, count=count)
        space = CaseSpace(None, draw=lambda rng: build(*draw(rng)), count=count)
        space.parts, space.build = draw, build
        return space

    @staticmethod
    def carrier(group, count: int | None = None):
        """A group's elements, or seeded samples of an infinite group, which
        are stackable when the group has a stack sampler."""
        if group.is_finite:
            return group.elements
        space = CaseSpace.sampled(group.sample, count)
        if group.width is not None:
            space.width, space.stack = group.width, group.sample_stack
        return space

    @staticmethod
    def product(*axes, build: Callable | None = None) -> "CaseSpace":
        """Cases `build(*parts)` (a tuple by default), one part per axis; the
        last axis varies fastest, as in the nested loops it replaces."""
        build = build or (lambda *parts: parts)
        if any(_is_sampled(a) for a in axes):
            counts = [a.count if _is_sampled(a) else _size(a) for a in axes]
            draws = [_drawer(a) for a in axes]
            space = CaseSpace.sampled(lambda rng: [d(rng) for d in draws],
                                      None if None in counts else math.prod(counts), build)
            if all(_is_sampled(a) and a.stack is not None for a in axes):
                # a case draws its axes in turn, so a block's columns split per axis
                ends = list(itertools.accumulate(a.width for a in axes))
                space.width = ends[-1]
                space.stack = lambda u: build(*[a.stack(u[:, e - a.width:e])
                                                for a, e in zip(axes, ends)])
        else:
            sizes = [_size(a) for a in axes]
            n = len(axes)

            def get(i):
                parts = [None] * n
                for k in range(n - 1, -1, -1):
                    i, r = divmod(i, sizes[k])
                    parts[k] = axes[k][r]
                return build(*parts)

            space = CaseSpace(math.prod(sizes), get)
        space.axes, space.build = axes, build
        return space

    def plan(self, budget: int, rng) -> "Plan":
        """The cases a law checks: the whole finite space in order when it
        fits the budget (exhaustive); else `budget` seeded draws of
        `space[_index(rng, size)]`. A sampled space is drawn `count`
        times, or `budget` times; in a product, finite and counted axes are
        enumerated whole and one open sampled axis is drawn
        max(1, budget // their size) times. No cases when budget <= 0.
        Where the cases stack, they come as Blocks of at most BLOCK cases,
        with the RNG consumed as case-by-case draws consume it."""
        if budget <= 0:
            return Plan((), exhaustive=False, space=self.size)
        if self.size is not None:
            coded = _is_coded(self)
            if self.size <= budget:
                cases = _coded_blocks(self, range(self.size)) if coded else _cases(self)
                return Plan(cases, exhaustive=True, space=self.size)
            picks = _picks(rng, self.size, budget)
            if coded:
                return Plan(_coded_blocks(self, picks), exhaustive=False, space=self.size)
            # ints a block at a time, not a list beside the array
            ints = itertools.chain.from_iterable(
                picks[i:i + BLOCK].tolist() for i in range(0, budget, BLOCK))
            return Plan(map(self.__getitem__, ints), exhaustive=False, space=self.size)
        axes = self.axes or ()
        if any(not _is_sampled(a) or a.count is not None for a in axes):
            open_axes = [a for a in axes if _is_sampled(a) and a.count is None]
            if len(open_axes) > 1:
                raise ValueError("a product may sample at most one axis beside enumerated ones")
            counts = [a.count if _is_sampled(a) else _size(a) for a in axes]
            draws = max(1, budget // max(1, math.prod(c for c in counts if c is not None)))
            lists = [_draw_list(a, draws if c is None else c, rng) if _is_sampled(a) else a
                     for a, c in zip(axes, counts)]
            return Plan(_gathered(lists, self.build), exhaustive=False)
        if self.count is not None:
            return Plan(_gathered([_draw_list(self, self.count, rng)], lambda case: case),
                        exhaustive=False)
        return Plan(_blocks(self, budget, rng), exhaustive=False)


BLOCK = 512  # cases per block: a few hundred kB of SO(3) stacks per law


class Block:
    """`size` cases stacked along a first axis, and `singles`, which yields
    them one at a time (redrawn from the saved RNG state, if sampled). A
    plain class: a frozen dataclass adds about 1 ms to every CLI start."""
    __slots__ = ("cases", "size", "singles")

    def __init__(self, cases, size: int, singles: Callable):
        self.cases, self.size, self.singles = cases, size, singles


def _blocks(space: CaseSpace, budget: int, rng):
    """`budget` draws of an open sampled space, BLOCK at a time, which take
    the RNG exactly as per-case draws do: one (k, width) uniform array per
    block where the space has a stack sampler, else k per-case draws of its
    parts, from which the block is built once, stacked. A block's singles
    redraw from its saved RNG state and stop drawing where their rerun stops.
    Where a block's parts do not stack, the RNG goes back and every case
    left comes on its own."""
    parts, build = space.parts, space.build
    if parts is None:
        parts, build = (lambda rng: (space.draw(rng),)), (lambda case: case)
    for start in range(0, budget, BLOCK):
        k = min(BLOCK, budget - start)
        state = rng.bit_generator.state

        def redraw(state=state, k=k):
            rng.bit_generator.state = state
            return (space.draw(rng) for _ in range(k))

        if space.stack is not None:
            yield Block(space.stack(rng.random((k, space.width))), k, redraw)
            continue
        stacked = _stack([tuple(parts(rng)) for _ in range(k)])
        if stacked is None:
            yield from redraw(k=budget - start)
            return
        try:
            cases = build(*stacked)
        except CASE_ERRORS:
            yield from redraw()
            continue
        yield Block(cases, k, redraw)


def _draw_list(axis: CaseSpace, n: int, rng) -> list:
    """n draws of a counted or enumerated sampled axis, as a list of cases:
    one stack split into its cases where the axis has a stack sampler."""
    if axis.stack is None:
        return [axis.draw(rng) for _ in range(n)]
    block = axis.stack(rng.random((n, axis.width)))
    return [_take(block, i) for i in range(n)]


def _gathered(lists: list, build: Callable):
    """The product of finite lists in nested-loop order (last fastest), in
    Blocks of BLOCK gathered from each list stacked once; singles come from
    the lists. A product whose parts do not stack comes case by case."""
    stacked = [_stack(a) for a in lists]
    if any(s is None for s in stacked):
        yield from _cases(CaseSpace.product(*lists, build=build))
        return
    sizes = [len(a) for a in lists]
    total = math.prod(sizes)
    for start in range(0, total, BLOCK):
        i, picks = np.arange(start, min(start + BLOCK, total)), []
        for size in reversed(sizes):
            i, r = np.divmod(i, size)
            picks.append(r)
        picks.reverse()

        def singles(picks=picks):
            return (build(*(a[j] for a, j in zip(lists, js)))
                    for js in zip(*(r.tolist() for r in picks)))

        try:
            cases = build(*map(_take, stacked, picks))
        except CASE_ERRORS:
            yield from singles()
            continue
        yield Block(cases, len(picks[0]), singles)


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


def _is_coded(axis) -> bool:
    """`axis` is a range or a coded space; a finite product of such axes is
    made coded the first time this is asked."""
    if isinstance(axis, range):
        return True
    if not isinstance(axis, CaseSpace):
        return False
    if axis.codes is None and axis.size is not None and axis.axes and all(
            _is_coded(a) for a in axis.axes):
        _code_product(axis)
    return axis.codes is not None


def _code_product(space: CaseSpace) -> None:
    """Make a product of range axes and coded spaces coded: one vectorised
    divmod per axis, and each coded axis's codes in its place."""
    axes, build = space.axes, space.build
    sizes = [_size(a) for a in axes]
    arities = [1 if isinstance(a, range) else a.arity for a in axes]

    def codes(i):  # int64 case numbers, or Python ints in an object array past int64
        out = []  # last axis first
        for a, size in zip(reversed(axes), reversed(sizes)):
            i, r = i // size, i % size  # np.divmod has no object loop
            if isinstance(a, range):  # a residue is below len(a), so int64
                r = r.astype(np.int64, copy=False)
                out.append(r if a.start == 0 and a.step == 1 else a.start + a.step * r)
            else:
                out += reversed(a.codes(r))
        out.reverse()
        return out

    def from_codes(*parts):
        it = iter(parts)
        return build(*(next(it) if isinstance(a, range) else a.from_codes(*itertools.islice(it, n))
                       for a, n in zip(axes, arities)))

    space.codes, space.arity = codes, sum(arities)
    space.from_codes = build if space.arity == len(axes) else from_codes


def _coded_blocks(space: CaseSpace, indices):
    """Blocks of a coded space at `indices` (case numbers or picks), decoded
    at once, with singles built from the same codes. A block whose build
    raises a CASE_ERRORS error comes case by case, each raising in its turn."""
    for start in range(0, len(indices), BLOCK):
        chunk = indices[start:start + BLOCK]
        codes = space.codes(np.arange(chunk.start, chunk.stop)
                            if isinstance(chunk, range) else chunk)

        def singles(codes=codes):
            return itertools.starmap(space.from_codes, zip(*(c.tolist() for c in codes)))

        try:
            cases = space.from_codes(*codes)
        except CASE_ERRORS:
            yield from singles()
            continue
        yield Block(cases, len(chunk), singles)


def _picks(rng, size: int, budget: int) -> np.ndarray:
    """`budget` draws of `_index(rng, size)`, in one call below 2**63, where
    every axis size fits int64 arithmetic too: the same values and generator
    state as per-draw calls."""
    if size < 2**63:
        return rng.integers(size, size=budget)
    return np.array([_index(rng, size) for _ in range(budget)], dtype=object)


def _is_sampled(axis) -> bool:
    return isinstance(axis, CaseSpace) and axis.size is None


def _size(axis) -> int:
    """The size of a finite axis: a space's `size`, which unlike `len` is not
    capped at sys.maxsize, or a sequence's length."""
    return axis.size if isinstance(axis, CaseSpace) else len(axis)


def _drawer(axis) -> Callable:
    """rng -> one seeded case of `axis`, uniform over a finite one."""
    if _is_sampled(axis):
        return axis.draw
    size = _size(axis)
    return lambda rng: axis[_index(rng, size)]


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


def _cases(space):
    """Every case of a finite space or sequence, in order, as nested loops:
    each nested space is listed once rather than decoded per case."""
    if not isinstance(space, CaseSpace):
        return iter(space)
    if not space.size:
        return iter(())
    if space.axes is not None:
        lists = [list(_cases(a)) if isinstance(a, CaseSpace) else a for a in space.axes]
        return itertools.starmap(space.build, itertools.product(*lists))
    return map(space.__getitem__, range(space.size))


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
    elapsed_ms: float = 0.0
    space: int | None = None  # case-space size, None if infinite; not serialized

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

    On a Block, `ok` gives a per-case mask, and the first False at index i
    counts i + 1 checks: only that case is rebuilt from `singles` (a sampled
    block redraws i + 1 cases, so the RNG stands where a case-by-case run
    leaves it) and checked on its own. A block that raises one of the two
    errors is checked case by case."""
    t0 = time.perf_counter()
    n, found = 0, None
    for item in plan:
        cases = (item,)
        if isinstance(item, Block):
            try:
                mask = np.broadcast_to(ok(item.cases), (item.size,))
            except CASE_ERRORS:
                cases = item.singles()
            else:
                if mask.all():
                    n += item.size
                    continue
                first = int(mask.argmin())
                n += first
                cases = itertools.islice(item.singles(), first, None)
        for case in cases:
            n += 1
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
                     elapsed_ms=(time.perf_counter() - t0) * 1000.0, space=plan.space)
