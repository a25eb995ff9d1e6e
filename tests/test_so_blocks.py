"""Sampled SO(n) laws run on blocks of stacked cases: a failing SO(3) module
pinned by committed goldens (drawn by numpy's generator and by catbundle's
Stream), passing modules whose every block holds whole, block draws against
per-case draws, the carrier probe on one block, run_law's case-by-case rerun
of a failing block, and the stacked group operations."""
import math
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from catbundle.basecat import PathCategory, QuiverCategory
from catbundle.bundle import verify_prop31_roundtrip
from catbundle.crossed import (
    CompositionUndefined,
    CrossedModule,
    _check_carriers,
    get_module,
    verify_crossed_module,
    verify_exchange_law,
)
from catbundle.groups import SpecialOrthogonalGroup, StructuralError
from catbundle.report import FINITE_BLOCK, Block, CaseSpace, _drawn_axis, run_law
from catbundle.stream import Stream
from catbundle.twisted import EtaMap, TwistedBundle, composable_chains
from per_case import law_streams, per_case_plans, whole_blocks

GOLDEN = Path(__file__).resolve().parent / "golden"


def alpha_mutant(threshold: float) -> CrossedModule:
    """The SO(3) conjugation module, except that alpha_g(h) = h wherever
    h[0, 0] > threshold: the axioms fail only on some sampled cases, so the
    first witness lies deep in the sampled stream."""
    G = SpecialOrthogonalGroup(3)

    def alpha(g, h):
        conj = G.mul(G.mul(g, h), G.inv(g))
        return np.where((h[..., 0, 0] > threshold)[..., None, None], h, conj)

    return CrossedModule(f"so3-alpha-mutant-{threshold}", G, G, alpha, lambda h: h)


def mutant_jsonl(threshold: float, make=np.random.default_rng) -> str:
    cm = alpha_mutant(threshold)
    streams = law_streams(1, make)
    return (verify_crossed_module(cm, 3000, streams, make(1)).to_jsonl()
            + verify_exchange_law(cm, 3000, streams).to_jsonl())


# at 0.99 the failing laws stop at checks 27 to 338; at 0.999
# alpha-automorphism fails at check 932 and peiffer at check 2180; the
# witnesses lie deep in each law's sampled stream, which catbundle's own
# Stream must draw as numpy's generator does
@pytest.mark.parametrize("make", [np.random.default_rng, Stream], ids=["numpy", "stream"])
@pytest.mark.parametrize("threshold", [0.99, 0.999])
def test_failing_so3_module_matches_its_golden(threshold, make):
    golden = GOLDEN / f"so3_alpha_mutant_{threshold}.jsonl"
    assert mutant_jsonl(threshold, make) == golden.read_text()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_so_module_laws_pass_in_whole_blocks(n, seed, monkeypatch):
    seen = whole_blocks(monkeypatch)
    cm = get_module(f"so{n}-conj")
    assert verify_crossed_module(cm, 3000, law_streams(seed, Stream), Stream(seed)).passed
    assert verify_exchange_law(cm, 3000, law_streams(seed, Stream)).passed
    assert len(seen) == 8 and all(counts == [1, 0] for counts in seen.values())


# -- block draws --

def _reference_sample(n: int, rng) -> np.ndarray:
    """One SO(n) sample in plain Python floats: I plus exp - I of a uniform
    angle, or Rodrigues' formula on a uniform rotation vector, 1 - cos taken
    as 2·sin^2(theta/2); squares are written as products."""
    if n == 2:
        t = float(rng.uniform(-math.pi, math.pi))
        s, half = math.sin(t), math.sin(t / 2)
        cm1 = -2.0 * (half * half)
        return np.eye(2) + np.array([[cm1, -s], [s, cm1]])
    x, y, z = (float(v) for v in rng.uniform(-math.pi, math.pi, size=3))
    xx, yy, zz = x * x, y * y, z * z
    theta2 = xx + yy + zz
    theta = math.sqrt(theta2) + (theta2 == 0)
    half = math.sin(theta / 2) / theta
    c1, c2 = math.sin(theta) / theta, 2.0 * (half * half)
    xy, xz, yz = c2 * x * y, c2 * x * z, c2 * y * z
    return np.eye(3) + np.array([[-c2 * (yy + zz), xy - c1 * z, xz + c1 * y],
                                 [xy + c1 * z, -c2 * (xx + zz), yz - c1 * x],
                                 [xz - c1 * y, yz + c1 * x, -c2 * (xx + yy)]])


def _slot_spaces(n: int, slots: str) -> CaseSpace:
    cm = get_module(f"so{n}-conj")
    carriers = {"g": CaseSpace.carrier(cm.G), "h": CaseSpace.carrier(cm.H)}
    return CaseSpace.product(*(carriers[s] for s in slots))


def _bits(stack) -> bytes:
    return np.ascontiguousarray(stack).tobytes()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("slots", ["hh", "ghh", "hghg", "hghhgh"])
def test_block_draws_equal_per_case_draws_bitwise(n, slots):
    space = _slot_spaces(n, slots)
    budget = FINITE_BLOCK + 904
    block_rng, case_rng, ref_rng = (np.random.default_rng(7) for _ in range(3))
    blocks = list(space.plan(budget, block_rng))
    assert all(isinstance(b, Block) for b in blocks)
    assert [b.size for b in blocks] == [FINITE_BLOCK, 904]
    with per_case_plans():
        cases = list(space.plan(budget, case_rng))
    reference = [tuple(_reference_sample(n, ref_rng) for _ in slots) for _ in range(budget)]
    for axis in range(len(slots)):
        block_axis = np.concatenate([b.cases[axis] for b in blocks])
        assert _bits(block_axis) == _bits([c[axis] for c in cases])
        assert _bits(block_axis) == _bits([c[axis] for c in reference])
    # a block consumes exactly the draws of its cases
    assert block_rng.bit_generator.state == case_rng.bit_generator.state
    assert block_rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [2, 3])
def test_counted_axes_drawn_as_one_stack_equal_per_case_samples_bitwise(n):
    # a counted SO(n) axis of a product is drawn as one array of uniforms,
    # and each case is built from its row
    cm = get_module(f"so{n}-conj")
    for axis, sample in ((CaseSpace.carrier(cm.G, 500), lambda rng: (cm.G.sample(rng),)),
                         (cm.morphism_space(500), lambda rng: astuple(cm.sample_morphism(rng)))):
        stack_rng, case_rng = np.random.default_rng(9), np.random.default_rng(9)
        drawn = list(_drawn_axis(axis, 500, stack_rng))
        reference = [sample(case_rng) for _ in range(500)]
        flat = [(m,) if isinstance(m, np.ndarray) else astuple(m) for m in drawn]
        assert _bits(flat) == _bits(reference)
        assert stack_rng.bit_generator.state == case_rng.bit_generator.state


def _probe_pair_by_pair(cm: CrossedModule, rng, n: int = 64) -> str | None:
    """The carrier probe one (g, h) pair at a time: its first error."""
    for _ in range(n):
        g, h = cm.G.sample(rng), cm.H.sample(rng)
        if not cm.G.contains(cm.tau(h)):
            return f"tau({cm.H.fmt(h)}) is not an element of {cm.G.name}"
        if not cm.H.contains(cm.alpha(g, h)):
            return f"alpha_{cm.G.fmt(g)}({cm.H.fmt(h)}) is not an element of {cm.H.name}"
    return None


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("tau_at, alpha_at", [(2.0, 2.0), (0.9, 0.95), (0.95, 0.9), (0.97, 2.0)])
def test_so_carrier_probe_draws_one_block_and_raises_the_first_error(tau_at, alpha_at, seed):
    # tau leaves SO(3) (scaled by 2) where h[1, 1] > tau_at, alpha (negated,
    # so det -1) where h[0, 0] > alpha_at: the first bad pair decides
    G = SpecialOrthogonalGroup(3)

    def alpha(g, h):
        conj = G.mul(G.mul(g, h), G.inv(g))
        return np.where((h[..., 0, 0] > alpha_at)[..., None, None], -conj, conj)

    def tau(h):
        return np.where((h[..., 1, 1] > tau_at)[..., None, None], 2 * h, h)

    cm = CrossedModule("so3-bad-carriers", G, G, alpha, tau)
    stacked, one_by_one = Stream(seed), Stream(seed)
    want = _probe_pair_by_pair(cm, one_by_one)
    if want is None:
        _check_carriers(cm, stacked)
        assert stacked.bit_generator.state == one_by_one.bit_generator.state
    else:
        with pytest.raises(StructuralError) as exc:
            _check_carriers(cm, stacked)
        assert str(exc.value) == want


def test_which_plans_come_in_blocks():
    # every coded space, open stackable space and product of counted axes
    # whose cases stack comes in blocks; there is no switch
    rng = np.random.default_rng(0)
    so2 = get_module("so2-conj").G
    assert all(isinstance(c, Block) for c in _slot_spaces(2, "hh").plan(600, rng))
    # int-coded (range) axes come in blocks; a listed finite axis does not
    s3 = get_module("s3-conj").G
    coded = CaseSpace.product(s3.elements, range(2))
    assert all(isinstance(c, Block) for c in coded.plan(600, rng))
    listed = CaseSpace.product(list(s3.elements), range(2))
    assert list(listed.plan(600, rng)) == [(g, i) for g in range(6) for i in range(2)]
    counted = CaseSpace.product(CaseSpace.carrier(so2, 4), CaseSpace.carrier(so2))
    assert all(isinstance(c, Block) for c in counted.plan(600, rng))
    # a finite carrier's draws on a path base stack as SO(n) ones do
    z4, line = get_module("z4-conj"), PathCategory(1)
    chains = composable_chains(TwistedBundle(line, z4, EtaMap.trivial(line, z4)), 2)
    blocks = list(chains.plan(50, rng))
    assert len(blocks) == 1 and isinstance(blocks[0], Block)
    h1 = blocks[0].cases[1].m.h
    assert h1.dtype == np.int64 and h1.tolist() == [c[1].m.h for c in blocks[0].singles()]
    # every drawn part stacks, or the plan refuses it
    unstackable = CaseSpace.product(CaseSpace.sampled(lambda r: r.random()), CaseSpace.carrier(so2))
    with pytest.raises(ValueError, match=r"draw\[0\] is a float, which does not stack"):
        unstackable.plan(600, rng)


# -- run_law on blocks --

def _records_equal(a, b):
    keys = ("law", "anchor", "status", "checks", "exhaustive", "witness", "space")
    return all(getattr(a, k) == getattr(b, k) for k in keys)


@pytest.mark.parametrize("threshold", [0.5, 0.99, 0.999, 2.0])
def test_block_run_matches_the_per_case_run(threshold):
    space = _slot_spaces(3, "hh")
    stacked_calls = []

    def ok(t):
        if t[0].ndim == 3:
            stacked_calls.append(len(t[0]))
        return t[0][..., 0, 0] <= threshold

    def witness(t):
        return {"h": SpecialOrthogonalGroup(3).fmt(t[0])}

    block_rng, case_rng = np.random.default_rng(11), np.random.default_rng(11)
    plan = space.plan(3000, block_rng)
    drawn = block_rng.bit_generator.state
    got = run_law("law", "anchor", plan, ok, witness)
    with per_case_plans():
        want = run_law("law", "anchor", space.plan(3000, case_rng), ok, witness)
    assert _records_equal(got, want)
    # the plan drew every case up front: checking them draws nothing more
    assert block_rng.bit_generator.state == drawn == case_rng.bit_generator.state
    # every block up to the failing one was checked in one call
    failed_block = (want.checks - 1) // FINITE_BLOCK if want.witness else len(stacked_calls) - 1
    assert len(stacked_calls) == failed_block + 1
    assert not want.passed or want.checks == 3000


def test_block_that_raises_is_rerun_and_reports_the_error():
    space = _slot_spaces(2, "hh")

    def ok(t):
        if np.any(t[0][..., 0, 0] > 0.99999):  # first at check 1016 of seed 1
            raise CompositionUndefined("target != source")
        return True

    block_rng, case_rng = np.random.default_rng(1), np.random.default_rng(1)
    got = run_law("law", "anchor", space.plan(3000, block_rng), ok, lambda t: {})
    with per_case_plans():
        want = run_law("law", "anchor", space.plan(3000, case_rng), ok, lambda t: {})
    assert got.witness == {"error": "CompositionUndefined: target != source"}
    assert _records_equal(got, want) and got.checks == 1016
    # the one block of 3000 is searched by halves: 1 + ceil(log2(3000)) checks
    assert got.blocks <= 13 and got.singles == 1


@pytest.mark.parametrize("bad", [1, 777, 2050, 2999])
def test_a_build_error_in_a_drawn_block_is_found_by_halves(bad):
    # a drawn SO(3) space whose build raises on any stack holding draw `bad`:
    # its one block of 3000 is searched by halves, and only that case is
    # checked on its own
    G = SpecialOrthogonalGroup(3)
    u_bad = np.random.default_rng(4).random((3000, G.width))[bad]

    def build(u):
        if np.any(np.all(u == u_bad, axis=-1)):
            raise StructuralError("cannot build this draw")
        return G.sample_stack(u)

    space = CaseSpace(None, build, width=G.width)
    record = run_law("law", "anchor", space.plan(3000, np.random.default_rng(4)),
                     lambda h: G.contains_stack(h) if np.ndim(h) == 3 else G.contains(h),
                     lambda h: {})
    assert record.witness == {"error": "StructuralError: cannot build this draw"}
    assert record.checks == bad + 1
    assert record.blocks <= math.ceil(math.log2(3000)) + 1 and record.singles == 1


@pytest.mark.parametrize("name", ["so2-conj", "so3-conj"])
def test_so_suites_check_each_block_once(name, monkeypatch):
    cm = get_module(name)
    calls = []
    mul = SpecialOrthogonalGroup.mul
    monkeypatch.setattr(SpecialOrthogonalGroup, "mul",
                        lambda self, a, b: calls.append(np.ndim(a)) or mul(self, a, b))
    report = verify_crossed_module(cm, 3000, law_streams(0), np.random.default_rng(0))
    report.extend(verify_exchange_law(cm, 3000, law_streams(0)))
    assert report.passed and all(r.checks == 3000 for r in report.records)
    # each of the 8 laws checks its 3000 cases as one block, a few stacked
    # products each (a per-case run makes thousands); 2-D calls take the
    # identity as an operand
    assert calls.count(2) < 16 and 8 <= calls.count(3) < 100


@pytest.mark.parametrize("name", ["so2-conj", "so3-conj"])
def test_prop31_laws_check_each_block_in_one_call(name, monkeypatch):
    # a block of sampled object maps is one functor whose tables hold
    # stacks: a case-by-case run makes 28 672 single multiplications on
    # SO(3); here only the few of identity values by identity values are
    cm = get_module(name)
    base = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)
    calls = []
    mul = SpecialOrthogonalGroup.mul
    monkeypatch.setattr(SpecialOrthogonalGroup, "mul",
                        lambda self, a, b: calls.append(max(np.ndim(a), np.ndim(b))) or mul(self, a, b))
    report = verify_prop31_roundtrip(base, cm, 3000, np.random.default_rng(0))
    assert report.passed and [r.checks for r in report.records] == [256] * 3
    assert calls.count(3) > 50 and calls.count(2) < 10


# -- stacked group operations --

@pytest.mark.parametrize("n", [2, 3])
def test_stacked_mul_and_inv_equal_per_matrix_results(n):
    G = SpecialOrthogonalGroup(n)
    rng = np.random.default_rng(5)
    a, b = (G.sample_stack(rng.random((64, G.width))) for _ in range(2))
    assert _bits(G.mul(a, b)) == _bits([G.mul(x, y) for x, y in zip(a, b)])
    assert _bits(G.inv(a)) == _bits([G.inv(x) for x in a])
    assert _bits(G.inv(a[0])) == _bits(a[0].T)


def test_inv_of_a_stack_transposes_each_matrix():
    G = SpecialOrthogonalGroup(3)
    a = np.arange(2 * 3 * 3, dtype=float).reshape(2, 3, 3)
    inv = G.inv(a)
    assert inv.shape == (2, 3, 3) and inv.flags.c_contiguous
    assert all(np.array_equal(inv[i], a[i].T) for i in range(2))


@pytest.mark.parametrize("n", [2, 3])
def test_eq_on_a_stack_is_every_case_equal(n):
    # a per-case mask on stacks, which holds for every case exactly when
    # every case is equal; a plain bool on two elements
    G = SpecialOrthogonalGroup(n)
    a = G.sample_stack(np.random.default_rng(6).random((16, G.width)))

    def per_case(x, y):
        return [G.eq(u, v) for u, v in zip(x, y)]

    near, far, nan = a + 1e-11, a.copy(), a.copy()
    far[9, 0, 1] += 1e-6
    nan[4, 1, 1] = np.nan
    for other, fails in ((a, []), (near, []), (far, [9]), (nan, [4])):
        mask = G.eq(a, other)
        assert mask.shape == (16,) and mask.tolist() == per_case(a, other)
        assert np.flatnonzero(~mask).tolist() == fails
    assert all(type(x) is bool for x in per_case(a, far))
    # a single element broadcasts against a stack
    assert G.eq(G.identity, np.stack([G.identity] * 3)).tolist() == [True] * 3
    assert not G.eq(G.identity, a).any()


@pytest.mark.parametrize("n", [2, 3])
def test_sample_is_the_one_element_stack(n):
    G = SpecialOrthogonalGroup(n)
    one, stack = np.random.default_rng(9), np.random.default_rng(9)
    singles = [G.sample(one) for _ in range(20)]
    assert _bits(singles) == _bits(G.sample_stack(stack.random((20, G.width))))
    assert all(G.contains(x) for x in singles)
