"""Finite laws run on blocks of int-coded cases: a failing S3 module pinned by
committed goldens, int codes and their parsing, table lookups on arrays as
one-index gathers, finite samples as one-element stacks, non-codes in
alpha, tau and eta tables, one-call picks, block plans against per-case plans, run_law's case-by-case
rerun of a failing block and its search by halves for a failure deep in a
big block, and the prop34 GU laws on blocks of functor and transformation
codes."""
import itertools
import math
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import catbundle.report
import catbundle.suites
from catbundle.basecat import QuiverCategory
from catbundle.bundle import NatTransf, enumerate_functors, gauge, verify_GU_categorical_group
from catbundle.crossed import (
    CrossedModule,
    catalog,
    get_module,
    verify_crossed_module,
    verify_exchange_law,
)
from catbundle.groups import CyclicGroup, FiniteGroup, StructuralError, SymmetricGroup, gather
from catbundle.report import FINITE_BLOCK, Block, CaseSpace, run_law
from catbundle.scenario import Scenario, ScenarioError, parse_element
from catbundle.stream import Stream
from catbundle.suites import run_suite
from catbundle.twisted import (
    EtaMap,
    TwistedBundle,
    verify_action_functorial,
    verify_E_properties,
    verify_twisted_bundle,
)
from per_case import law_streams, per_case_plans

GOLDEN = Path(__file__).resolve().parent / "golden"
SCEN = Path(__file__).resolve().parents[1] / "scenarios"
ARROW = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=2)
CHAIN = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)
FINITE_MODULES = [name for name, cm in catalog().items() if cm.is_finite]


def alpha_mutant() -> CrossedModule:
    """The S3 conjugation module with one perturbed alpha entry:
    alpha_g(h) = e for g = elements[5], h = elements[3] (conjugation gives
    elements[4] there)."""
    G = SymmetricGroup(3)
    g0, h0, e = G.elements[5], G.elements[3], G.identity

    def alpha(g, h):
        return e if G.eq(g, g0) and G.eq(h, h0) else G.mul(G.mul(g, h), G.inv(g))

    return CrossedModule("s3-alpha-mutant", G, G, alpha, lambda h: h)


def mutant_jsonl(budget: int) -> str:
    cm = alpha_mutant()
    return (verify_crossed_module(cm, budget, law_streams(1)).to_jsonl()
            + verify_exchange_law(cm, budget, law_streams(1)).to_jsonl())


# 200 and 1000 sample the larger spaces (exchange-law has 6**6 cases); at 46656
# every law is exhaustive and exchange-law first fails at case 6519
@pytest.mark.parametrize("budget", [200, 1000, 46656])
def test_failing_s3_module_matches_its_golden(budget):
    golden = GOLDEN / f"s3_alpha_mutant_{budget}.jsonl"
    assert mutant_jsonl(budget) == golden.read_text()


# 300 samples every law; at 3000 the functor pairs and the transformations are
# exhaustive and first fail at checks 1084 and 184, and morphism-product-closure
# fails on a CompositionUndefined raised inside its check
@pytest.mark.parametrize("budget", [300, 3000])
def test_failing_s3_module_matches_its_gu_golden(budget):
    golden = GOLDEN / f"s3_alpha_mutant_gu_{budget}.jsonl"
    report = verify_GU_categorical_group(ARROW, alpha_mutant(), budget, law_streams(1))
    assert report.to_jsonl() == golden.read_text()


# -- int codes --

FINITE = {"z2": CyclicGroup(2), "z4": CyclicGroup(4), "z5": CyclicGroup(5),
          "s3": SymmetricGroup(3), "s4": SymmetricGroup(4)}


@pytest.mark.parametrize("name", sorted(FINITE))
def test_parse_element_inverts_fmt(name):
    G = FINITE[name]
    assert G.elements == range(len(G.values))
    for x in G.elements:
        assert parse_element(G, G.fmt(x)) == x and type(parse_element(G, G.fmt(x))) is int


@pytest.mark.parametrize("name", sorted(FINITE))
def test_parse_element_refuses_non_elements(name):
    G = FINITE[name]
    bad = [-1, len(G.values), True, "x"]
    if isinstance(G, SymmetricGroup):
        bad += [[0] * G.n, "(0 9)", list(range(G.n + 1)), "(0 \u0662)", "(0 +2)", "(0 02)", "(0 -1)"]
    for value in bad:
        with pytest.raises(ScenarioError, match=re.escape(f"{G.name} element 'functors.f.a")):
            parse_element(G, value, "functors.f.a")


# -- table lookups on arrays of codes --

@pytest.mark.parametrize("name", ["z4-conj", "s3-conj", "z2-s3-broken", "z4-z2"])
def test_table_lookups_on_arrays_equal_per_code_lookups(name):
    cm = get_module(name)
    G, H = cm.G, cm.H
    rng = np.random.default_rng(4)
    g, g2 = rng.integers(len(G.values), size=(2, 64))
    h, h2 = rng.integers(len(H.values), size=(2, 64))
    for got, want in (
            (G.mul(g, g2), [G.mul(a, b) for a, b in zip(g.tolist(), g2.tolist())]),
            (H.mul(h, h2), [H.mul(a, b) for a, b in zip(h.tolist(), h2.tolist())]),
            (G.inv(g), [G.inv(a) for a in g.tolist()]),
            (H.mul(H.identity, h), h.tolist()),
            (cm.alpha(g, h), [cm.alpha(a, b) for a, b in zip(g.tolist(), h.tolist())]),
            (cm.alpha(G.identity, h), h.tolist()),
            (cm.tau(h), [cm.tau(a) for a in h.tolist()])):
        assert isinstance(got, np.ndarray) and got.tolist() == want


@pytest.mark.parametrize("name", FINITE_MODULES)
def test_one_index_gathers_equal_the_2d_tables(name):
    # every code pair of both Cayley tables and of alpha, and every code of tau
    cm = get_module(name)
    for table, lookup in ((cm.G.mul_table, cm.G.mul), (cm.H.mul_table, cm.H.mul),
                          (cm.alpha_table, cm.alpha)):
        a, b = np.indices(table.shape).reshape(2, -1)
        want = [table[x, y] for x, y in zip(a.tolist(), b.tolist())]
        assert gather(table, a, b).tolist() == want
        assert lookup(a, b).tolist() == want == [lookup(x, y) for x, y in zip(a.tolist(), b.tolist())]
    h = np.arange(cm.H.order)
    assert cm.tau(h).tolist() == cm.tau_table.tolist() == [cm.tau(x) for x in h.tolist()]


@pytest.mark.parametrize("G", [SymmetricGroup(3), CyclicGroup(4)], ids=["s3", "z4"])
def test_finite_sample_is_the_one_element_stack(G):
    # one uniform u per element gives code floor(u * order): a (k, 1) block
    # gives, as int64 codes, those of k `sample` calls, each a Python int
    one, stack = np.random.default_rng(9), np.random.default_rng(9)
    singles = [G.sample(one) for _ in range(200)]
    block = G.sample_stack(stack.random((200, G.width)))
    assert all(type(x) is int for x in singles) and set(singles) == set(G.elements)
    assert block.dtype == np.int64 and block.shape == (200,) and block.tolist() == singles
    # u = j / order opens code j's interval, and the largest draw below 1 is the last code
    j = np.arange(G.order)
    assert G.sample_stack((j / G.order)[:, None]).tolist() == j.tolist()
    assert [G.sample_stack(np.array([x / G.order])) for x in j.tolist()] == j.tolist()
    assert G.sample_stack(np.array([np.nextafter(1.0, 0.0)])) == G.order - 1


def test_composite_gathers_read_the_widened_table():
    # on a loop, composites of blocks pass word_bound: each new composite
    # widens the composite table, and a gather after that (within the same
    # block, and in later blocks) reads the new width
    loop = QuiverCategory(["a"], [("l", "a", "a")], word_bound=1)
    rng = np.random.default_rng(7)
    widths = [len(loop.codes())]
    for _ in range(6):
        top = len(loop._coded)
        m2, m1 = rng.integers(top, size=(2, 16))
        out = loop.compose(m2, m1)
        for c2, c1, c in zip(m2.tolist(), m1.tolist(), out.tolist()):
            assert loop.morphism(c) == loop.compose(loop.morphism(c2), loop.morphism(c1))
        assert loop.compose(m2, m1).tolist() == out.tolist()
        widths.append(loop._composite.shape[1])
    assert widths[-1] > widths[1] > widths[0] == 2
    assert loop._composite.shape == (len(loop._coded),) * 2


# -- a non-code in alpha, tau or eta --

def _s3_with(alpha_at=None, tau_at=None):
    """The S3 conjugation module with alpha_1(2) or tau(2) set to a given
    int."""
    S3, conj = SymmetricGroup(3), get_module("s3-conj")
    return CrossedModule(
        "s3-off", S3, S3,
        lambda g, h: alpha_at if alpha_at is not None and (g, h) == (1, 2) else conj.alpha(g, h),
        lambda h: tau_at if tau_at is not None and h == 2 else h)


def _fails_structurally(run, error: str):
    """Run a verify call in blocks and case by case: the same records, with
    a failing law, and `error` as every failing law's witness."""
    got = run()
    with per_case_plans():
        want = run()
    assert got.to_jsonl() == want.to_jsonl()
    failed = [r for r in got.records if not r.passed]
    assert failed and all(r.witness == {"error": f"StructuralError: {error}"} for r in failed)


@pytest.mark.parametrize("value", [6, 7, -1, -6])
def test_a_non_code_of_alpha_cannot_be_built(value):
    # the whole table is checked at construction, so no seed, suite or
    # sample can miss (g, h) = (1, 2)
    with pytest.raises(StructuralError, match=re.escape("alpha_(1 2)((0 1)) is not an element of s3")):
        _s3_with(alpha_at=value)


@pytest.mark.parametrize("value", [6, -1])
def test_a_non_code_of_tau_cannot_be_built(value):
    with pytest.raises(StructuralError, match=re.escape("tau((0 1)) is not an element of s3")):
        _s3_with(tau_at=value)


def test_a_non_code_of_tau_is_named_before_one_of_alpha():
    with pytest.raises(StructuralError, match=re.escape("tau((0 1)) is not an element of s3")):
        _s3_with(alpha_at=6, tau_at=6)


def test_every_catalog_module_builds():
    for name, cm in catalog().items():
        assert cm.name == name
        if cm.is_finite:
            assert 0 <= cm.alpha_table.min() <= cm.alpha_table.max() < cm.H.order
            assert 0 <= cm.tau_table.min() <= cm.tau_table.max() < cm.G.order


class _NoDraws:
    """A stream stub that fails a test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"the shared stream was asked for {name!r}")


def test_the_crossed_module_suite_on_a_finite_module_draws_no_shared_stream(monkeypatch):
    class Streams(catbundle.suites.LawStreams):
        def __init__(self, seed, suite):
            super().__init__(seed, suite)
            self.shared = _NoDraws()

    sc = Scenario.load(SCEN / "s3_quiver.json")
    want = run_suite(sc, "crossed-module").to_jsonl()
    monkeypatch.setattr(catbundle.suites, "LawStreams", Streams)
    assert run_suite(sc, "crossed-module").to_jsonl() == want


@pytest.mark.parametrize("word", [(), ("g",)])
@pytest.mark.parametrize("value", [4, 9, -1])
def test_a_non_code_of_a_raw_eta_fails_its_laws(word, value):
    z4 = get_module("z4-conj")
    eta = EtaMap.from_raw(CHAIN, z4, {(): 0, ("f",): 1, ("g",): 2, word: value}, default=0)
    bundle = TwistedBundle(CHAIN, z4, eta)
    at = repr(CHAIN.morphisms_upto()[0] if not word else CHAIN.arrow("g"))

    def run():
        report = verify_twisted_bundle(bundle, 20_000, law_streams(0))
        report.extend(verify_E_properties(bundle, 20_000, law_streams(0)))
        return report.extend(verify_action_functorial(bundle, 20_000, law_streams(0)))

    _fails_structurally(run, f"{value} at {at} is not an element of z4")


def test_eq_on_arrays_is_every_case_equal():
    # a per-case mask on arrays, which holds for every case exactly when
    # every case is equal; a plain bool on two codes
    G = SymmetricGroup(3)
    a = np.arange(12) % 6
    b = a.copy()
    b[7] = (b[7] + 1) % 6
    assert G.eq(a, a.copy()).tolist() == [True] * 12
    assert np.flatnonzero(~G.eq(a, b)).tolist() == [7]
    assert G.eq(0, np.zeros(5, dtype=np.int64)).tolist() == [True] * 5
    assert G.eq(0, a).tolist() == (a == 0).tolist()
    assert G.eq(3, 3) is True and G.eq(3, 4) is False


# -- one-call picks and block plans --

@pytest.mark.parametrize("size", [6, 7, 36, 1296, 46656, 2**31, 2**32 - 1, 2**32, 2**32 + 1,
                                  10**12, 2**62 + 3, 2**63 - 1, 2**63, 2**63 + 1, 10**20, 3 * 2**64])
def test_one_call_picks_equal_per_draw_picks(size):
    # a sampled plan picks its case numbers in one `integers` call
    one, per = Stream(12), Stream(12)
    picks = one.integers(size, size=1000)
    assert picks.tolist() == [int(per.integers(size)) for _ in range(1000)]
    assert all(0 <= i < size for i in picks.tolist())
    assert one.bit_generator.state == per.bit_generator.state


def _coded(slots: str) -> CaseSpace:
    cm = get_module("s3-conj")
    carriers = {"g": CaseSpace.carrier(cm.G), "h": CaseSpace.carrier(cm.H)}
    return CaseSpace.product(*(carriers[s] for s in slots))


@pytest.mark.parametrize("slots, budget", [("hh", 100), ("hghg", 1296), ("hghg", 1000),
                                           ("hghhgh", 3000), ("hghhgh", 46656)])
def test_block_plan_decodes_the_per_case_plan(slots, budget):
    space = _coded(slots)
    block_rng, case_rng = np.random.default_rng(5), np.random.default_rng(5)
    block_plan = space.plan(budget, block_rng)
    with per_case_plans():
        case_plan = space.plan(budget, case_rng)
        cases = list(case_plan)
    assert (block_plan.exhaustive, block_plan.space) == (case_plan.exhaustive, case_plan.space)
    blocks = list(block_plan)
    assert all(isinstance(b, Block) for b in blocks)
    sizes = [min(FINITE_BLOCK, len(cases) - i) for i in range(0, len(cases), FINITE_BLOCK)]
    assert [b.size for b in blocks] == sizes
    for axis in range(len(slots)):
        block_axis = np.concatenate([b.cases[axis] for b in blocks])
        assert block_axis.tolist() == [c[axis] for c in cases]
    singles = [c for b in blocks for c in b.singles()]
    assert singles == cases and all(type(x) is int for c in singles + cases for x in c)
    assert block_rng.bit_generator.state == case_rng.bit_generator.state


def _records_equal(a, b):
    keys = ("law", "anchor", "status", "checks", "exhaustive", "witness", "space")
    return all(getattr(a, k) == getattr(b, k) for k in keys)


@pytest.mark.parametrize("budget", [20000, 46656])
@pytest.mark.parametrize("depth", [0, 2, 3, 4, 5])
def test_block_run_matches_the_per_case_run(budget, depth):
    """A check that fails where the first `depth` parts of a case are
    (5, 4, 3, 2, 1) (never, for depth 0): the block run gives the per-case
    record, the per-case values are Python ints, and the generator stands
    where the per-case run leaves it, also after a failure."""
    space = _coded("hghhgh")
    target = (5, 4, 3, 2, 1)[:depth]
    scalar_types = set()

    def ok(t):
        hit = depth > 0
        for part, want in zip(t, target):
            hit = hit & (np.asarray(part) == want)
        if not isinstance(t[0], np.ndarray):
            scalar_types.update(type(x) for x in t)
        return np.logical_not(hit)

    def witness(t):
        assert not isinstance(t[0], np.ndarray)
        return {"case": list(t)}

    block_rng, case_rng = np.random.default_rng(8), np.random.default_rng(8)
    got = run_law("law", "anchor", space.plan(budget, block_rng), ok, witness)
    with per_case_plans():
        want = run_law("law", "anchor", space.plan(budget, case_rng), ok, witness)
    assert _records_equal(got, want) and want.passed == (depth == 0)
    assert block_rng.bit_generator.state == case_rng.bit_generator.state
    assert scalar_types <= {int}
    # one check per block up to the failing one (or all of them), and only
    # the failing case on its own
    assert got.blocks == (want.checks - 1) // FINITE_BLOCK + 1
    assert got.singles == (not want.passed) and want.blocks == 0


def test_failures_lie_in_first_and_later_blocks():
    # the cases above fail in the first block and in later ones, sampled and exhaustive
    space = _coded("hghhgh")
    firsts = set()
    for budget in (20000, 46656):
        for depth in (2, 3, 4, 5):
            target = (5, 4, 3, 2, 1)[:depth]
            with per_case_plans():
                plan = list(space.plan(budget, np.random.default_rng(8)))
            first = next(i for i, c in enumerate(plan) if c[:depth] == target)
            firsts.add((budget, first // FINITE_BLOCK > 0))
    assert firsts == {(20000, False), (20000, True), (46656, True)}


def test_block_that_raises_is_rerun_and_reports_the_error():
    space = _coded("hh")

    def ok(t):
        if np.any(np.asarray(t[1]) == 5):
            raise StructuralError("no such case")
        return True

    got = run_law("law", "anchor", space.plan(100, np.random.default_rng(0)), ok,
                  lambda t: {"case": list(t)})
    assert got.witness == {"error": "StructuralError: no such case"}
    assert got.checks == 6 and got.exhaustive


def test_a_block_that_raises_another_error_propagates():
    # only CompositionUndefined and StructuralError send a block case by
    # case; any other exception in a law body is a bug and is not hidden
    space = _coded("hh")
    calls = []

    def ok(t):
        calls.append(np.size(t[0]))
        raise TypeError("a kernel that cannot take a block")

    with pytest.raises(TypeError, match="cannot take a block"):
        run_law("law", "anchor", space.plan(100, np.random.default_rng(0)), ok,
                lambda t: {"case": list(t)})
    assert calls == [36]


@pytest.mark.parametrize("name", ["s3-conj", "z4-conj"])
def test_finite_suites_check_each_block_in_one_call(name, monkeypatch):
    cm = get_module(name)
    calls = []
    mul = FiniteGroup.mul
    monkeypatch.setattr(FiniteGroup, "mul", lambda self, a, b: calls.append(
        max(np.size(a), np.size(b))) or mul(self, a, b))
    report = verify_crossed_module(cm, 20_000, law_streams(0))
    report.extend(verify_exchange_law(cm, 20_000, law_streams(0)))
    assert report.passed
    space = len(cm.G.values) * len(cm.H.values) ** 2
    assert report.find("exchange-law").checks == min(20_000, space ** 2)
    # every multiplication is a table lookup on a block of at most FINITE_BLOCK cases
    # (a per-case run would make more than one per case checked)
    assert calls and all(1 < n <= FINITE_BLOCK for n in calls)
    assert FINITE_BLOCK in calls and len(calls) < 1000


# -- a failure deep in one big block --

# block checks a failing law may make: the whole block, then a search by halves
SEARCH_CHECKS = math.ceil(math.log2(FINITE_BLOCK)) + 2


def _counting_singles(monkeypatch, law: list) -> Counter:
    """Counts the cases built one at a time, per law named by `law[0]`
    while they are built."""
    built, singles = Counter(), catbundle.report._singles
    monkeypatch.setattr(catbundle.report, "_singles", lambda space, columns: (
        built.update(law) or case for case in singles(space, columns)))
    return built


def _shipped_run(name: str, suite: str, monkeypatch):
    """A shipped scenario's suite, the states its streams are left in, and
    the cases each law built one at a time."""
    streams, law, make = [], [None], catbundle.suites.Stream

    def recording(law_id, *args):
        law[0] = law_id
        return run_law(law_id, *args)

    monkeypatch.setattr(catbundle.suites, "Stream",
                        lambda key: streams.append(make(key)) or streams[-1])
    monkeypatch.setattr(catbundle.report, "run_law", recording)
    built = _counting_singles(monkeypatch, law)
    result = run_suite(Scenario.load(SCEN / f"{name}.json"), suite)
    return result, [s.bit_generator.state for s in streams], dict(built)


# exchange-law first gives False at check 867 of its 5184, all in the first
# block; associativity first raises CompositionUndefined at check 2593
@pytest.mark.parametrize("name, suite, law, checks, error", [
    ("negative_broken_module", "exchange-law", "exchange-law", 867, None),
    ("negative_eta", "twisted-bundle", "associativity", 2593, "CompositionUndefined"),
])
def test_a_failure_deep_in_a_big_block_is_found_by_halves(name, suite, law, checks, error,
                                                           monkeypatch):
    blocked, state, built = _shipped_run(name, suite, monkeypatch)
    with per_case_plans():
        per_case, per_case_state, _ = _shipped_run(name, suite, monkeypatch)
    got, want = blocked.find(law), per_case.find(law)
    assert _records_equal(got, want) and state == per_case_state
    assert blocked.to_jsonl() == per_case.to_jsonl()
    assert got.checks == checks and got.space > checks and got.exhaustive
    assert (got.witness.get("error", "").split(":")[0] or None) == error
    assert 1 <= got.blocks <= SEARCH_CHECKS and got.singles == 1
    assert built.get(law, 0) <= 2  # at most one case built before the failing one


@pytest.mark.parametrize("fails_at", [FINITE_BLOCK * 5 // 8 + 1, None])
def test_a_build_error_deep_in_a_big_coded_block_is_found_by_halves(fails_at, monkeypatch):
    # no block holding case `raises_at` can be built, nor that case alone: the
    # first False before it is the witness, and without one its build error
    # is, that case counted as checked, in blocks as case by case
    raises_at = FINITE_BLOCK * 3 // 4

    def build(c):
        if np.any(np.asarray(c) == raises_at):
            raise StructuralError(f"no case {raises_at}")
        return c

    space = CaseSpace.coded(FINITE_BLOCK, 1, lambda i: [i], build)
    calls = []

    def ok(c):
        calls.append(np.size(c))
        return c != fails_at

    def run(rng):
        return run_law("law", "anchor", space.plan(FINITE_BLOCK, rng), ok, lambda c: {"case": c})

    built = _counting_singles(monkeypatch, ["law"])
    block_rng, case_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = run(block_rng)
    blocks, built_before = sum(n > 1 for n in calls), built["law"]
    with per_case_plans():
        want = run(case_rng)
    assert block_rng.bit_generator.state == case_rng.bit_generator.state
    assert blocks <= SEARCH_CHECKS and built_before <= 2
    assert _records_equal(got, want) and got.singles == 1
    if fails_at is None:  # the block checks count the builds that raised
        assert got.witness == {"error": f"StructuralError: no case {raises_at}"}
        assert got.checks == raises_at + 1 and blocks <= got.blocks <= SEARCH_CHECKS
    else:
        assert got.witness == {"case": fails_at} and got.checks == fails_at + 1
        assert got.blocks == blocks


def test_closed_forms_must_take_int_codes():
    # an image tuple where a code belongs cannot enter an int table
    S3 = SymmetricGroup(3)
    with pytest.raises(StructuralError, match="alpha of bad must take int codes"):
        CrossedModule("bad", S3, S3, lambda g, h: S3.values[h], lambda h: h)
    with pytest.raises(StructuralError, match="tau of bad must take int codes"):
        CrossedModule("bad", S3, S3, lambda g, h: h, lambda h: None)


# -- the prop34 GU laws on blocks of functor and transformation codes --

def _gu_plans(cm, monkeypatch, budget=20_000):
    """Run the GU suite on ARROW, recording each law's case space and the
    items of its plan."""
    seen = []
    plan = CaseSpace.plan

    def recording(self, budget, rng):
        p = plan(self, budget, rng)
        items = list(p)
        seen.append((self, items))
        return replace(p, cases=items)

    monkeypatch.setattr(CaseSpace, "plan", recording)
    report = verify_GU_categorical_group(ARROW, cm, budget, law_streams(2))
    assert len(seen) == len(report.records)
    return report, {r.law: s for r, s in zip(report.records, seen)}


def _nested_spaces(cm):
    """The GU case spaces as nested products of functors and hT tables."""
    Fs = enumerate_functors(ARROW, cm)
    hTs = [dict(zip(ARROW.objects, combo))
           for combo in itertools.product(cm.H.elements, repeat=len(ARROW.objects))]
    Ts = CaseSpace.product(Fs, hTs, build=gauge)
    chains = CaseSpace.product(Ts, hTs, build=lambda T1, hT2: (gauge(T1.target, hT2), T1))
    chains3 = CaseSpace.product(
        chains, hTs, build=lambda p, hT3: (gauge(p[0].target, hT3), p[0], p[1]))
    return {
        "functor-product-closure": CaseSpace.product(Fs, Fs),
        "object-group-laws": CaseSpace.product(Fs, Fs, Fs),
        "morphism-product-closure": CaseSpace.product(Ts, Ts),
        "source-target-homomorphism": CaseSpace.product(Ts, Ts),
        "morphism-group-laws": Ts,
        "identity-assignment": CaseSpace.product(Fs, Fs),
        "vertical-units": Ts,
        "vertical-associativity": chains3,
        "exchange-law-functors": CaseSpace.product(chains, chains),
    }


def _key(case, j=None):
    """A case's tables as nested tuples; `j` picks one case of a block. A
    per-case code must be a Python int."""
    if isinstance(case, tuple):
        return tuple(_key(part, j) for part in case)
    if isinstance(case, NatTransf):
        return (_key(case.source, j), _key(case.target, j), _key(case.hT, j))
    if isinstance(case, dict):
        if j is None:
            assert all(type(v) is int for v in case.values())
            return tuple(case.items())
        return tuple((k, int(v[j]) if isinstance(v, np.ndarray) else v) for k, v in case.items())
    return (_key(case.g_table, j), _key(case.h_gen, j))


@pytest.mark.parametrize("name", ["z4-z2", "s3-conj"])
def test_every_gu_law_plans_blocks_whose_cases_are_the_singles(name, monkeypatch):
    cm = get_module(name)
    report, plans = _gu_plans(cm, monkeypatch)
    assert report.passed and set(plans) == set(_nested_spaces(cm))
    for law, (space, items) in plans.items():
        assert items and all(isinstance(b, Block) for b in items), law
        assert sum(b.size for b in items) == report.find(law).checks
        # a block's stacked case j is its j-th single, which holds Python ints
        block = items[-1]
        singles = list(block.singles())
        assert len(singles) == block.size
        for j in range(0, block.size, 7):
            assert _key(block.cases, j) == _key(singles[j])


def test_flat_gu_spaces_equal_the_nested_ones_on_z4_z2(monkeypatch):
    cm = get_module("z4-z2")
    _, plans = _gu_plans(cm, monkeypatch)
    for law, nested in _nested_spaces(cm).items():
        flat = plans[law][0]
        assert flat.size == nested.size
        assert [_key(c) for c in flat] == [_key(c) for c in nested], law


def test_flat_gu_spaces_equal_the_nested_ones_at_seeded_picks_on_s3(monkeypatch):
    cm = get_module("s3-conj")
    report, plans = _gu_plans(cm, monkeypatch)
    assert not report.find("exchange-law-functors").exhaustive
    for law, nested in _nested_spaces(cm).items():
        flat = plans[law][0]
        assert flat.size == nested.size
        for i in np.random.default_rng(7).integers(flat.size, size=40).tolist():
            assert _key(flat[i]) == _key(nested[i]), (law, i)


def test_gu_laws_check_each_block_in_one_call(monkeypatch):
    calls = []
    mul = FiniteGroup.mul
    monkeypatch.setattr(FiniteGroup, "mul", lambda self, a, b: calls.append(
        max(np.size(a), np.size(b))) or mul(self, a, b))
    report = verify_GU_categorical_group(ARROW, get_module("z4-z2"), 20_000)
    assert report.passed and all(r.exhaustive for r in report.records)
    checks = sum(r.checks for r in report.records)
    # a per-case run makes dozens of multiplications per case checked; here
    # only enumerating the functors and building the identities is per case
    assert FINITE_BLOCK in calls and len(calls) < checks / 5 and calls.count(1) < 40


def test_gu_laws_on_a_quiver_without_objects():
    # one functor, and one transformation out of it with an empty hT
    report = verify_GU_categorical_group(QuiverCategory([], []), get_module("z4-z2"), 100)
    assert report.passed and all(r.checks == 1 and r.exhaustive for r in report.records)
