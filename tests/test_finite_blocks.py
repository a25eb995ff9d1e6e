"""Finite laws run on blocks of int-coded cases: a failing S3 module pinned by
committed goldens, int codes and their parsing, table lookups on arrays,
one-call picks, block plans against per-case plans, run_law's case-by-case
rerun of a failing block and its search by halves for a failure deep in a
big block, and the prop34 GU laws on blocks of functor and transformation
codes."""
import itertools
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import catbundle.crossed
import catbundle.report
import catbundle.suites
import catbundle.twisted
from catbundle.basecat import QuiverCategory
from catbundle.bundle import NatTransf, enumerate_functors, gauge, verify_GU_categorical_group
from catbundle.crossed import CrossedModule, get_module, verify_crossed_module, verify_exchange_law
from catbundle.groups import CyclicGroup, FiniteGroup, StructuralError, SymmetricGroup
from catbundle.report import FINITE_BLOCK, Block, CaseSpace, _index, _picks, run_law
from catbundle.scenario import Scenario, ScenarioError, parse_element
from catbundle.suites import run_suite
from per_case import per_case_plans

GOLDEN = Path(__file__).resolve().parent / "golden"
SCEN = Path(__file__).resolve().parents[1] / "scenarios"
ARROW = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=2)


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
    return (verify_crossed_module(cm, budget, np.random.default_rng(1)).to_jsonl()
            + verify_exchange_law(cm, budget, np.random.default_rng(1)).to_jsonl())


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
    report = verify_GU_categorical_group(ARROW, alpha_mutant(), budget, np.random.default_rng(1))
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
        bad += [[0] * G.n, "(0 9)", list(range(G.n + 1))]
    for value in bad:
        with pytest.raises(ScenarioError):
            parse_element(G, value)


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
                                  10**12, 2**62 + 3, 2**63 - 1, 2**63])
def test_one_call_picks_equal_per_draw_picks(size):
    one, per = np.random.default_rng(12), np.random.default_rng(12)
    picks = _picks(one, size, 1000)
    assert picks.tolist() == [_index(per, size) for _ in range(1000)]
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
    report = verify_crossed_module(cm, 20_000, np.random.default_rng(0))
    report.extend(verify_exchange_law(cm, 20_000, np.random.default_rng(0)))
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
    """A shipped scenario's suite, the state its stream is left in, and the
    cases each law built one at a time."""
    streams, law, suite_rng = [], [None], catbundle.suites.suite_rng

    def recording(law_id, *args):
        law[0] = law_id
        return run_law(law_id, *args)

    monkeypatch.setattr(catbundle.suites, "suite_rng",
                        lambda *a: streams.append(suite_rng(*a)) or streams[-1])
    for module in (catbundle.crossed, catbundle.twisted):
        monkeypatch.setattr(module, "run_law", recording)
    built = _counting_singles(monkeypatch, law)
    result = run_suite(Scenario.load(SCEN / f"{name}.json"), suite)
    return result, streams[-1].bit_generator.state, dict(built)


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
    # propagates, in blocks as case by case
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
        try:
            return run_law("law", "anchor", space.plan(FINITE_BLOCK, rng), ok,
                           lambda c: {"case": c})
        except StructuralError as exc:
            return str(exc)

    built = _counting_singles(monkeypatch, ["law"])
    block_rng, case_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = run(block_rng)
    blocks, built_before = sum(n > 1 for n in calls), built["law"]
    with per_case_plans():
        want = run(case_rng)
    assert block_rng.bit_generator.state == case_rng.bit_generator.state
    assert blocks <= SEARCH_CHECKS and built_before <= 2
    if fails_at is None:
        assert got == want == f"no case {raises_at}"
    else:
        assert _records_equal(got, want) and got.witness == {"case": fails_at}
        assert got.checks == fails_at + 1 and (got.blocks, got.singles) == (blocks, 1)


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
    report = verify_GU_categorical_group(ARROW, cm, budget, np.random.default_rng(2))
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
