"""Twisted-chain laws on blocks of int-coded quiver morphisms: failing and
edge-case reports pinned by committed goldens, the coded chain spaces against
nested loops, and the laws that run in blocks against those that stay per
case."""
import contextlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import catbundle.bundle
import catbundle.twisted
from catbundle.basecat import QuiverCategory, QuiverMorphism
from catbundle.bundle import (
    enumerate_functors,
    verify_bundle_axioms,
    verify_GU_categorical_group,
    verify_section_iso,
)
from catbundle.crossed import TwoGroupMorphism, get_module
from catbundle.groups import FiniteGroup
from catbundle.report import FINITE_BLOCK, Block, CaseSpace, run_law
from catbundle.scenario import Scenario
from catbundle.suites import run_suite
from catbundle.twisted import (
    EtaMap,
    TwistedBundle,
    TwistedMorphism,
    _base_pairs,
    composable_chains,
    free_ok,
    verify_action_functorial,
    verify_E_properties,
    verify_twisted_bundle,
)
from per_case import per_case_plans
from test_finite_blocks import alpha_mutant

GOLDEN = Path(__file__).resolve().parent / "golden"
SCEN = Path(__file__).resolve().parents[1] / "scenarios"


def chain(word_bound: int = 3) -> QuiverCategory:
    return QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound)


def loop() -> QuiverCategory:
    return QuiverCategory(["a"], [("l", "a", "a")], word_bound=2)


def rng():
    return np.random.default_rng(1)


def twisted_jsonl(bundle: TwistedBundle, budget: int) -> str:
    return "".join(fn(bundle, budget, rng()).to_jsonl() for fn in (
        verify_twisted_bundle, verify_E_properties, verify_action_functorial))


def mutant_twisted_jsonl(budget: int) -> str:
    base, cm = chain(), alpha_mutant()
    bundle = TwistedBundle(base, cm, EtaMap.from_table(base, cm, {"f": 3, "g": 1}))
    F = enumerate_functors(base, cm)[100]
    return (verify_bundle_axioms(base, cm, budget, rng()).to_jsonl()
            + twisted_jsonl(bundle, budget)
            + verify_section_iso(F, budget, rng()).to_jsonl())


# at 20000, b2-freeness-morphisms fails at check 199, boundary-coherence at 1948
# and associativity at 13036 (all exhaustive), action-functoriality at sampled
# check 6; at 300 every failing law is sampled
@pytest.mark.parametrize("budget", [300, 20000])
def test_failing_s3_module_matches_its_twisted_golden(budget):
    golden = GOLDEN / f"s3_alpha_mutant_twisted_{budget}.jsonl"
    assert mutant_twisted_jsonl(budget) == golden.read_text()


def loop_jsonl() -> str:
    base, cm = loop(), get_module("s3-conj")
    bundle = TwistedBundle(base, cm, EtaMap.from_table(base, cm, {"l": 4}))
    return verify_bundle_axioms(base, cm, 20000, rng()).to_jsonl() + twisted_jsonl(bundle, 20000)


def test_loop_quiver_composites_beyond_the_word_bound_match_the_golden():
    # chains of l^i, i <= 2, compose to words of up to 6 letters
    assert loop_jsonl() == (GOLDEN / "s3_loop_quiver.jsonl").read_text()


def raw_eta_jsonl(f: int, g: int) -> str:
    # word bound 1: fg is the one composite, and eta is undefined on it
    base, cm = chain(word_bound=1), get_module("s3-conj")
    eta = EtaMap.from_raw(base, cm, {(): 0, ("f",): f, ("g",): g})
    return twisted_jsonl(TwistedBundle(base, cm, eta), 20000)


# with eta the identity wherever it is defined, a block that took the
# identity for eta(fg) instead of raising would pass the laws that use it
@pytest.mark.parametrize("f, g, golden", [(3, 1, "s3_raw_eta_undefined.jsonl"),
                                          (0, 0, "s3_raw_eta_undefined_elsewhere_trivial.jsonl")])
def test_raw_eta_undefined_on_a_composite_matches_the_golden(f, g, golden):
    text = raw_eta_jsonl(f, g)
    assert "StructuralError: eta undefined on g\\u2218f:a->c" in text  # JSON escapes ∘
    assert text == (GOLDEN / golden).read_text()


# -- the coded chain spaces --

def nested_chains(bundle: TwistedBundle, n: int):
    """Reference: the composable chains (tm_n, ..., tm_1) by nested loops over
    gamma1, h1, g1, then each next gamma out of the last target and its h."""
    base, cm = bundle.base, bundle.cm
    gammas = base.morphisms_upto()

    def tails(tm, k):
        if k == 0:
            yield ()
            return
        for gamma in gammas:
            if gamma.source == tm.gamma.target:
                for h in cm.H.elements:
                    nxt = TwistedMorphism(gamma, TwoGroupMorphism(h, bundle.target(tm)[1]))
                    for rest in tails(nxt, k - 1):
                        yield (nxt,) + rest

    for gamma1 in gammas:
        for h1 in cm.H.elements:
            for g1 in cm.G.elements:
                tm1 = TwistedMorphism(gamma1, TwoGroupMorphism(h1, g1))
                for rest in tails(tm1, n - 1):
                    yield tuple(reversed((tm1,) + rest))


def assert_single(chain):
    for tm in chain:
        assert isinstance(tm.gamma, QuiverMorphism)
        assert type(tm.m.h) is int and type(tm.m.g) is int


def assert_block_holds(base, block, singles):
    """The stacked chains hold, case by case, the codes of the singles."""
    for j, chain in enumerate(singles):
        for stacked, tm in zip(block, chain):
            assert base.morphism(int(stacked.gamma[j])) == tm.gamma
            assert (stacked.m.h[j], stacked.m.g[j]) == (tm.m.h, tm.m.g)


def twist(name: str, eta: dict) -> TwistedBundle:
    base, cm = chain(), get_module(name)
    return TwistedBundle(base, cm, EtaMap.from_table(base, cm, eta))


@pytest.mark.parametrize("n", [2, 3])
def test_every_z4_chain_equals_the_nested_loops(n):
    bundle = twist("z4-conj", {"f": 1, "g": 2})
    want = list(nested_chains(bundle, n))
    space = composable_chains(bundle, n)
    assert space.size == len(want) == {2: 640, 3: 3840}[n]
    got = [space[i] for i in range(space.size)]
    assert got == want
    for chain_ in got[::97]:
        assert_single(chain_)
    block = space.build(*space.decode(np.arange(space.size)))
    assert_block_holds(bundle.base, block, got)


@pytest.mark.parametrize("n", [2, 3])
def test_s3_chains_equal_the_nested_loops_at_seeded_picks(n):
    bundle = twist("s3-conj", {"f": 3, "g": 1})
    want = list(nested_chains(bundle, n))
    space = composable_chains(bundle, n)
    assert space.size == len(want) == {2: 2160, 3: 19440}[n]
    picks = np.random.default_rng(3).integers(space.size, size=300)
    got = [space[i] for i in picks.tolist()]
    assert got == [want[i] for i in picks.tolist()]
    assert_single(got[0])
    assert_block_holds(bundle.base, space.build(*space.decode(picks)), got)


def test_chains_past_the_word_bound_get_fresh_codes():
    base, cm = loop(), get_module("z4-conj")
    bundle = TwistedBundle(base, cm, EtaMap.from_table(base, cm, {"l": 1}))
    assert len(base.codes()) == 3  # id, l, l∘l
    space = composable_chains(bundle, 3)
    t = space.build(*space.decode(np.arange(space.size)))
    twice = bundle.compose(t[0], bundle.compose(t[1], t[2])).gamma
    assert bundle.base.morphism_eq(twice, bundle.compose(bundle.compose(t[0], t[1]), t[2]).gamma).all()
    words = {len(base.morphism(c).word) for c in np.unique(twice).tolist()}
    assert words == set(range(7)) and len(base._coded) == 7


@pytest.mark.parametrize("base", [chain(), loop()], ids=["chain", "loop"])
def test_coded_base_pairs_are_the_composable_pairs(base):
    cm = get_module("s3-conj")
    space = _base_pairs(TwistedBundle(base, cm, EtaMap.trivial(base, cm)))
    want = list(base.composable_pairs())
    assert space.size == len(want) and list(space) == want
    gamma2, gamma1 = space.build(*space.decode(np.arange(space.size)))
    assert [(base.morphism(c2), base.morphism(c1))
            for c2, c1 in zip(gamma2.tolist(), gamma1.tolist())] == want


# -- a coded space past int64 --

def s3_cocycle_gu(budget: int, monkeypatch) -> tuple[str, dict]:
    """The GU suite on the 6-object quiver of `s3_cocycle`, and the items
    of each law's plan."""
    plans, plan = [], CaseSpace.plan

    def recording(space, budget, rng):
        p = plan(space, budget, rng)
        plans.append((space.size, list(p)))
        return replace(p, cases=plans[-1][1])

    monkeypatch.setattr(CaseSpace, "plan", recording)
    report = verify_GU_categorical_group(Scenario.load(SCEN / "s3_cocycle.json").quiver(),
                                         get_module("s3-conj"), budget, rng())
    return report.to_jsonl(), dict(zip((r.law for r in report.records), plans))


def test_gu_laws_past_int64_come_in_blocks_and_match_single_cases(monkeypatch):
    blocked, plans = s3_cocycle_gu(200, monkeypatch)
    size, items = plans["exchange-law-functors"]
    assert size > 2**63 and items and all(isinstance(b, Block) for b in items)
    with per_case_plans():
        assert s3_cocycle_gu(200, monkeypatch)[0] == blocked


# -- which laws run in blocks --

BLOCKED = {
    "bundle-axioms": {"action-functoriality", "b3-transitivity-morphisms",
                      "b2-freeness-objects", "b2-freeness-morphisms",
                      "b3-transitivity-objects", "composition-units"},
    "twisted-bundle": {"associativity", "boundary-coherence", "b3-transitivity", "unit-laws",
                       "b1-surjectivity", "eta-identity", "b2-freeness",
                       "eta-homomorphism", "b1-base-coverage"},
    "e-action": {"action-boundaries", "action-composition", "E-reproduces-composition",
                 "E-identity-base", "E-identity-group", "E-composition-group",
                 "E-composition-base"},
    "prop41-section": {"equivariance-morphisms", "composition-preservation",
                       "equivariance-morphisms@sigma2", "composition-preservation@sigma2"},
    "prop31-roundtrip": {"roundtrip-invariants", "telescoping", "object-encoding"},
}


def run_recording_blocks(scenario, suite, monkeypatch):
    """Run a shipped scenario's suite, and record per law in report order its
    plan's block sizes and the sizes of the finite multiplications made
    while it runs."""
    runs = [{"lookups": []}]  # before the first law
    mul = FiniteGroup.mul
    monkeypatch.setattr(FiniteGroup, "mul", lambda self, a, b: runs[-1]["lookups"].append(
        max(np.size(a), np.size(b))) or mul(self, a, b))

    def recording(law, anchor, cases, ok, witness):
        run = {"lookups": []}
        runs.append(run)
        listed = list(cases)
        run["blocks"] = [x.size if isinstance(x, Block) else None for x in listed]
        return run_law(law, anchor, replace(cases, cases=listed), ok, witness)

    for module in (catbundle.bundle, catbundle.twisted):
        monkeypatch.setattr(module, "run_law", recording)
    report = run_suite(Scenario.load(SCEN / f"{scenario}.json"), suite)
    assert len(runs) == len(report.records) + 1
    return report, runs[1:]


@pytest.mark.parametrize("name, suite", [("z4_twist", "twisted-bundle"), ("z4_twist", "e-action"),
                                         ("s3_quiver", "bundle-axioms"),
                                         ("s3_quiver", "prop41-section"),
                                         ("s3_quiver", "prop31-roundtrip")])
def test_twisted_laws_check_each_block_in_one_call(name, suite, monkeypatch):
    report, runs = run_recording_blocks(name, suite, monkeypatch)
    assert report.passed and BLOCKED[suite] <= {r.law for r in report.records}
    for r, run in zip(report.records, runs):
        if r.law in BLOCKED[suite]:
            # every case comes in a block, each checked in one call
            assert run["blocks"] and None not in run["blocks"], r.law
            assert sum(run["blocks"]) == r.checks and r.blocks == len(run["blocks"]), r.law
            assert r.singles == 0, r.law
            assert all(1 <= n <= FINITE_BLOCK for n in run["lookups"]), r.law
            assert FINITE_BLOCK in run["lookups"] or r.checks < FINITE_BLOCK, r.law
        else:
            # a listed space, or one with a listed axis
            assert set(run["blocks"]) == {None}, r.law


# -- freeness on blocks --

def fixing_action(bundle: TwistedBundle, fixed: TwoGroupMorphism, at: QuiverMorphism):
    """`bundle.act`, except that acting by `fixed` leaves the morphisms over
    `at` unchanged, case by case on a block: a mask-aware action that is not
    free."""
    act, base, cm = bundle.act, bundle.base, bundle.cm

    def broken(tm, m1):
        acted = act(tm, m1)
        over = tm.gamma == (base.code(at) if isinstance(tm.gamma, np.ndarray) else at)
        keep = over & cm.m_eq(m1, fixed)
        if np.ndim(keep) == 0:
            return tm if keep else acted
        return TwistedMorphism(acted.gamma, TwoGroupMorphism(
            np.where(keep, tm.m.h, acted.m.h), np.where(keep, tm.m.g, acted.m.g)))

    return broken


def test_freeness_skips_the_unit_test_on_a_single_case_that_moves(monkeypatch):
    # one m_eq (does m1 fix tm?) for a case that does not fix tm, and a second
    # (is m1 the unit?) only for one that does
    base, cm = chain(), get_module("s3-conj")
    bundle = TwistedBundle(base, cm, EtaMap.from_table(base, cm, {"f": 3, "g": 1}))
    calls = []
    m_eq = type(cm).m_eq
    monkeypatch.setattr(type(cm), "m_eq", lambda self, a, b: calls.append(1) or m_eq(self, a, b))
    tm = TwistedMorphism(base.arrow("f"), TwoGroupMorphism(2, 1))
    for m1, fixes in ((TwoGroupMorphism(3, 0), False), (TwoGroupMorphism(0, 4), False),
                      (cm.unit, True)):
        calls.clear()
        assert free_ok(bundle, tm, m1) is True
        assert len(calls) == 1 + fixes
    # a block still checks both, case by case
    calls.clear()
    block = TwistedMorphism(np.array([1, 1]), TwoGroupMorphism(np.array([2, 2]), np.array([1, 1])))
    assert free_ok(bundle, block, TwoGroupMorphism(np.array([3, 0]), np.array([0, 0]))).tolist() == [True, True]
    assert len(calls) == 2


@pytest.mark.parametrize("budget", [3000, 20000])
def test_freeness_fails_on_a_fixed_morphism_in_blocks_and_per_case(budget, monkeypatch):
    # one non-unit morphism fixes every lift of the arrow g: both freeness
    # laws fail, with the same checks and witness in blocks and case by case
    # (sampled at 3000, exhaustive at 20000)
    base, cm = chain(), get_module("s3-conj")
    fixed = TwoGroupMorphism(3, 0)
    bundle = TwistedBundle(base, cm, EtaMap.from_table(base, cm, {"f": 3, "g": 1}))
    product = TwistedBundle(base, cm, EtaMap.trivial(base, cm))
    at = base.arrow("g")
    records = []
    for blocked in (True, False):
        for b in (bundle, product):
            monkeypatch.setattr(b, "act", fixing_action(b, fixed, at))
        with contextlib.ExitStack() as stack:
            if not blocked:
                stack.enter_context(per_case_plans())
            monkeypatch.setattr(catbundle.bundle, "TwistedBundle", lambda *a: product)
            twisted = verify_twisted_bundle(bundle, budget, rng()).find("b2-freeness")
            axioms = verify_bundle_axioms(base, cm, budget, rng()).find("b2-freeness-morphisms")
        for b in (bundle, product):
            monkeypatch.delattr(b, "act")
        records.append((twisted, axioms))
    assert [r.checks for r in records[0]] == {3000: [160, 93], 20000: [5203, 5203]}[budget]
    for (got, want) in zip(*records):
        assert not got.passed and got.witness["gamma"] == "g:b->c"
        assert (got.checks, got.witness, got.exhaustive) == (want.checks, want.witness, want.exhaustive)
