"""CaseSpace: lazy indexing in nested-loop order, the one exhaustive-or-sampled
rule, and the report invariants it guarantees on every shipped scenario."""
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from catbundle.basecat import QuiverCategory
from catbundle.bundle import verify_GU_categorical_group
from catbundle.cli import main
from catbundle.crossed import get_module, verify_exchange_law
from catbundle.groups import StructuralError
from catbundle.report import Block, CaseSpace, LawReport, Plan, run_law
from catbundle.scenario import Scenario
from catbundle.stream import Stream
from catbundle.suites import run_suite
from per_case import law_streams

REPO = Path(__file__).resolve().parents[1]
SCEN = REPO / "scenarios"


def _capped(items, budget, rng):
    """Reference: enumerate everything, then keep it or sample from it."""
    if len(items) <= budget:
        return items, True
    return [items[int(rng.integers(len(items)))] for _ in range(budget)], False


def test_product_indexes_like_nested_loops():
    a, b, c = [0, 1, 2], "xy", [10, 20, 30, 40]
    want = [(x, y, z) for x in a for y in b for z in c]
    space = CaseSpace.product(a, b, c)
    assert len(space) == len(want)
    assert [space[i] for i in range(len(space))] == want
    built = CaseSpace.product(a, c, build=lambda x, z: x * z)
    assert [built[i] for i in range(len(built))] == [x * z for x in a for z in c]


def test_nested_spaces_index_like_nested_comprehensions():
    inner = CaseSpace.product("ab", [0, 1, 2])
    outer = CaseSpace.product(inner, [7, 8])
    want = [((p, q), r) for p in "ab" for q in [0, 1, 2] for r in [7, 8]]
    assert len(outer) == len(want)
    assert [outer[i] for i in range(len(outer))] == want
    pairs = CaseSpace.product(inner, inner)
    assert len(pairs) == 36
    assert pairs[35] == (("b", 2), ("b", 2))


def test_index_outside_the_space_raises_and_iteration_ends():
    product = CaseSpace.product(range(2), range(3))
    # the pairs y < x < 4: case i is x = 1, 2, 2, 3, 3, 3 and y = i - x(x-1)/2
    coded = CaseSpace.coded(6, 2, lambda i: [(np.sqrt(8 * i + 1).astype(int) + 1) // 2, i],
                            lambda x, i: (x, i - x * (x - 1) // 2))
    nested = CaseSpace.product(product, "ab")
    for space in (product, coded, nested, CaseSpace.product(range(2), [])):
        for i in (len(space), len(space) + 1, 100, -1):
            with pytest.raises(IndexError):
                space[i]
    # so iterating a space lists it, in nested-loop order
    assert list(product) == [(x, y) for x in range(2) for y in range(3)]
    assert list(coded) == [(x, y) for x in range(4) for y in range(x)]
    assert list(nested) == [((x, y), c) for x in range(2) for y in range(3) for c in "ab"]


@pytest.mark.parametrize("budget", [1, 7, 23, 24, 100])
def test_plan_matches_the_reference_cap(budget):
    a, b = list(range(4)), list(range(6))
    items = [(x, y) for x in a for y in b]
    plan = CaseSpace.product(a, b).plan(budget, np.random.default_rng(5))
    want, exhaustive = _capped(items, budget, np.random.default_rng(5))
    assert list(plan) == want
    assert plan.exhaustive == exhaustive
    assert plan.space == 24


def singles(plan):
    """The cases of a plan that comes in Blocks, one at a time."""
    blocks = list(plan)
    assert blocks and all(isinstance(b, Block) for b in blocks)
    return [case for b in blocks for case in b.singles()]


def test_plan_samples_spaces_beyond_int64():
    # numpy draws indices below 2**63 only; the stream draws a larger space's
    # picks on Python ints, uniformly and reproducibly, and they come in
    # blocks like any coded space
    huge = CaseSpace.product(range(10**10), range(10**10))
    plan = huge.plan(5, Stream(0))
    assert not plan.exhaustive and plan.space == 10**20
    cases = singles(plan)
    assert len(cases) == 5
    assert all(0 <= x < 10**10 and 0 <= y < 10**10 for x, y in cases)
    assert singles(huge.plan(5, Stream(0))) == cases
    cases = singles(CaseSpace.product(range(3), range(2**62), range(4))
                    .plan(300, Stream(1)))
    assert {c[0] for c in cases} == {0, 1, 2} and {c[2] for c in cases} == {0, 1, 2, 3}
    assert max(c[1] for c in cases) >= 2**61
    # one axis of exactly 2**63 cases, which int64 cannot divide by
    edge = CaseSpace.product(range(1), CaseSpace.product(range(2**32), range(2**31)))
    cases = singles(edge.plan(3, Stream(0)))
    assert edge.size == 2**63 and len(cases) == 3
    assert all(a == 0 and 0 <= x < 2**32 and 0 <= y < 2**31 for a, (x, y) in cases)


def test_nested_spaces_beyond_sys_maxsize():
    # a nested space's size is read from `size`; len() stops at sys.maxsize
    inner = CaseSpace.product(range(2**32), range(2**32))
    space = CaseSpace.product(inner, range(3))
    assert space.size == 3 * 2**64
    assert space[space.size - 1] == ((2**32 - 1, 2**32 - 1), 2)
    cases = singles(space.plan(5, Stream(0)))
    assert len(cases) == 5
    assert all(0 <= x < 2**32 and 0 <= y < 2**32 and 0 <= z < 3 for (x, y), z in cases)
    assert singles(space.plan(5, Stream(0))) == cases


@pytest.mark.parametrize("fails_at", [3, None])
def test_a_coded_block_that_cannot_be_built_is_searched_by_halves(fails_at):
    # case 7 cannot be built: the block holding it is searched by halves, each
    # rebuilt from its codes (0-4 hold, then 5-6, and 7 alone cannot be
    # built), so a failure before it is the witness, and without one case 7
    # fails with its build error as the witness
    def build(c):
        if np.any(np.asarray(c) == 7):
            raise StructuralError("no case 7")
        return c

    space = CaseSpace.coded(10, 1, lambda i: [i], build)
    seen = []

    def ok(c):
        seen.append(np.size(c))
        return c != fails_at

    record = run_law("law", "anchor", space.plan(10, np.random.default_rng(0)), ok,
                     lambda c: {"case": c})
    if fails_at is None:
        assert (record.checks, record.witness, seen) == (
            8, {"error": "StructuralError: no case 7"}, [5, 2])
        assert (record.status, record.blocks, record.singles) == ("fail", 3, 1)
    else:
        assert (record.checks, record.witness, seen) == (4, {"case": 3}, [5, 1])
        assert (record.blocks, record.singles) == (1, 1)


def test_nonpositive_budget_yields_no_cases():
    rng = np.random.default_rng(0)
    for budget in (0, -5):
        assert list(CaseSpace.product([1, 2], [3]).plan(budget, rng)) == []
        assert list(CaseSpace.sampled(lambda r: r.random()).plan(budget, rng)) == []
        assert list(CaseSpace.sampled(lambda r: r.random(), count=3).plan(budget, rng)) == []


def test_sampled_plans():
    rng = np.random.default_rng(1)

    def uniform(r):
        return r.random(1)

    open_axis = CaseSpace.sampled(uniform)
    plan = open_axis.plan(5, rng)
    assert len(singles(plan)) == 5 and not plan.exhaustive and plan.space is None
    assert len(singles(CaseSpace.sampled(uniform, count=3).plan(100, rng))) == 3
    # enumerated and counted axes are crossed whole with max(1, budget // 4) open draws
    mixed = CaseSpace.product(open_axis, CaseSpace.sampled(uniform, count=2), "ab")
    assert len(list(mixed.plan(10, rng))) == 2 * 4
    assert len(list(mixed.plan(3, rng))) == 4
    with pytest.raises(ValueError):
        CaseSpace.product(open_axis, [1, 2], open_axis).plan(10, rng)
    # a product with an enumerated axis has no per-case draw, so it is no axis
    with pytest.raises(ValueError):
        CaseSpace.product(mixed, open_axis)
    # every draw is kept stacked: one that does not stack names its part
    with pytest.raises(ValueError, match=r"draw\[0\] is a float, which does not stack"):
        CaseSpace.sampled(lambda r: float(r.random())).plan(5, rng)


def test_carrier_is_the_group_or_its_samples():
    assert CaseSpace.carrier(get_module("s3-conj").G) == get_module("s3-conj").G.elements
    so2 = get_module("so2-conj").G
    space = CaseSpace.carrier(so2, 4)
    assert space.size is None and space.count == 4


def test_law_on_zero_cases_fails():
    for cases in (CaseSpace.finite([]).plan(10, np.random.default_rng(0)),
                  Plan((), exhaustive=False)):
        record = run_law("empty", "none", cases, lambda case: True, lambda case: {})
        assert record.status == "fail" and record.checks == 0
        assert record.witness == {"error": "no cases checked"}


def _shipped_suites():
    for path in sorted(SCEN.glob("*.json")):
        for suite in json.loads(path.read_text()).get("suites", []):
            yield path.name, suite


@pytest.mark.parametrize("name,suite", list(_shipped_suites()))
def test_exhaustive_means_the_whole_space_was_checked(name, suite):
    report = run_suite(Scenario.load(SCEN / name), suite)
    for r in report.records:
        assert r.checks > 0 or not r.passed, (name, r.law)
        if r.passed:
            whole = r.space is not None and r.checks == r.space
            assert r.exhaustive == whole, (name, r.law, r.checks, r.space)


@pytest.mark.parametrize("name,suite", list(_shipped_suites()))
def test_budget_bounds_every_exhaustive_record(name, suite):
    # at budget 5 a law is exhaustive only over a space of at most 5 cases
    raw = json.loads((SCEN / name).read_text())
    report = run_suite(Scenario({**raw, "budget": 5, "path_budget": 5}), suite)
    for r in report.records:
        if r.exhaustive:
            assert r.space is not None and r.checks <= r.space <= 5, (name, r.law)
            assert r.checks == r.space or not r.passed, (name, r.law)


def test_formerly_listed_laws_honour_the_budget():
    # composition-units and fiber-preservation checked every case of their
    # spaces (216 and 234) whatever the budget
    raw = json.loads((SCEN / "s3_quiver.json").read_text())
    sc = Scenario({**raw, "budget": 5})
    records = [run_suite(sc, "bundle-axioms").find("composition-units"),
               run_suite(sc, "prop41-section").find("fiber-preservation")]
    for r in records:
        assert r.passed and r.checks == 5 and not r.exhaustive, r.law
    assert [r.space for r in records] == [216, 234]


def test_section_laws_build_no_case_beyond_their_picks(monkeypatch):
    # at budget 5 each prop41 law decodes its picks (at most 5) and no more
    # (a space inside a product decodes the same picks); only the two bijectivity
    # laws, one case each, map every object or every morphism. Nothing is
    # decoded outside a law
    decoded, current = {}, [None]  # case numbers each decode got, by law id
    init, law = CaseSpace.__init__, LawReport.law

    def recording_init(self, size, build, decode=None, *args, **kwargs):
        if decode is not None:
            def decode(i, inner=decode):
                decoded.setdefault(current[0], []).append(len(i))
                return inner(i)
        init(self, size, build, decode, *args, **kwargs)

    def recording_law(self, law_id, *args):
        current[0] = law_id
        try:
            return law(self, law_id, *args)
        finally:
            current[0] = None

    monkeypatch.setattr(CaseSpace, "__init__", recording_init)
    monkeypatch.setattr(LawReport, "law", recording_law)
    raw = json.loads((SCEN / "s3_quiver.json").read_text())
    report = run_suite(Scenario({**raw, "budget": 5}), "prop41-section")
    assert report.passed and None not in decoded
    bijectivity = {"bijectivity-objects": 3 * 6, "bijectivity-morphisms": 6 * 36}
    records = [r for r in report.records if "@" not in r.law]
    assert set(decoded) == {r.law for r in records}
    for r in records:
        assert max(decoded[r.law]) == bijectivity.get(r.law, min(5, r.space)), r.law


def test_z4_twist_e_action_checks_whole_spaces():
    report = run_suite(Scenario.load(SCEN / "z4_twist.json"), "e-action")
    expected = {
        "E-composition-base": (160, True),
        "E-composition-group": (384, True),
        "action-composition": (20_000, False),
    }
    for law, (checks, exhaustive) in expected.items():
        r = report.find(law)
        assert r.passed and (r.checks, r.exhaustive) == (checks, exhaustive), law
    assert report.find("action-composition").space == 40_960


def test_s3_exchange_law_honours_the_budget():
    cm = get_module("s3-conj")
    sampled = verify_exchange_law(cm, 20_000, law_streams(0)).records[0]
    assert sampled.passed and sampled.checks == 20_000 and not sampled.exhaustive
    assert sampled.space == 46_656
    whole = verify_exchange_law(cm, 10**5).records[0]
    assert whole.passed and whole.checks == 46_656 and whole.exhaustive


def test_exchange_law_witness_is_the_first_failing_case():
    record = verify_exchange_law(get_module("z2-s3-broken"), 10**5).records[0]
    assert not record.passed and record.checks == 867 and record.space == 5184


def test_gu_group_on_a_three_object_s3_quiver_stays_within_budget():
    chain = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        report = verify_GU_categorical_group(chain, get_module("s3-conj"), budget=1000,
                                             streams=law_streams(0))
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert all(0 < r.checks <= 1000 for r in report.records)
    assert elapsed < 30.0
    assert peak < 200 * 2**20


def _edited(name, edit):
    raw = json.loads((SCEN / name).read_text())
    edit(raw)
    return raw


def _drop_c(raw):
    for table in raw["functors"].values():
        del table["c"]


def _add_d(raw):
    for table in raw["functors"].values():
        table["d"] = "e"


def _trivialization_tables(edit):
    """s3_cocycle with a trivialization table of e on each cover set, then
    `edit` applied to the tables."""
    def tables(raw):
        raw["trivializations"] = {i: {pt: "e" for pt in pts} for i, pts in raw["cover"].items()}
        edit(raw["trivializations"])
    return _edited("s3_cocycle.json", tables)


def _suite(name):
    return ["--suite", name]


def _transport(path_id):  # argv of `catbundle transport`, named first
    return ["transport", "--path", path_id]


ETA_SUITES = [_suite("twisted-bundle"), _suite("e-action"), _suite("prop62")]  # they build eta
PATH_SUITES = [*ETA_SUITES, _suite("transport-convergence"), _transport("unit")]

# each path-base contradiction, with every path suite that reaches it and `transport`
PATH_BASE_CONTRADICTIONS = [
    ("quiver-base-from-connection", _edited("so2_transport.json", lambda r: r["base"].update(
        kind="quiver", objects=["a", "b"], arrows=[["f", "a", "b"]])), PATH_SUITES),
    ("base-dim-contradicts-connection",
     _edited("so2_transport.json", lambda r: r["base"].update(dim=3)), PATH_SUITES),
    ("base-dim-string", _edited("so2_transport.json", lambda r: r["base"].update(dim="x")),
     PATH_SUITES),
    ("so3-module-so2-connection",
     _edited("so2_transport.json", lambda r: r.update(crossed_module="so3-conj")), ETA_SUITES),
    ("z4-module-so2-connection",
     _edited("so2_transport.json", lambda r: r.update(crossed_module="z4-conj")), ETA_SUITES),
    ("constant-family-with-linear",
     _edited("so3_decorated.json", lambda r: r["connection"].update(family="constant")),
     [_suite("prop62"), _suite("transport-convergence"), _transport("diag")]),
    ("composite-pieces-apart", _edited("so2_transport.json", lambda r: r["base"]["paths"][
        "joined"].update(compose=["half1", "unit"])), [_transport("joined")]),
    ("path-one-sample", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(
        unit=[[0.0]])), [_transport("unit")]),
    ("path-nan", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(
        unit=[[0.0], [float("nan")]])), [_transport("unit")]),
    ("path-inf", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(
        unit=[[0.0], [float("inf")]])), [_transport("unit")]),
    ("path-wrong-dim", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(
        unit=[[0.0, 0.0], [1.0, 1.0]])), [_transport("unit")]),
    # points are read as reals: a bool or a numeric string is no coordinate
    ("path-bools", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(
        unit=[[True], [False]])), [_transport("unit")]),
    ("path-strings", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(
        unit=[["0"], ["1"]])), [_transport("unit")]),
    ("path-flat-strings", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(
        unit=["0", "1"])), [_transport("unit")]),
    ("path-number", _edited("so2_transport.json", lambda r: r["base"]["paths"].update(unit=5)),
     [_transport("unit")]),
]

MALFORMED = [
    ("budget-string", _edited("s3_quiver.json", lambda r: r.update(budget="lots")),
     ["--suite", "exchange-law"]),
    ("budget-negative", _edited("s3_quiver.json", lambda r: r.update(budget=-5)),
     ["--suite", "crossed-module"]),
    ("budget-float", _edited("s3_quiver.json", lambda r: r.update(budget=2.5)),
     ["--suite", "crossed-module"]),
    ("budget-bool", _edited("s3_quiver.json", lambda r: r.update(budget=True)),
     ["--suite", "crossed-module"]),
    ("budget-override-zero", _edited("s3_quiver.json", lambda r: None),
     ["--suite", "crossed-module", "--budget", "0"]),
    ("path-budget-zero", _edited("so2_transport.json", lambda r: r.update(path_budget=0)),
     ["--suite", "twisted-bundle"]),
    ("steps-string", _edited("so2_transport.json", lambda r: r.update(steps="many")),
     ["--suite", "prop62"]),
    ("steps-override-zero", _edited("so2_transport.json", lambda r: None),
     ["--suite", "transport-convergence", "--steps", "0"]),
    ("prop62-pairs-negative", _edited("so2_transport.json", lambda r: r.update(prop62_pairs=-1)),
     ["--suite", "prop62"]),
    ("seed-negative", _edited("s3_quiver.json", lambda r: r.update(seed=-1)),
     ["--suite", "crossed-module"]),
    ("tolerance-string",
     _edited("so2_transport.json", lambda r: r.update(tolerances={"grp": "x"})),
     ["--suite", "exchange-law"]),
    # json reads NaN and Infinity, and NaN <= 0 is False
    ("tolerance-nan",
     _edited("so3_decorated.json", lambda r: r.update(tolerances={"grp": float("nan")})),
     ["--suite", "crossed-module"]),
    ("tolerance-inf",
     _edited("so3_decorated.json", lambda r: r.update(tolerances={"grp": float("inf")})),
     ["--suite", "crossed-module"]),
    ("tolerance-override-nan", _edited("so3_decorated.json", lambda r: None),
     ["--suite", "crossed-module", "--eps-grp", "nan"]),
    ("tolerance-unknown-name",
     _edited("s3_quiver.json", lambda r: r.update(tolerances={"eps_grp": 1e-3})),
     ["--suite", "crossed-module"]),
    ("tolerance-unread-negative",  # no quiver suite reads pt
     _edited("s3_quiver.json", lambda r: r.update(tolerances={"pt": -1})),
     ["--suite", "crossed-module"]),
    ("functor-missing-object", _edited("s3_quiver.json", _drop_c), ["--suite", "prop41-section"]),
    ("functor-unknown-object", _edited("s3_quiver.json", _add_d),
     ["--suite", "prop42-correspondence"]),
    ("base-list", _edited("s3_quiver.json", lambda r: r.update(base=[r["base"]])),
     ["--suite", "bundle-axioms"]),
    ("quiver-objects-int", _edited("s3_quiver.json", lambda r: r["base"].update(objects=3)),
     ["--suite", "bundle-axioms"]),
    ("word-bound-negative", _edited("s3_quiver.json", lambda r: r["base"].update(word_bound=-1)),
     ["--suite", "bundle-axioms"]),
    ("tolerances-list", _edited("s3_quiver.json", lambda r: r.update(tolerances=[1e-9])),
     ["--suite", "crossed-module"]),
    ("functors-list", _edited("s3_quiver.json", lambda r: r.update(functors=[])),
     ["--suite", "prop41-section"]),
    ("eta-int", _edited("z4_twist.json", lambda r: r.update(eta=3)), ["--suite", "twisted-bundle"]),
    ("eta-table-unknown-arrow", _edited("z4_twist.json", lambda r: r["eta"]["table"].update(h=1)),
     ["--suite", "twisted-bundle"]),
    ("cover-key-not-an-index", _edited("s3_cocycle.json", lambda r: r["cover"].update(x=["a0"])),
     ["--suite", "cocycle"]),
    ("cover-unknown-object", _edited("s3_cocycle.json", lambda r: r["cover"]["0"].append("zz")),
     ["--suite", "cocycle"]),
    ("triple-without-upper", _edited("s3_cocycle.json", lambda r: r["triple"].pop("upper")),
     ["--suite", "prop51"]),
    ("cocycle-tables-without-pairs",
     _edited("s3_cocycle.json", lambda r: r.update(cocycle={"mode": "tables", "triples": {}})),
     ["--suite", "cocycle"]),
    ("cocycle-tables-pairs-list", _edited("s3_cocycle.json", lambda r: r.update(
        cocycle={"mode": "tables", "pairs": [], "triples": {}})), ["--suite", "cocycle"]),
    ("cocycle-tables-entry-list", _edited("s3_cocycle.json", lambda r: r.update(
        cocycle={"mode": "tables", "pairs": {"0,1": ["e"]}, "triples": {}})), ["--suite", "cocycle"]),
    ("cocycle-seed-string", _edited("s3_cocycle.json", lambda r: r["cocycle"].update(seed="x")),
     ["--suite", "cocycle"]),
    ("triple-lower-not-an-index",
     _edited("s3_cocycle.json", lambda r: r["triple"].update(lower=["x", 1, 2])), ["--suite", "prop51"]),
    ("triple-upper-int", _edited("s3_cocycle.json", lambda r: r["triple"].update(upper=3)),
     ["--suite", "transition-cocycle"]),
    ("trivializations-list", _edited("s3_cocycle.json", lambda r: r.update(trivializations=[])),
     ["--suite", "transition-cocycle"]),
    ("trivializations-entry-list",
     _edited("s3_cocycle.json", lambda r: r.update(trivializations={"0": ["e"]})),
     ["--suite", "transition-cocycle"]),
    ("trivializations-seed-string",
     _edited("s3_cocycle.json", lambda r: r.update(trivializations={"seed": "x"})),
     ["--suite", "transition-cocycle"]),
    ("triple-lower-two-indices",
     _edited("s3_cocycle.json", lambda r: r["triple"].update(lower=[0, 1])), ["--suite", "prop51"]),
    ("triple-upper-two-indices", _edited("s3_cocycle.json", lambda r: r["triple"].update(upper=[3, 4])),
     ["--suite", "transition-cocycle"]),
    ("triple-four-indices",
     _edited("s3_cocycle.json", lambda r: r["triple"].update(lower=[0, 1, 2, 3], upper=[2, 3, 4, 5])),
     ["--suite", "transition-cocycle"]),
    ("trivializations-missing-point", _trivialization_tables(lambda t: t["0"].pop("a2")),
     ["--suite", "transition-cocycle"]),
    ("trivializations-extra-point", _trivialization_tables(lambda t: t["0"].update(a5="e")),
     ["--suite", "transition-cocycle"]),
    ("trivializations-unknown-index", _trivialization_tables(lambda t: t.update({"6": {"a0": "e"}})),
     ["--suite", "transition-cocycle"]),
    ("quiver-objects-repeated",
     _edited("s3_quiver.json", lambda r: r["base"].update(objects=["a", "b", "c", "a"])),
     ["--suite", "bundle-axioms"]),
    ("quiver-objects-string", _edited("s3_quiver.json", lambda r: r["base"].update(objects="abc")),
     ["--suite", "bundle-axioms"]),
    ("eta-raw-list", _edited("z4_twist.json", lambda r: r.update(eta={"raw": [1]})),
     ["--suite", "twisted-bundle"]),
    # an integer field reads a JSON int alone: not inf, a float, a bool or a string
    ("triple-lower-inf", _edited("s3_cocycle.json", lambda r: r["triple"].update(
        lower=[0, 1, float("inf")])), ["--suite", "prop51"]),
    ("triple-lower-float", _edited("s3_cocycle.json", lambda r: r["triple"].update(lower=[0, 1, 2.5])),
     ["--suite", "prop51"]),
    ("triple-lower-bool", _edited("s3_cocycle.json", lambda r: r["triple"].update(lower=[0, True, 2])),
     ["--suite", "prop51"]),
    ("triple-lower-string", _edited("s3_cocycle.json", lambda r: r["triple"].update(lower=[0, 1, "2"])),
     ["--suite", "prop51"]),
    # a cover key is an integer in canonical decimal: these would all be read as an index
    ("cover-key-spaced", _edited("s3_cocycle.json", lambda r: r["cover"].update({" 1": ["a3"]})),
     ["--suite", "cocycle"]),
    ("cover-key-leading-zero", _edited("s3_cocycle.json", lambda r: r["cover"].update({"01": ["a3"]})),
     ["--suite", "cocycle"]),
    ("cover-key-underscore", _edited("s3_cocycle.json", lambda r: r["cover"].update({"1_0": ["a3"]})),
     ["--suite", "cocycle"]),
    ("connection-group-dim-inf", _edited("so3_decorated.json", lambda r: r["connection"].update(
        group_dim=float("inf"))), ["--suite", "prop62"]),
    ("connection-group-dim-float", _edited("so3_decorated.json", lambda r: r["connection"].update(
        group_dim=3.7)), ["--suite", "prop62"]),
    ("connection-base-dim-float", _edited("so3_decorated.json", lambda r: r["connection"].update(
        base_dim=2.0)), ["--suite", "prop62"]),
    ("connection-base-dim-bool", _edited("so2_transport.json", lambda r: r["connection"].update(
        base_dim=True)), ["--suite", "prop62"]),
    ("s3-image-list-float", _edited("s3_quiver.json", lambda r: r["functors"]["sigma1"].update(
        a=[0, 1.9, 2])), ["--suite", "prop41-section"]),
    ("s3-image-list-bool", _edited("s3_quiver.json", lambda r: r["functors"]["sigma1"].update(
        a=[True, False, 2])), ["--suite", "prop41-section"]),
    # a cycle entry is an ASCII decimal without sign or leading zero: int()
    # would read each of these as 2
    *[(f"s3-cycle-{label}", _edited("s3_quiver.json", lambda r, c=cycle: r["functors"]["sigma1"].update(
        a=c)), ["--suite", "prop41-section"])
      for label, cycle in (("arabic-indic-digit", "(0 \u0662)"), ("plus-sign", "(0 +2)"),
                           ("leading-zero", "(0 02)"))],
    ("z4-code-arabic-indic-digit", _edited("z4_twist.json", lambda r: r["eta"]["table"].update(f="\u0663")),
     ["--suite", "twisted-bundle"]),
    ("eta-from-connection-string", _edited("so2_transport.json", lambda r: r["eta"].update(
        from_connection="no")), ["--suite", "twisted-bundle"]),
    ("eta-two-kinds", _edited("so2_transport.json", lambda r: r.update(
        eta={"from_connection": True, "table": {}})), ["--suite", "twisted-bundle"]),
    # read before any arithmetic: is_skew would warn on inf - inf, and CI makes that an error
    ("connection-matrix-inf", _edited("so2_transport.json", lambda r: r["connection"].update(
        matrices=[[[0.0, -float("inf")], [float("inf"), 0.0]]])), ["--suite", "prop62"]),
    ("steps-above-maximum", _edited("so3_decorated.json", lambda r: r.update(steps=2**20 + 1)),
     ["--suite", "transport-convergence"]),
    ("steps-override-above-maximum", _edited("so3_decorated.json", lambda r: None),
     [*_transport("diag"), "--steps", str(2**20 + 1)]),
    *[(f"{label}-{'transport' if argv[0] == 'transport' else argv[1]}", raw, argv)
      for label, raw, argvs in PATH_BASE_CONTRADICTIONS for argv in argvs],
]


@pytest.mark.parametrize("label,raw,args", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_scenario_exits_2_without_traceback(tmp_path, label, raw, args):
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(raw))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    command, args = (args[0], args[1:]) if args[0] == "transport" else ("run", args)
    proc = subprocess.run(
        [sys.executable, "-m", "catbundle.cli", command, "--scenario", str(path), *args],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("label,raw", [pytest.param(label, raw, id=label) for label, raw, _
                                       in PATH_BASE_CONTRADICTIONS if label.startswith("path-")])
def test_a_bad_declared_path_is_named(tmp_path, capsys, label, raw):
    # the fault is the declaration, found where the scenario is read, not in transport
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(raw))
    assert main(["transport", "--scenario", str(path), "--path", "unit"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad path 'unit'") and "'base.paths.unit'" in err, err


def test_a_1d_base_takes_its_points_as_numbers(tmp_path, capsys):
    # the same path as [[0.0], [0.5], [1.0]], whose transport it prints
    outs = []
    for points in ([0.0, 0.5, 1.0], [[0.0], [0.5], [1.0]]):
        path = tmp_path / "path.json"
        path.write_text(json.dumps(_edited("so2_transport.json",
                                           lambda r: r["base"]["paths"].update(unit=points))))
        assert main(["transport", "--scenario", str(path), "--path", "unit"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_transport_steps_override_is_validated(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "catbundle.cli", "transport", "--scenario",
         str(SCEN / "so2_transport.json"), "--path", "unit", "--steps", "0"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
