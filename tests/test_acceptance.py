"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""
import math
import time
from pathlib import Path

import numpy as np

from catbundle.basecat import PathCategory, QuiverCategory, SampledPath
from catbundle.bundle import (
    functor_from_h,
    verify_composition_correspondence,
    verify_GU_categorical_group,
    verify_prop31_roundtrip,
    verify_section_iso,
)
from catbundle.cli import main as cli_main
from catbundle.cocycle import (
    Cover,
    OverlapCategory,
    TrivializationFamily,
    constructive_cocycle,
    verify_cocycle_condition,
    verify_prop51,
    verify_transition_cocycle,
)
from catbundle.crossed import catalog, get_module, verify_crossed_module, verify_exchange_law
from catbundle.decorated import (
    Connection,
    eta_from_connection,
    observed_order,
    parallel_transport,
    verify_prop62,
)
from catbundle.groups import perm_from_cycles, perm_inv, perm_mul, rotation2, skew3
from catbundle.twisted import EtaMap, TwistedBundle, TwistedMorphism, verify_E_properties, verify_twisted_bundle
from catbundle.crossed import TwoGroupMorphism
from per_case import SO2_GEN, law_streams, perturbed_triple

REPO = Path(__file__).resolve().parents[1]
SCEN = REPO / "scenarios"


def report_line(num: int, ok: bool, text: str):
    print(f"CRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, text


def test_criterion_1_crossed_module_axioms():
    ok = True
    for name, cm in catalog().items():
        if not cm.is_finite or cm.broken:
            continue
        assert cm.G.order * cm.H.order ** 2 <= 10**5
        t0 = time.perf_counter()
        report = verify_crossed_module(cm, 10**5)
        elapsed = time.perf_counter() - t0
        ok &= report.passed and elapsed < 5.0
        ok &= all(r.exhaustive for r in report.records)
    broken = get_module("z2-s3-broken")
    report = verify_crossed_module(broken, 10**5)
    bad = report.find("peiffer")
    ok &= (not report.passed) and bad.witness is not None
    S3 = broken.H
    h = S3.code(perm_from_cycles(bad.witness["h"], 3))
    h2 = S3.code(perm_from_cycles(bad.witness["h2"], 3))
    conj = perm_mul(perm_mul(S3.values[h], S3.values[h2]), perm_inv(S3.values[h]))
    ok &= S3.values[broken.alpha(broken.tau(h), h2)] != conj
    report_line(1, ok, "crossed-module axioms: positive entries exhaustive, broken entry "
                       "fails with a concrete witness")


def test_criterion_2_exchange_law():
    r_z4 = verify_exchange_law(get_module("z4-conj"), 10**5).records[0]
    r_s3 = verify_exchange_law(get_module("s3-conj"), 10**5).records[0]
    ok = r_z4.passed and r_z4.exhaustive and r_s3.passed and r_s3.exhaustive
    for name, seed in (("so2-conj", 1), ("so3-conj", 2)):
        cm = get_module(name)
        assert cm.G.tol == 1e-9  # stated tolerance
        r = verify_exchange_law(cm, 10**4, law_streams(seed)).records[0]
        ok &= r.passed and r.checks >= 10**4
    report_line(2, ok, "exchange law exhaustive on Z4 and S3; >=1e4 sampled quadruples "
                       "on SO(2)/SO(3) within 1e-9")


def test_criterion_3_prop31_roundtrip():
    base = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)
    report = verify_prop31_roundtrip(base, get_module("s3-conj"), budget=300)
    ok = report.passed and all(r.exhaustive for r in report.records)
    ok &= report.find("roundtrip-invariants").checks == 216  # every functor
    report_line(3, ok, "Prop 3.1 round-trip: invariants exact and functoriality exhaustive "
                       "for all 216 functors on the 3-object quiver")


def test_criterion_4_gu_categorical_group():
    arrow = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=3)
    t0 = time.perf_counter()
    report = verify_GU_categorical_group(arrow, get_module("z4-z2"), budget=20000)
    elapsed = time.perf_counter() - t0
    ok = report.passed and all(r.exhaustive for r in report.records) and elapsed < 10.0
    # a conjugation Z4 instance also passes (exchange quadruples seeded-sampled)
    report2 = verify_GU_categorical_group(arrow, get_module("z4-conj"), budget=20000,
                                          streams=law_streams(0))
    ok &= report2.passed
    report_line(4, ok, f"G^U categorical-group suite exhaustive on the Z4 quiver instance "
                       f"in {elapsed:.1f}s (< 10s)")


def test_criterion_5_sections_and_trivializations():
    z4 = get_module("z4-conj")
    s3 = get_module("s3-conj")
    arrow = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=3)
    chain = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)
    p3 = lambda t: s3.G.code(perm_from_cycles(t, 3))
    F_a = functor_from_h(arrow, z4, {"a": 1, "b": 3})
    F_b = functor_from_h(chain, s3, {"a": p3("(0 1)"), "b": p3("(1 2)"), "c": p3("(0 2)")})
    ok = True
    for F in (F_a, F_b):
        rep = verify_section_iso(F, budget=20000)
        ok &= rep.passed
        for law in ("bijectivity-objects", "bijectivity-morphisms",
                    "equivariance-morphisms", "fiber-preservation", "composition-preservation"):
            ok &= rep.find(law).passed
    F2 = functor_from_h(arrow, z4, {"a": 2, "b": 1})
    ok &= verify_composition_correspondence(F2, F_a).passed
    report_line(5, ok, "Prop 4.1 forward direction certified on two finite instances; "
                       "Eq 4.11 correspondence passes")


def _six_object_cocycle():
    base = QuiverCategory(
        ["a0", "a1", "a2", "a3", "a4", "a5"],
        [("f1", "a0", "a4"), ("f2", "a1", "a5"), ("f3", "a0", "a5"),
         ("f4", "a1", "a4"), ("g1", "a0", "a2"), ("g2", "a2", "a4")],
        word_bound=3)
    cover = Cover.from_dict({
        "0": ["a0", "a1", "a2"], "1": ["a0", "a1", "a3"], "2": ["a0", "a1"],
        "3": ["a4", "a5"], "4": ["a4", "a5", "a2"], "5": ["a4", "a5", "a3"],
    })
    cover.check_covers(base)
    return base, cover


def test_criterion_6_cocycle_and_prop51():
    s3 = get_module("s3-conj")
    base, cover = _six_object_cocycle()
    data = constructive_cocycle(cover, s3, np.random.default_rng(7))
    ok = verify_cocycle_condition(data, cover, s3).passed
    triple = OverlapCategory(base, cover, (0, 1, 2), (3, 4, 5))
    rep = verify_prop51(data, s3, triple)
    ok &= rep.passed and all(r.exhaustive for r in rep.records)
    ok &= rep.find("prop51-naturality").checks == len(triple.morphisms)
    bad = perturbed_triple(data, s3, 3, 4, 5, "a4", s3.H.code(perm_from_cycles("(0 1)", 3)))
    record = verify_cocycle_condition(bad, cover, s3).records[0]
    ok &= (not record.passed) and record.witness["point"] == "a4" \
        and (record.witness["i"], record.witness["j"], record.witness["k"]) == (3, 4, 5)
    report_line(6, ok, "constructive S3 cocycle passes; Prop 5.1 validated on all "
                       "morphisms of the 6-object base; perturbation fails locally")


def test_criterion_7_transition_cocycle():
    s3 = get_module("s3-conj")
    base, cover = _six_object_cocycle()
    family = TrivializationFamily.seeded(s3, cover, np.random.default_rng(11))
    rep = verify_transition_cocycle(family, base, (0, 1, 2), (3, 4, 5))
    ok = rep.passed and rep.find("transition-cocycle").exhaustive
    report_line(7, ok, "transition functors from three trivializations satisfy the strict "
                       "cocycle relation exactly on a finite instance")


def test_criterion_8_twisted_bundle():
    z4 = get_module("z4-conj")
    chain = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)
    tb = TwistedBundle(chain, z4, EtaMap.from_table(chain, z4, {"f": 1, "g": 2}))
    rep1 = verify_twisted_bundle(tb, budget=200000)
    rep2 = verify_E_properties(tb, budget=200000)
    ok = rep1.passed and rep2.passed
    ok &= all(r.exhaustive for r in rep1.records) and all(r.exhaustive for r in rep2.records)

    so2 = get_module("so2-conj")
    assert so2.G.tol == 1e-9
    conn = Connection(2, 1, [0.9 * SO2_GEN])
    eta = eta_from_connection(PathCategory(1), so2, conn, 100)
    tbp = TwistedBundle(eta.base, so2, eta)
    rep3 = verify_twisted_bundle(tbp, budget=150, streams=law_streams(4))
    rep4 = verify_E_properties(tbp, budget=150, streams=law_streams(5))
    ok &= rep3.passed and rep4.passed

    # eta == e degeneration agrees with the product bundle bit-for-bit: on
    # Z4 = Z/4 with tau = id, t(gamma, h, g) = (t(gamma), h + g)
    tb0 = TwistedBundle(chain, z4, EtaMap.trivial(chain, z4))
    for gamma in chain.morphisms_upto():
        for h in z4.H.elements:
            for g in z4.G.elements:
                tm = TwistedMorphism(gamma, TwoGroupMorphism(h, g))
                ok &= (tb0.target(tm) == (gamma.target, (h + g) % 4)
                       and tb0.source(tm) == (gamma.source, g))
    report_line(8, ok, "twisted-bundle suite exhaustive on the Z4 quiver twist, sampled on "
                       "an SO(2) path twist within 1e-9; trivial twist degenerates bitwise")


def test_criterion_9_transport_numerics():
    theta = math.pi / 2
    conn = Connection(2, 1, [theta * SO2_GEN])
    seg = SampledPath([[0.0], [1.0]])
    t0 = time.perf_counter()
    got = parallel_transport(conn, seg, 10**4)
    elapsed = time.perf_counter() - t0
    err = float(np.max(np.abs(got - rotation2(-theta))))
    ok = err < 1e-9 and elapsed < 1.0

    # three step-halving refinements: observed order >= 2, allowing the ratio
    # estimator its own O(h) uncertainty (inf when the scheme is exact)
    const_orders = observed_order(conn, seg, 16)
    ok &= all(o >= 1.95 for o in const_orders)
    lin = Connection(3, 2,
                     [0.3 * skew3([1, 0, 0]), 0.2 * skew3([0, 1, 0])],
                     [[0.25 * skew3([0, 0, 1]), 0.1 * skew3([1, 0, 0])],
                      [0.15 * skew3([0, 1, 0]), 0.2 * skew3([0, 0, 1])]])
    lin_orders = observed_order(lin, SampledPath([[0.0, 0.0], [0.7, 0.3], [1.1, 1.0]]), 16)
    ok &= all(o >= 1.95 for o in lin_orders) and all(math.isfinite(o) for o in lin_orders)
    report_line(9, ok, f"transport error {err:.2e} < 1e-9 at 1e4 substeps in "
                       f"{elapsed * 1000:.0f}ms; observed orders {['%.2f' % o for o in lin_orders]} >= 2")


def test_criterion_10_prop62():
    so2, so3 = get_module("so2-conj"), get_module("so3-conj")
    t0 = time.perf_counter()
    conn2 = Connection(2, 1, [(math.pi / 2) * SO2_GEN])
    rep2 = verify_prop62(so2, eta_from_connection(PathCategory(1), so2, conn2, 200),
                         n_pairs=50, rng=np.random.default_rng(5), eps_iso=1e-6)
    conn3 = Connection(3, 2,
                       [0.3 * skew3([1, 0, 0]), 0.2 * skew3([0, 1, 0])],
                       [[0.25 * skew3([0, 0, 1]), 0.1 * skew3([1, 0, 0])],
                        [0.15 * skew3([0, 1, 0]), 0.2 * skew3([0, 0, 1])]])
    rep3 = verify_prop62(so3, eta_from_connection(PathCategory(2), so3, conn3, 400),
                         n_pairs=50, rng=np.random.default_rng(6), eps_iso=1e-6)
    elapsed = time.perf_counter() - t0
    ok = rep2.passed and rep3.passed and elapsed < 30.0
    for rep in (rep2, rep3):
        ok &= rep.find("theta-composition").checks >= 50
        ok &= rep.find("theta-inverse-roundtrip").passed
    report_line(10, ok, f"Prop 6.2 certified on 50 seeded pairs for SO(2)-constant and "
                        f"SO(3)-linear within 1e-6 in {elapsed:.1f}s (< 30s)")


def test_criterion_11_determinism(tmp_path, capsys):
    outs = []
    for name in ("r1.jsonl", "r2.jsonl"):
        out = tmp_path / name
        code = cli_main(["run", "--scenario", str(SCEN / "s3_cocycle.json"),
                         "--format", "jsonl", "--out", str(out)])
        capsys.readouterr()
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    for name in ("so3_decorated.json", "z4_twist.json"):
        blobs = []
        for _ in range(2):
            out = tmp_path / "x.jsonl"
            code = cli_main(["run", "--scenario", str(SCEN / name),
                             "--format", "jsonl", "--out", str(out)])
            capsys.readouterr()
            ok &= code == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1]
    report_line(11, ok, "repeated suite runs with the same seed produce byte-identical "
                        "machine-readable reports")
