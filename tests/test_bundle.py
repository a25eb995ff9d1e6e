import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from catbundle.basecat import QuiverCategory
from catbundle.bundle import (
    ExtractionRefused,
    FunctorUG,
    SectionIso,
    _first_repeat,
    _spread,
    constant_identity_functor,
    enumerate_functors,
    extract_functor,
    functor_from_h,
    functor_invariant_witness,
    gauge,
    identity_transf,
    nat_eq,
    nat_inverse,
    nat_pointwise_mul,
    nat_vertical_compose,
    naturality_witness,
    verify_bundle_axioms,
    verify_composition_correspondence,
    verify_GU_categorical_group,
    verify_prop31_roundtrip,
    verify_section_iso,
)
from catbundle.crossed import CompositionUndefined, TwoGroupMorphism, get_module
from catbundle.groups import FiniteGroup, perm_from_cycles, perm_inv, perm_mul, rotation2
from catbundle.report import FINITE_BLOCK
from catbundle.scenario import Scenario
from catbundle.twisted import EtaMap, TwistedBundle, TwistedMorphism, bundle_morphisms
from per_case import law_streams, reference_b1_surjectivity, reference_section_iso

Z4 = get_module("z4-conj")
S3 = get_module("s3-conj")
ARROW = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=3)
CHAIN = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)
S3_QUIVER = Path(__file__).resolve().parents[1] / "scenarios" / "s3_quiver.json"


def p(text):
    """The code of an S3 element written in cycles."""
    return S3.G.code(perm_from_cycles(text, 3))


def perm(code):
    """The image tuple an S3 code stands for."""
    return S3.G.values[code]


def where(at, x, y):
    """x where `at` holds, else y, case by case on a mask (a map written this
    way handles a stack of probes as it handles one element)."""
    if np.ndim(at) == 0:
        return x if at else y
    if isinstance(x, TwoGroupMorphism):
        return TwoGroupMorphism(where(at, x.h, y.h), where(at, x.g, y.g))
    lead = np.reshape(at, np.shape(at) + (1,) * (max(np.ndim(x), np.ndim(y)) - np.ndim(at)))
    return np.where(lead, x, y)


def assert_natural(T):
    """Object gauge (Eq 3.11), h-conjugation (Eq 3.12) on every morphism, and
    the naturality square (Eq 3.10)."""
    base, cm = T.source.base, T.source.cm
    for a in base.objects:
        assert cm.G.eq(T.target.g(a), cm.G.mul(cm.tau(T.hT[a]), T.source.g(a)))
    for gamma in base.morphisms_upto():
        want = cm.H.mul(cm.H.mul(T.hT[gamma.target], T.source.h(gamma)), cm.H.inv(T.hT[gamma.source]))
        assert cm.H.eq(T.target.h(gamma), want)
    assert naturality_witness(T) is None


def product_bundle(base, cm):
    """The product bundle: the twisted bundle with trivial eta."""
    return TwistedBundle(base, cm, EtaMap.trivial(base, cm))


def test_product_source_target():
    pb = product_bundle(ARROW, Z4)
    pm = TwistedMorphism(ARROW.arrow("f"), TwoGroupMorphism(1, 2))
    assert pb.source(pm) == ("a", 2)
    assert pb.target(pm) == ("b", 3)
    # h = e: the target group part is just g
    pm0 = TwistedMorphism(ARROW.arrow("f"), TwoGroupMorphism(0, 2))
    assert pb.target(pm0) == ("b", 2)
    idm = pb.identity("a", 1)
    assert pb.source(idm) == pb.target(idm)


def test_product_act():
    pb = product_bundle(ARROW, Z4)
    pm = TwistedMorphism(ARROW.arrow("f"), TwoGroupMorphism(1, 2))
    assert pb.morphism_eq(pb.act(pm, Z4.unit), pm)
    acted = pb.act(pm, TwoGroupMorphism(1, 1))
    assert (acted.m.h, acted.m.g) == (2, 3)

    pbs = product_bundle(ARROW, S3)
    pm = TwistedMorphism(ARROW.arrow("f"), TwoGroupMorphism(p("(0 1)"), p("(0 1 2)")))
    acted = pbs.act(pm, TwoGroupMorphism(p("(0 2)"), S3.G.identity))
    # h-part: (01)·[(012)(02)(021)] = (01)(01) = e by the permutation oracle
    assert acted.m.h == S3.H.identity
    assert acted.m.g == p("(0 1 2)")


def test_product_compose_oracle_and_guards():
    pb = product_bundle(CHAIN, Z4)
    pm1 = TwistedMorphism(CHAIN.arrow("f"), TwoGroupMorphism(2, 1))
    pm2 = TwistedMorphism(CHAIN.arrow("g"), TwoGroupMorphism(1, 3))
    comp = pb.compose(pm2, pm1)
    assert comp.gamma.word == ("f", "g")
    assert (comp.m.h, comp.m.g) == (3, 1)
    assert pb.morphism_eq(pb.compose(pb.identity("c", Z4.target(comp.m)), comp), comp)

    # base composable but group boundary mismatched
    bad = TwistedMorphism(CHAIN.arrow("g"), TwoGroupMorphism(1, 0))
    with pytest.raises(CompositionUndefined) as err:
        pb.compose(bad, pm1)
    assert "source" in str(err.value)
    # base mismatch names the base component
    with pytest.raises(CompositionUndefined) as err2:
        pb.compose(pm1, pm1)
    assert "base" in str(err2.value)


def test_functor_from_h_constant():
    F = functor_from_h(CHAIN, S3, {o: p("(0 1)") for o in CHAIN.objects})
    for m in CHAIN.morphisms_upto():
        assert F.h(m) == S3.H.identity
    gs = {F.g(o) for o in CHAIN.objects}
    assert len(gs) == 1


def test_functor_from_h_permutation_oracle():
    # h(a) = (0 1), h(b) = (0 1 2): the arrow value is h(b)·h(a)^-1
    F = functor_from_h(ARROW, S3, {"a": p("(0 1)"), "b": p("(0 1 2)")})
    expected = perm_mul(perm(p("(0 1 2)")), perm_inv(perm(p("(0 1)"))))
    assert expected == perm(p("(0 2)"))
    assert perm(F.h(ARROW.arrow("f"))) == expected


def test_functor_telescoping_matches_fold():
    h_obj = {"a": p("(0 1)"), "b": p("(1 2)"), "c": p("(0 1 2)")}
    F = functor_from_h(CHAIN, S3, h_obj)
    for m2, m1 in CHAIN.composable_pairs():
        comp = CHAIN.compose(m2, m1)
        want = perm_mul(perm(h_obj[comp.target]), perm_inv(perm(h_obj[comp.source])))
        assert perm(F.h(comp)) == want == perm(S3.H.mul(F.h(m2), F.h(m1)))


def test_functor_apply_and_verify():
    F = functor_from_h(CHAIN, S3, {"a": p("(0 1)"), "b": p("(1 2)"), "c": p("(0 2)")})
    ida = CHAIN.identity("a")
    assert S3.m_eq(F.apply(ida), S3.identity_morphism(F.g("a")))
    for m in CHAIN.morphisms_upto():
        assert S3.G.eq(S3.source(F.apply(m)), F.g(m.source))
    assert functor_invariant_witness(F) is None


def test_prop31_roundtrip_every_functor_on_three_objects():
    report = verify_prop31_roundtrip(CHAIN, S3, budget=300)
    assert report.passed
    assert all(r.exhaustive for r in report.records)
    assert report.find("roundtrip-invariants").checks == 6 ** 3


def test_telescoping_fails_when_arrows_take_their_h_values_in_the_other_order(monkeypatch):
    # functors whose arrow values are h(src)^-1·h(dst) instead of
    # h(dst)·h(src)^-1: the generator fold no longer telescopes, and on S3
    # the first functor where they differ shows it at the composite g∘f
    def swapped(base, cm, h_obj):
        g_table = {a: cm.tau(h_obj[a]) for a in base.objects}
        h_gen = {f: cm.H.mul(cm.H.inv(h_obj[src]), h_obj[dst]) for f, (src, dst) in base.arrows.items()}
        return FunctorUG(base, cm, g_table, h_gen)

    monkeypatch.setattr("catbundle.bundle.functor_from_h", swapped)
    record = verify_prop31_roundtrip(CHAIN, S3, budget=300).find("telescoping")
    assert (record.status, record.checks, record.exhaustive) == ("fail", 9, True)
    assert record.witness == {"gamma2": "g∘f:a->c", "gamma1": "id_a:a->a"}


def test_pointwise_product_and_inverse():
    F1 = functor_from_h(CHAIN, S3, {"a": p("(0 1)"), "b": p("(1 2)"), "c": p("(0 2)")})
    F2 = functor_from_h(CHAIN, S3, {"a": p("(0 1 2)"), "b": p("e"), "c": p("(0 1)")})
    E = constant_identity_functor(CHAIN, S3)
    assert F1.mul(F1.inv()).eq(E)
    assert functor_invariant_witness(F2.mul(F1)) is None
    assert functor_invariant_witness(F1.inv()) is None
    # abelian instance commutes
    A1 = functor_from_h(CHAIN, Z4, {"a": 1, "b": 2, "c": 3})
    A2 = functor_from_h(CHAIN, Z4, {"a": 3, "b": 0, "c": 1})
    assert A1.mul(A2).eq(A2.mul(A1))


def test_product_functor_preserves_composition_exhaustively():
    F1 = functor_from_h(CHAIN, S3, {"a": p("(0 1)"), "b": p("(1 2)"), "c": p("(0 2)")})
    F2 = functor_from_h(CHAIN, S3, {"a": p("(0 1 2)"), "b": p("(0 2 1)"), "c": p("e")})
    prod = F2.mul(F1)
    for m2, m1 in CHAIN.composable_pairs():
        lhs = prod.apply(CHAIN.compose(m2, m1))
        rhs = S3.compose_vertical(prod.apply(m2), prod.apply(m1))
        assert S3.m_eq(lhs, rhs)


def test_enumerate_functors_counts():
    # tau = id: g free on objects, h determined per arrow
    assert len(enumerate_functors(ARROW, Z4)) == 16
    # tau trivial: g constant on the connected quiver, h free per arrow
    assert len(enumerate_functors(ARROW, get_module("z4-z2"))) == 8


def test_abelian_functor_products_commute_exhaustively():
    fs = enumerate_functors(ARROW, Z4)
    for F1 in fs:
        for F2 in fs:
            assert F1.mul(F2).eq(F2.mul(F1))


def test_gauge_transformation_laws():
    F1 = functor_from_h(CHAIN, S3, {"a": p("(0 1)"), "b": p("(1 2)"), "c": p("(0 2)")})
    hT = {"a": p("(0 1 2)"), "b": p("(0 1)"), "c": p("e")}
    T = gauge(F1, hT)
    assert_natural(T)
    # identity transformation is neutral for vertical composition
    T2 = gauge(T.target, {"a": p("(0 2)"), "b": p("(1 2)"), "c": p("(0 1)")})
    assert nat_eq(nat_vertical_compose(T2, identity_transf(T2.source)), T2)
    comp = nat_vertical_compose(T2, T)
    assert comp.source.eq(F1) and comp.target.eq(T2.target)
    for a in CHAIN.objects:
        assert comp.hT[a] == S3.H.mul(T2.hT[a], T.hT[a])


def test_exchange_law_318_replay_on_s3_witness():
    # both sides of the exchange law evaluated pointwise at one object
    F1 = functor_from_h(ARROW, S3, {"a": p("(0 1)"), "b": p("(1 2)")})
    Fp1 = functor_from_h(ARROW, S3, {"a": p("(0 2)"), "b": p("e")})
    T1 = gauge(F1, {"a": p("(0 1 2)"), "b": p("(0 1)")})
    T2 = gauge(T1.target, {"a": p("(1 2)"), "b": p("(0 2 1)")})
    Tp1 = gauge(Fp1, {"a": p("e"), "b": p("(0 1)")})
    Tp2 = gauge(Tp1.target, {"a": p("(0 2)"), "b": p("(0 1 2)")})
    lhs = nat_vertical_compose(nat_pointwise_mul(Tp2, T2), nat_pointwise_mul(Tp1, T1))
    rhs = nat_pointwise_mul(nat_vertical_compose(Tp2, Tp1), nat_vertical_compose(T2, T1))
    assert nat_eq(lhs, rhs)
    for a in ARROW.objects:
        assert S3.m_eq(lhs.at(a), rhs.at(a))
    # products and composites carry consistent stored targets
    for T in (lhs, rhs, nat_pointwise_mul(Tp1, T1), nat_vertical_compose(T2, T1)):
        assert_natural(T)


def test_nat_inverse():
    F1 = functor_from_h(ARROW, S3, {"a": p("(0 1)"), "b": p("(1 2)")})
    T = gauge(F1, {"a": p("(0 1 2)"), "b": p("(0 1)")})
    E = constant_identity_functor(ARROW, S3)
    assert nat_eq(nat_pointwise_mul(T, nat_inverse(T)), identity_transf(E))


def test_gu_group_single_object_base_inherits_laws():
    point = QuiverCategory(["a"], [], word_bound=2)
    report = verify_GU_categorical_group(point, Z4, budget=10**5)
    assert report.passed
    assert all(r.exhaustive for r in report.records)


def test_gu_group_z4_exhaustive():
    report = verify_GU_categorical_group(ARROW, get_module("z4-z2"), budget=20000)
    assert report.passed
    assert all(r.exhaustive for r in report.records)
    assert report.find("exchange-law-functors").checks == 16384


def test_gu_group_broken_module_fails():
    report = verify_GU_categorical_group(ARROW, get_module("z2-s3-broken"), budget=4000,
                                         streams=law_streams(0))
    assert not report.passed


def test_trivial_section_gives_identity_map():
    arrow = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=2)
    E = constant_identity_functor(arrow, Z4)
    iso = SectionIso(E)
    pb = product_bundle(arrow, Z4)
    for a in arrow.objects:
        for g in Z4.G.elements:
            assert iso.on_object(a, g) == (a, g)
    morphisms = list(bundle_morphisms(pb))
    assert len(morphisms) == len(arrow.morphisms_upto()) * 16
    for pm in morphisms:
        assert pb.morphism_eq(iso.on_morphism(pm), pm)


def test_section_iso_suite_s3():
    F = functor_from_h(CHAIN, S3, {"a": p("(0 1)"), "b": p("(1 2)"), "c": p("(0 2)")})
    report = verify_section_iso(F, budget=20000)
    assert report.passed
    assert report.find("bijectivity-objects").passed
    assert report.find("bijectivity-morphisms").passed


def test_section_iso_no_collisions_by_search():
    F = functor_from_h(ARROW, Z4, {"a": 1, "b": 3})
    iso = SectionIso(F)
    seen = set()
    for a in ARROW.objects:
        for g in Z4.G.elements:
            seen.add(iso.on_object(a, g))
    assert len(seen) == len(ARROW.objects) * 4


# -- Prop 4.1 in blocks, against the element-by-element reference --

def s3_quiver_functors() -> list:
    """The shipped s3_quiver scenario's two section functors, in name order."""
    sc = Scenario.load(S3_QUIVER)
    cm, base = sc.crossed_module(), sc.quiver()
    return [functor_from_h(base, cm, table) for _, table in sorted(sc.functors(cm, base).items())]


def assert_same_records(got, want):
    assert [r.law for r in got.records] == [r.law for r in want.records]
    assert got.to_jsonl() == want.to_jsonl()  # status, checks, exhaustive and witness per law


@pytest.mark.parametrize("budget", [5, 12, 20_000])
@pytest.mark.parametrize("which", [0, 1])
def test_section_laws_in_blocks_equal_the_per_element_reference(which, budget):
    F = s3_quiver_functors()[which]
    got = verify_section_iso(F, budget, law_streams(1))
    assert_same_records(got, reference_section_iso(F, budget, law_streams(1)))
    assert got.passed
    assert [got.find(law).checks for law in ("bijectivity-objects", "bijectivity-morphisms")] == [1, 1]


def _at(x, name: str, base: QuiverCategory):
    """Whether x is the object or arrow `name`: a bool for one object name
    or morphism, a mask for a block of object indices or morphism codes."""
    if name in base.objects:
        return x == (base.objects.index(name) if isinstance(x, np.ndarray) else name)
    arrow = base.arrow(name)
    return x == (base.code(arrow) if isinstance(x, np.ndarray) else arrow)


def _breaks(kind: str, base: QuiverCategory, cm):
    """A SectionIso method broken at one point, case by case on a block:
    `on_object` sends (b, g1) where (b, e) goes, `on_morphism` sends (f, m1)
    where (f, unit) goes, and `inv_object` and `inv_morphism` right-multiply
    their value at (b, g1) or (f, m1) by a non-unit, so it has no preimage."""
    G, g1, m1, k = cm.G, 3, TwoGroupMorphism(1, 2), TwoGroupMorphism(1, 1)
    original = getattr(SectionIso, kind)

    def hit(x):
        if isinstance(x, TwistedMorphism):
            return _at(x.gamma, "f", base) & cm.m_eq(x.m, m1)
        return _at(x[0], "b", base) & G.eq(x[1], g1)

    if kind == "on_object":
        return lambda self, a, g: original(self, a, where(hit((a, g)), G.identity, g))
    if kind == "on_morphism":
        return lambda self, tm: original(self, TwistedMorphism(tm.gamma, where(hit(tm), cm.unit, tm.m)))
    if kind == "inv_object":
        def inv_object(self, a, g):
            out = original(self, a, g)
            return out[0], where(hit((a, g)), G.mul(out[1], k.g), out[1])
        return inv_object

    def inv_morphism(self, tm):
        out = original(self, tm)
        return TwistedMorphism(out.gamma, where(hit(tm), cm.sdp_multiply(out.m, k), out.m))
    return inv_morphism


@pytest.mark.parametrize("budget", [5, 12, 20_000])
@pytest.mark.parametrize("kind, law, witness", [
    ("on_object", "bijectivity-objects", {"collision": "('b', 0) vs ('b', 3)"}),
    ("inv_object", "bijectivity-objects", {"no-preimage": "b"}),
    ("on_morphism", "bijectivity-morphisms", {"collision": "f:a->b"}),
    ("inv_morphism", "bijectivity-morphisms", {"no-preimage": "f:a->b"}),
])
def test_broken_section_maps_fail_as_in_the_per_element_reference(kind, law, witness, budget,
                                                                   monkeypatch):
    F = s3_quiver_functors()[0]
    monkeypatch.setattr(SectionIso, kind, _breaks(kind, F.base, F.cm))
    got = verify_section_iso(F, budget, law_streams(1))
    assert_same_records(got, reference_section_iso(F, budget, law_streams(1)))
    record = got.find(law)
    assert not record.passed and record.checks == 1 and record.witness == witness


@pytest.mark.parametrize("seed", range(20))
def test_first_repeat_finds_what_a_loop_over_seen_rows_finds(seed):
    rng = np.random.default_rng(seed)
    n, spans = int(rng.integers(0, 40)), rng.integers(1, 9, size=3)
    columns = [rng.integers(-s, s, size=n) for s in spans]
    seen, want = {}, None
    for i, row in enumerate(zip(*(c.tolist() for c in columns))):
        if row in seen:
            want = (seen[row], i)
            break
        seen[row] = i
    assert _first_repeat(*columns) == want


def test_section_laws_make_no_single_code_multiplication_per_case(monkeypatch):
    # the section laws multiply blocks of codes; single codes are multiplied
    # only to fill each functor's per-code h table, once per arrow of a base
    # morphism's word, and none once it is filled
    Fs = s3_quiver_functors()
    calls = []
    mul = FiniteGroup.mul
    monkeypatch.setattr(FiniteGroup, "mul", lambda self, a, b: calls.append(
        max(np.size(a), np.size(b))) or mul(self, a, b))
    for F in Fs:
        assert verify_section_iso(F, 20_000, law_streams(1)).passed
    letters = sum(len(m.word) for m in Fs[0].base.morphisms_upto())
    assert calls.count(1) <= len(Fs) * letters
    assert all(n <= FINITE_BLOCK for n in calls) and FINITE_BLOCK in calls
    calls.clear()
    assert verify_section_iso(Fs[0], 20_000, law_streams(1)).passed
    assert calls and 1 not in calls


def test_extract_functor_roundtrip_and_composition():
    F1 = functor_from_h(ARROW, Z4, {"a": 1, "b": 2})
    F2 = functor_from_h(ARROW, Z4, {"a": 3, "b": 1})
    assert extract_functor(SectionIso(F1), ARROW, Z4).eq(F1)
    report = verify_composition_correspondence(F2, F1)
    assert report.passed


def test_extract_functor_refuses_bad_input():
    class NotFiberPreserving:
        def on_object(self, a, g):
            return ("b", g)

        def on_morphism(self, pm):
            return pm

    with pytest.raises(ExtractionRefused):
        extract_functor(NotFiberPreserving(), ARROW, Z4)

    class NotEquivariant:
        def on_object(self, a, g):
            return (a, Z4.G.mul(g, g))

        def on_morphism(self, pm):
            return pm

    with pytest.raises(ExtractionRefused):
        extract_functor(NotEquivariant(), ARROW, Z4)


@pytest.mark.parametrize("arrow", ["f", "g"])
def test_extract_functor_probes_equivariance_on_every_arrow(arrow):
    # the section map of F, except that acting on a lift of `arrow` is
    # ignored: fiber-preserving, and a functor on the unit lifts, but not
    # equivariant on that one arrow
    F = functor_from_h(CHAIN, S3, {"a": p("(0 1)"), "b": p("(1 2)"), "c": p("(0 2)")})
    iso = SectionIso(F)

    class BreaksOneArrow:
        on_object = staticmethod(iso.on_object)

        def on_morphism(self, tm):
            image = iso.on_morphism(tm)
            if tm.gamma != CHAIN.arrow(arrow):
                return image
            return TwistedMorphism(tm.gamma, where(S3.m_eq(tm.m, S3.unit), image.m, tm.m))

    with pytest.raises(ExtractionRefused, match=f"not equivariant at arrow {arrow}:"):
        extract_functor(BreaksOneArrow(), CHAIN, S3)


@pytest.mark.parametrize("name", ["so2-conj", "so3-conj"])
def test_extract_functor_probes_equivariance_on_an_infinite_module(name):
    # an endofunctor that ignores g on objects: fiber-preserving and a functor
    # on the unit lifts, but not equivariant; SO(n) has no element list, so
    # the probes are fixed elements spread over the group
    cm = get_module(name)
    rng = np.random.default_rng(3)
    F = functor_from_h(ARROW, cm, {"a": cm.H.sample(rng), "b": cm.H.sample(rng)})
    iso = SectionIso(F)

    class IgnoresG:
        def on_object(self, a, g):
            return iso.on_object(a, cm.G.identity)

        on_morphism = staticmethod(iso.on_morphism)

    assert extract_functor(iso, ARROW, cm).eq(F)
    with pytest.raises(ExtractionRefused, match="not equivariant at object 'a'"):
        extract_functor(IgnoresG(), ARROW, cm)


@pytest.mark.parametrize("name", ["s3-conj", "so2-conj", "so3-conj"])
def test_extract_functor_probes_every_map_with_one_stack(name, monkeypatch):
    # a SectionIso and any other map, here one that wraps the same section,
    # get the probes of each object and each arrow as one stack
    cm = get_module(name)
    rng = np.random.default_rng(3)
    F = functor_from_h(CHAIN, cm, {o: cm.H.sample(rng) for o in CHAIN.objects})
    iso = SectionIso(F)
    single = 0 if cm.is_finite else 2
    calls = []

    def count_object(self, a, g, on_object=SectionIso.on_object):
        calls.append(np.ndim(g))
        return on_object(iso, a, g)

    def count_morphism(self, tm, on_morphism=SectionIso.on_morphism):
        calls.append(np.ndim(tm.m.g))
        return on_morphism(iso, tm)

    class Wrapper:
        on_object = count_object
        on_morphism = count_morphism

    assert extract_functor(Wrapper(), CHAIN, cm).eq(F)
    wrapped = list(calls)
    calls.clear()
    monkeypatch.setattr(SectionIso, "on_object", count_object)
    monkeypatch.setattr(SectionIso, "on_morphism", count_morphism)
    assert extract_functor(iso, CHAIN, cm).eq(F)
    assert calls == wrapped
    # objects: 3 calls at the identity, 1 on the stack; arrows: 2 + 1
    assert len(calls) == 4 * len(CHAIN.objects) + 3 * len(CHAIN.arrows)
    assert calls.count(single + 1) == len(CHAIN.objects) + len(CHAIN.arrows)
    assert set(calls) == {single, single + 1}


def _probes(cm):
    """The g- and m-probes extract_functor checks on `cm`."""
    if cm.is_finite:
        return cm.G.elements[:8], list(itertools.islice(cm.morphism_space(), 12))
    return _spread(cm.G, 8, 1), list(map(TwoGroupMorphism, _spread(cm.H, 12, 9), _spread(cm.G, 12, 21)))


# the section's H values at objects a and b: neither is the identity at a
BREAK_AT_ONE_PROBE = {"s3-conj": (4, 0), "so2-conj": (rotation2(-2.6), rotation2(-1.65))}


@pytest.mark.parametrize("name", ["s3-conj", "so2-conj"])
def test_extract_functor_refuses_a_map_that_breaks_at_one_probe(name):
    # maps that break equivariance at one probe only, written case by case
    # with the module's own `eq` masks: extraction probes one stack and
    # names the first failing probe
    cm = get_module(name)
    F = functor_from_h(ARROW, cm, dict(zip("ab", BREAK_AT_ONE_PROBE[name])))
    assert not cm.G.eq(F.g("a"), cm.G.identity)
    iso = SectionIso(F)
    gs, ms = _probes(cm)
    g0, m0 = gs[3], ms[5]

    class BreaksAtOneG:
        def on_object(self, a, g):
            return (a, where(cm.G.eq(g, g0), g, iso.on_object(a, g)[1]))

        on_morphism = staticmethod(iso.on_morphism)

    class BreaksAtOneM:
        on_object = staticmethod(iso.on_object)

        def on_morphism(self, tm):
            return TwistedMorphism(tm.gamma, where(cm.m_eq(tm.m, m0), tm.m, iso.on_morphism(tm).m))

    with pytest.raises(ExtractionRefused, match=f"not equivariant at object 'a', g={re.escape(cm.G.fmt(g0))}"):
        extract_functor(BreaksAtOneG(), ARROW, cm)
    with pytest.raises(ExtractionRefused, match="not equivariant at arrow f:"):
        extract_functor(BreaksAtOneM(), ARROW, cm)


def test_bundle_axioms_product():
    report = verify_bundle_axioms(CHAIN, Z4, budget=20000)
    assert report.passed


def test_bundle_axioms_b1_fails_when_target_leaves_the_base_morphism(monkeypatch):
    # a target map that sends every lift to the object "a" no longer lies
    # over the base: the first lift that ends elsewhere is the witness (on a
    # block of morphism codes, "a" is object index 0)
    monkeypatch.setattr(TwistedBundle, "target", lambda self, tm: (
        np.zeros_like(tm.gamma) if isinstance(tm.gamma, np.ndarray) else "a", tm.m.g))
    record = verify_bundle_axioms(CHAIN, Z4, budget=20000).find("b1-surjectivity")
    assert not record.passed
    assert record.witness == {"missing": "'b'"}
    assert record.checks == 2


def s3_quiver_product() -> tuple:
    sc = Scenario.load(S3_QUIVER)
    return sc.quiver(), sc.crossed_module()


@pytest.mark.parametrize("broken", [False, True])
@pytest.mark.parametrize("budget", [5, 20_000])
@pytest.mark.parametrize("case", ["chain", "s3_quiver"])
def test_b1_surjectivity_in_one_block_equals_the_listed_reference(case, budget, broken,
                                                                  monkeypatch):
    # objects then morphisms, coded: one block when the space fits the
    # budget, the same picks otherwise; broken, the target of every lift is
    # the first object, so the first lift elsewhere is the witness
    base, cm = (CHAIN, Z4) if case == "chain" else s3_quiver_product()
    if broken:
        monkeypatch.setattr(TwistedBundle, "target", lambda self, tm: (
            np.zeros_like(tm.gamma) if isinstance(tm.gamma, np.ndarray) else base.objects[0],
            tm.m.g))
    got = verify_bundle_axioms(base, cm, budget, law_streams(1)).find("b1-surjectivity")
    want = reference_b1_surjectivity(base, cm, budget, law_streams(1)).records[0]
    assert (got.status, got.checks, got.exhaustive, got.witness) == (
        want.status, want.checks, want.exhaustive, want.witness)
    assert got.passed != broken and got.space == len(base.objects) + len(base.morphisms_upto())
    if budget > got.space and not broken:
        assert (got.blocks, got.singles) == (1, 0)


def test_scenario_so3_element_forms():
    from catbundle.scenario import parse_element, ScenarioError
    so3 = get_module("so3-conj").G
    a = parse_element(so3, {"axis": [0, 0, 1], "angle": 0.4})
    import math
    c, s = math.cos(0.4), math.sin(0.4)
    assert np.allclose(a, [[c, -s, 0], [s, c, 0], [0, 0, 1]], atol=1e-14)
    b = parse_element(so3, np.eye(3).tolist())
    assert np.array_equal(b, np.eye(3))
    with pytest.raises(ScenarioError):
        parse_element(so3, (2 * np.eye(3)).tolist())
