import numpy as np
import pytest

from catbundle.crossed import (
    CompositionUndefined,
    CrossedModule,
    TwoGroupMorphism,
    catalog,
    get_module,
    verify_crossed_module,
    verify_exchange_law,
)
from catbundle.groups import (
    CyclicGroup,
    FiniteGroup,
    StructuralError,
    perm_from_cycles,
    perm_inv,
    perm_mul,
)
from per_case import law_streams

Z4 = get_module("z4-conj")
S3 = get_module("s3-conj")


def p(text):
    """The code of an S3 element written in cycles."""
    return S3.G.code(perm_from_cycles(text, 3))


def perm(code):
    """The image tuple an S3 code stands for."""
    return S3.G.values[code]


def test_catalog_contents():
    cat = catalog()
    assert "s3-conj" in cat and "z4-abelian" in cat
    broken = [name for name, cm in cat.items() if cm.broken]
    assert broken == ["z2-s3-broken"]
    assert list(cat) == sorted(cat, key=list(cat).index)  # ordering is stable


def test_source_target_and_identity():
    m = TwoGroupMorphism(1, 2)
    assert Z4.source(m) == 2
    assert Z4.target(m) == 3  # tau = id: 1 + 2 mod 4
    assert Z4.m_eq(Z4.identity_morphism(2), TwoGroupMorphism(0, 2))


def test_sdp_multiply_abelian_oracle():
    # addition mod 4 in both components (the action is trivial)
    got = Z4.sdp_multiply(TwoGroupMorphism(1, 2), TwoGroupMorphism(3, 1))
    assert (got.h, got.g) == (0, 3)


def test_sdp_multiply_unit():
    for cm in (Z4, S3):
        m = TwoGroupMorphism(cm.H.elements[3], cm.G.elements[2])
        assert cm.m_eq(cm.sdp_multiply(cm.unit, m), m)
        assert cm.m_eq(cm.sdp_multiply(m, cm.unit), m)


def test_sdp_multiply_s3_conjugation_oracle():
    # H-component is h2·(g2 h1 g2^-1), computed here with raw permutations
    h2, g2, h1 = p("(0 1)"), p("(0 1 2)"), p("(0 2)")
    got = S3.sdp_multiply(TwoGroupMorphism(h2, g2), TwoGroupMorphism(h1, S3.G.identity))
    conj = perm_mul(perm_mul(perm(g2), perm(h1)), perm_inv(perm(g2)))
    assert conj == perm(p("(0 1)"))  # (012)(02)(021) = (01)
    assert perm(got.h) == perm_mul(perm(h2), conj) == perm(S3.H.identity)
    assert got.g == g2


def test_sdp_inverse():
    assert Z4.m_eq(Z4.sdp_inverse(TwoGroupMorphism(0, 3)), TwoGroupMorphism(0, 1))
    got = Z4.sdp_inverse(TwoGroupMorphism(1, 2))
    assert (got.h, got.g) == (3, 2)
    for cm in (Z4, S3):
        for h in cm.H.elements:
            for g in cm.G.elements:
                m = TwoGroupMorphism(h, g)
                assert cm.m_eq(cm.sdp_multiply(m, cm.sdp_inverse(m)), cm.unit)
                assert cm.m_eq(cm.sdp_multiply(cm.sdp_inverse(m), m), cm.unit)


def test_compose_vertical_oracle_and_boundaries():
    got = Z4.compose_vertical(TwoGroupMorphism(1, 3), TwoGroupMorphism(2, 1))
    assert (got.h, got.g) == (3, 1)
    m = TwoGroupMorphism(2, 1)
    assert Z4.m_eq(Z4.compose_vertical(Z4.identity_morphism(Z4.target(m)), m), m)
    assert Z4.source(got) == Z4.source(m)


def test_compose_vertical_guard():
    with pytest.raises(CompositionUndefined) as err:
        Z4.compose_vertical(TwoGroupMorphism(1, 0), TwoGroupMorphism(1, 0))
    assert err.value.target_value == 1
    assert err.value.source_value == 0


def test_compositional_inverse():
    assert Z4.m_eq(Z4.compositional_inverse(TwoGroupMorphism(0, 2)), TwoGroupMorphism(0, 2))
    got = Z4.compositional_inverse(TwoGroupMorphism(1, 2))
    assert (got.h, got.g) == (3, 3)
    got = S3.compositional_inverse(TwoGroupMorphism(p("(0 1)"), S3.G.identity))
    assert got.h == p("(0 1)") and got.g == p("(0 1)")
    for cm in (Z4, S3):
        for h in cm.H.elements:
            for g in cm.G.elements:
                m = TwoGroupMorphism(h, g)
                inv = cm.compositional_inverse(m)
                assert cm.m_eq(cm.compose_vertical(inv, m), cm.identity_morphism(cm.source(m)))


def test_compose_vertical_associative_when_defined():
    for h1 in Z4.H.elements:
        for g1 in Z4.G.elements:
            m1 = TwoGroupMorphism(h1, g1)
            for h2 in Z4.H.elements:
                m2 = TwoGroupMorphism(h2, Z4.target(m1))
                for h3 in Z4.H.elements:
                    m3 = TwoGroupMorphism(h3, Z4.target(m2))
                    lhs = Z4.compose_vertical(Z4.compose_vertical(m3, m2), m1)
                    rhs = Z4.compose_vertical(m3, Z4.compose_vertical(m2, m1))
                    assert Z4.m_eq(lhs, rhs)


def test_verify_crossed_module_positive_entries():
    for name in ("z4-conj", "s3-conj", "z4-abelian", "z4-z2"):
        report = verify_crossed_module(get_module(name), 10**5)
        assert report.passed, name
        assert all(r.exhaustive for r in report.records), name


def test_verify_crossed_module_matrix_entries_sampled():
    for name in ("so2-conj", "so3-conj"):
        report = verify_crossed_module(get_module(name), 500, law_streams(0))
        assert report.passed, name
        assert not any(r.exhaustive for r in report.records)


def test_broken_module_fails_peiffer_with_genuine_witness():
    cm = get_module("z2-s3-broken")
    report = verify_crossed_module(cm, 10**5)
    assert not report.passed
    bad = report.find("peiffer")
    assert bad.status == "fail"
    h, h2 = p(bad.witness["h"]), p(bad.witness["h2"])
    # recompute: the witness must genuinely violate the Peiffer law
    assert perm(cm.alpha(cm.tau(h), h2)) != perm_mul(perm_mul(perm(h), perm(h2)), perm_inv(perm(h)))
    # and the other axioms hold
    for law in ("tau-homomorphism", "alpha-automorphism", "alpha-family-homomorphism"):
        assert report.find(law).passed


def test_non_homomorphic_tau_fails_tau_homomorphism():
    # tau sends the codes of Z2 to the same codes in Z4: tau(1·1) = 0, but tau(1)·tau(1) = 2
    cm = CrossedModule("z2-into-z4", CyclicGroup(4), CyclicGroup(2),
                       alpha=lambda g, h: h, tau=lambda h: h)
    report = verify_crossed_module(cm, 10**5)
    bad = report.find("tau-homomorphism")
    assert (bad.status, bad.exhaustive, bad.checks) == ("fail", True, 4)
    assert bad.witness == {"h": "1", "h2": "1"}
    target = report.find("target-homomorphism")
    assert (target.status, target.checks) == ("fail", 37)


def test_spec_witness_pair_violates_peiffer():
    # transpositions (0 1) and (0 2): conjugation gives (1 2), not (0 2)
    cm = get_module("z2-s3-broken")
    h, h2 = p("(0 1)"), p("(0 2)")
    assert perm_mul(perm_mul(perm(h), perm(h2)), perm_inv(perm(h))) == perm(p("(1 2)"))
    assert cm.alpha(cm.tau(h), h2) == h2  # trivial action leaves h2 fixed


def test_structural_error_is_distinct_from_axiom_failure():
    z4 = CyclicGroup(4)
    with pytest.raises(StructuralError):
        CrossedModule("bad", z4, z4, alpha=lambda g, h: 17, tau=lambda h: h)


def test_exchange_law_z4_exhaustive():
    report = verify_exchange_law(Z4, 10**5)
    record = report.records[0]
    assert record.passed and record.exhaustive and record.checks == 4096


def test_exchange_law_identity_quadruple():
    e = Z4.unit
    lhs = Z4.compose_vertical(Z4.sdp_multiply(e, e), Z4.sdp_multiply(e, e))
    assert Z4.m_eq(lhs, e)


def test_exchange_law_so2_sampled():
    report = verify_exchange_law(get_module("so2-conj"), 10**4, law_streams(1))
    record = report.records[0]
    assert record.passed and not record.exhaustive and record.checks == 10**4


def test_exchange_law_fails_on_broken_module():
    report = verify_exchange_law(get_module("z2-s3-broken"), 10**5)
    record = report.records[0]
    assert not record.passed
    assert record.witness is not None


def test_gh_hg_order_helpers():
    # in (h, g) coordinates the string g·h is (alpha_g(h), g) and h·g is (h, g)
    g, h = p("(0 1 2)"), p("(0 1)")
    gh = TwoGroupMorphism(S3.alpha(g, h), g)
    hg = TwoGroupMorphism(h, g)
    # the strings g·h and h·g denote different morphisms unless they commute
    assert S3.m_eq(gh, S3.sdp_multiply(TwoGroupMorphism(S3.H.identity, g),
                                       TwoGroupMorphism(h, S3.G.identity)))
    assert S3.m_eq(hg, S3.sdp_multiply(TwoGroupMorphism(h, S3.G.identity),
                                       TwoGroupMorphism(S3.H.identity, g)))
    assert not S3.m_eq(gh, hg)


@pytest.mark.parametrize("name", [n for n, cm in catalog().items() if cm.is_finite])
def test_alpha_tau_tables_equal_the_defining_formulas(name):
    # the int tables, decoded, against the closed forms on the values
    cm = get_module(name)
    G, H = cm.G, cm.H
    assert cm.alpha_table.shape == (len(G.values), len(H.values))
    assert cm.tau_table.shape == (len(H.values),)
    for h in H.elements:
        want_tau = H.values[h] if name.endswith("-conj") else G.values[G.identity]
        assert G.values[cm.tau_table[h]] == want_tau and cm.tau(h) == cm.tau_table[h]
        for g in G.elements:
            vg, vh = G.values[g], H.values[h]
            if name == "s3-conj":  # G = H, alpha_g(h) = g h g^-1, tau = id
                want = perm_mul(perm_mul(vg, vh), perm_inv(vg))
            elif name == "z4-conj":
                want = (vg + vh - vg) % 4
            else:  # trivial action, trivial tau
                want = vh
            assert H.values[cm.alpha_table[g, h]] == want
            assert cm.alpha(g, h) == cm.alpha_table[g, h] and type(cm.alpha(g, h)) is int


def test_tabulated_alpha_and_tau_reject_non_elements():
    for bad_g, bad_h in ((4, 0), (0, 4), ("0", 0), ([0], 0)):
        with pytest.raises(StructuralError):
            Z4.alpha(bad_g, bad_h)
    for bad in ((0, 1), (0, 1, 2), -1, 6):
        with pytest.raises(StructuralError):
            S3.alpha(S3.G.identity, bad)
    for bad in (4, [0]):
        with pytest.raises(StructuralError):
            Z4.tau(bad)


def test_get_module_builds_only_the_requested_module(monkeypatch):
    built = []
    real_init = FiniteGroup.__init__

    def counting_init(self, name, *args):
        built.append(name)
        real_init(self, name, *args)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    assert get_module("z4-z2").name == "z4-z2"
    assert built == ["z4", "z2"]
    built.clear()
    get_module("so3-conj")
    assert built == []
    with pytest.raises(KeyError, match="known: z4-conj"):
        get_module("nope")
