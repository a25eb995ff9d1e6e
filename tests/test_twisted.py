import numpy as np
import pytest

from catbundle.basecat import PathCategory, QuiverCategory, SampledPath
from catbundle.crossed import CompositionUndefined, TwoGroupMorphism, get_module
from catbundle.groups import perm_from_cycles, perm_inv, perm_mul, rotation2
from catbundle.twisted import (
    EtaMap,
    TwistedBundle,
    TwistedMorphism,
    verify_action_functorial,
    verify_E_properties,
    verify_twisted_bundle,
)
from per_case import law_streams

Z4 = get_module("z4-conj")
S3 = get_module("s3-conj")
SO2 = get_module("so2-conj")
CHAIN = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)


def p(text):
    """The code of an S3 element written in cycles."""
    return S3.G.code(perm_from_cycles(text, 3))


def perm(code):
    """The image tuple an S3 code stands for."""
    return S3.G.values[code]


def z4_twist() -> TwistedBundle:
    return TwistedBundle(CHAIN, Z4, EtaMap.from_table(CHAIN, Z4, {"f": 1, "g": 2}))


def test_trivial_twist_reduces_to_product_bundle_bitwise():
    # the product bundle's closed forms on Z4 = Z/4 with tau = id and a
    # trivial action: t(gamma, h, g) = (t(gamma), h + g), and
    # (gamma2, h2, g2) ∘ (gamma1, h1, g1) = (gamma2 ∘ gamma1, h2 + h1, g1)
    tb = TwistedBundle(CHAIN, Z4, EtaMap.trivial(CHAIN, Z4))
    ms = CHAIN.morphisms_upto()
    for gamma in ms:
        for h in Z4.H.elements:
            for g in Z4.G.elements:
                tm = TwistedMorphism(gamma, TwoGroupMorphism(h, g))
                assert tb.source(tm) == (gamma.source, g)
                assert tb.target(tm) == (gamma.target, (h + g) % 4)
    # composition agrees wherever the product composition is defined
    for m2, m1 in CHAIN.composable_pairs():
        for h1 in Z4.H.elements:
            for g1 in Z4.G.elements:
                for h2 in Z4.H.elements:
                    tm1 = TwistedMorphism(m1, TwoGroupMorphism(h1, g1))
                    g2 = (h1 + g1) % 4
                    tm2 = TwistedMorphism(m2, TwoGroupMorphism(h2, g2))
                    tcomp = tb.compose(tm2, tm1)
                    assert (tcomp.gamma.source, tcomp.gamma.target) == (m1.source, m2.target)
                    assert tcomp.gamma.word == m1.word + m2.word
                    assert (tcomp.m.h, tcomp.m.g) == ((h2 + h1) % 4, g1)


def test_identity_morphism_has_equal_boundaries():
    tb = z4_twist()
    idm = tb.identity("a", 2)
    assert tb.source(idm) == tb.target(idm) == ("a", 2)


def test_twisted_target_so2_rotation_oracle():
    base = PathCategory(1)
    theta, phi = 0.7, -0.4
    eta = EtaMap(base, SO2, lambda gamma: rotation2(theta))
    tb = TwistedBundle(base, SO2, eta)
    tm = TwistedMorphism(SampledPath([[0.0], [1.0]]),
                         TwoGroupMorphism(SO2.H.identity, rotation2(phi)))
    pt, g = tb.target(tm)
    assert np.allclose(g, rotation2(theta + phi), atol=1e-12)


def test_twisted_compose_guard_carries_boundaries():
    tb = z4_twist()
    tm1 = TwistedMorphism(CHAIN.arrow("f"), TwoGroupMorphism(1, 1))
    bad = TwistedMorphism(CHAIN.arrow("g"), TwoGroupMorphism(0, 0))
    with pytest.raises(CompositionUndefined) as err:
        tb.compose(bad, tm1)
    # eta(f)+tau(1)+1 = 1+1+1 = 3
    assert err.value.target_value == 3
    assert err.value.source_value == 0


def test_twisted_compose_s3_conjugation_oracle():
    base = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=2)
    eta = EtaMap.from_table(base, S3, {"f": p("(0 1 2)"), "g": p("e")})
    tb = TwistedBundle(base, S3, eta)
    h1, g1, h2 = p("(0 1)"), p("(0 2)"), p("(1 2)")
    tm1 = TwistedMorphism(base.arrow("f"), TwoGroupMorphism(h1, g1))
    g2 = S3.G.mul(eta(base.arrow("f")), S3.G.mul(S3.tau(h1), g1))
    tm2 = TwistedMorphism(base.arrow("g"), TwoGroupMorphism(h2, g2))
    comp = tb.compose(tm2, tm1)
    # H-part: (eta^-1 h2 eta)·h1 with eta = (0 1 2), by the permutation oracle
    conj = perm_mul(perm_mul(perm_inv(perm(p("(0 1 2)"))), perm(h2)), perm(p("(0 1 2)")))
    assert perm(comp.m.h) == perm_mul(conj, perm(h1))
    assert comp.m.g == g1
    assert tb.target(comp) == tb.target(tm2)


def test_compose_with_identity_at_matched_boundary():
    tb = z4_twist()
    tm = TwistedMorphism(CHAIN.arrow("f"), TwoGroupMorphism(1, 2))
    src = tb.identity(*tb.source(tm))
    tgt = tb.identity(*tb.target(tm))
    assert tb.morphism_eq(tb.compose(tm, src), tm)
    assert tb.morphism_eq(tb.compose(tgt, tm), tm)


def test_act_by_identity_and_boundary_compat():
    tb = z4_twist()
    tm = TwistedMorphism(CHAIN.arrow("f"), TwoGroupMorphism(1, 2))
    assert tb.morphism_eq(tb.act(tm, Z4.unit), tm)
    m1 = TwoGroupMorphism(3, 1)
    acted = tb.act(tm, m1)
    assert tb.target(acted)[1] == Z4.G.mul(tb.target(tm)[1], Z4.target(m1))


def test_E_properties_direct():
    tb = z4_twist()
    phi = TwoGroupMorphism(1, 2)
    # (i) identity in the base leaves phi unchanged
    assert Z4.m_eq(tb.E(phi, CHAIN.identity("a")), phi)
    # (ii) identity morphisms map to identity morphisms
    got = tb.E(Z4.identity_morphism(3), CHAIN.arrow("f"))
    assert Z4.m_eq(got, Z4.identity_morphism(Z4.G.mul(Z4.G.inv(1), 3)))


def test_E_composition_chain_so2():
    base = PathCategory(1)
    conn_eta = lambda gamma: rotation2(0.3 * float(gamma.end[0] - gamma.start[0]))
    eta = EtaMap(base, SO2, conn_eta)  # homomorphic in the displacement
    tb = TwistedBundle(base, SO2, eta)
    g1 = SampledPath([[0.0], [1.0]])
    g2 = SampledPath([[1.0], [3.0]])
    phi = TwoGroupMorphism(rotation2(0.5), rotation2(-0.2))
    from catbundle.basecat import compose_paths
    lhs = tb.E(phi, compose_paths(g2, g1))
    rhs = tb.E(tb.E(phi, g2), g1)
    assert SO2.m_eq(lhs, rhs)


def test_suites_pass_exhaustively_on_z4_twist():
    tb = z4_twist()
    for fn in (verify_twisted_bundle, verify_E_properties, verify_action_functorial):
        report = fn(tb, budget=20000, streams=law_streams(0))
        assert report.passed, fn.__name__


def test_twisted_bundle_so2_paths_sampled():
    base = PathCategory(1)
    eta = EtaMap(base, SO2, lambda gamma: rotation2(0.9 * float(gamma.end[0] - gamma.start[0])))
    tb = TwistedBundle(base, SO2, eta)
    report = verify_twisted_bundle(tb, budget=150, streams=law_streams(4))
    assert report.passed
    assert not report.find("associativity").exhaustive


def test_non_homomorphic_eta_fails_with_witness():
    eta = EtaMap.from_raw(CHAIN, Z4, {(): 0, ("f",): 1, ("g",): 1, ("f", "g"): 3}, default=0)
    tb = TwistedBundle(CHAIN, Z4, eta)
    report = verify_twisted_bundle(tb, budget=4000, streams=law_streams(0))
    assert not report.passed
    record = report.find("eta-homomorphism")
    assert not record.passed and record.witness is not None
