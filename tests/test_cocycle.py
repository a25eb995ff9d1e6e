import numpy as np
import pytest

from catbundle import cocycle as cocycle_mod
from catbundle.basecat import QuiverCategory
from catbundle.bundle import FunctorUG, functor_invariant_witness
from catbundle.cocycle import (
    CocycleConditionError,
    CocycleData,
    Cover,
    MixedTrivialization,
    OverlapCategory,
    TrivializationFamily,
    build_theta,
    constructive_cocycle,
    restrict_overlap_functor,
    transition_from_trivializations,
    triple_transformation,
    verify_cocycle_condition,
    verify_prop51,
    verify_transition_cocycle,
)
from catbundle.crossed import CompositionUndefined, get_module
from catbundle.groups import StructuralError, perm_from_cycles, perm_inv, perm_mul
from per_case import non_identity_morphisms, perturbed_pair, perturbed_triple

S3 = get_module("s3-conj")
Z4A = get_module("z4-abelian")


def p(text):
    """The code of an S3 element written in cycles."""
    return S3.G.code(perm_from_cycles(text, 3))


def perm(code):
    """The image tuple an S3 code stands for."""
    return S3.G.values[code]


def six_object_setup():
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


def test_cover_must_cover():
    base = QuiverCategory(["a", "b"], [("f", "a", "b")])
    cover = Cover.from_dict({"0": ["a"]})
    with pytest.raises(StructuralError):
        cover.check_covers(base)


def test_single_index_overlap_recovers_tagged_base():
    base = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=2)
    cover = Cover.from_dict({"0": ["a", "b"]})
    ov = OverlapCategory(base, cover, (0,), (0,))
    assert [(tag, pt) for tag, pt in ov.objects] == [((0,), "a"), ((0,), "b")]
    # identities (2) and the arrow; identity words are not duplicated
    assert len(ov.morphisms) == 3


def test_disjoint_overlap_is_empty_not_an_error():
    base = QuiverCategory(["a", "b"], [("f", "a", "b")])
    cover = Cover.from_dict({"0": ["a"], "1": ["b"]})
    ov = OverlapCategory(base, cover, (0, 1), (0, 1))
    assert ov.objects == [] and ov.morphisms == []


def test_four_object_overlap_hand_enumeration():
    base = QuiverCategory(["a", "b", "c", "d"], [("f", "b", "c")], word_bound=2)
    cover = Cover.from_dict({"1": ["a", "b", "c"], "2": ["b", "c", "d"], "3": ["a", "c", "d"]})
    ov = OverlapCategory(base, cover, (1, 2), (2, 3))
    # lower: U1∩U2 = {b, c}; upper: U2∩U3 = {c, d}
    assert ov.objects == [((1, 2), "b"), ((1, 2), "c"), ((2, 3), "c"), ((2, 3), "d")]
    # 4 identities + arrow f (b->c) + the tagged identity word at c
    assert len(ov.morphisms) == 6


def test_overlap_composition_identity_only():
    base = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=2)
    cover = Cover.from_dict({"0": ["a", "b"], "1": ["a", "b"]})
    ov = OverlapCategory(base, cover, (0, 1), (0, 1))
    non_id = [m for m in ov.morphisms if not m.is_identity]
    f = next(m for m in non_id if m.base.word == ("f",))
    id_src = next(m for m in ov.morphisms if m.is_identity and m.source == f.source)
    assert ov.compose(f, id_src) == f
    with pytest.raises(CompositionUndefined):
        ov.compose(f, f)
    # composable_pairs lists each defined composite once: m∘id and id∘m
    pairs = list(ov.composable_pairs())
    assert len(pairs) == len(set(pairs)) == 2 * len(ov.morphisms) - len(ov.objects)
    assert all(ov.compose(m2, m1) in (m1, m2) for m2, m1 in pairs)


def test_constructive_cocycle_passes():
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    report = verify_cocycle_condition(data, cover, S3)
    assert report.passed
    assert report.records[0].exhaustive


def test_classical_additive_cocycle():
    # abelian H, h_ijk = e, h_ik = h_ij + h_jk: the classical condition
    base, cover = six_object_setup()
    c = {i: {pt: (3 * i + hash(pt) % 4) % 4 for pt in cover.sets[i]} for i in cover.index_set}
    pairs = {}
    triples = {}
    for i in cover.index_set:
        for j in cover.index_set:
            pairs[(i, j)] = {pt: (c[j][pt] - c[i][pt]) % 4 for pt in cover.intersection((i, j))}
            for k in cover.index_set:
                triples[(i, j, k)] = {pt: 0 for pt in cover.intersection((i, j, k))}
    data = CocycleData(pairs, triples)
    assert verify_cocycle_condition(data, cover, Z4A).passed


def test_perturbation_gives_localized_witness():
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    bad = perturbed_triple(data, S3, 3, 4, 5, "a4", p("(0 1)"))
    report = verify_cocycle_condition(bad, cover, S3)
    record = report.records[0]
    assert not record.passed
    assert (record.witness["i"], record.witness["j"], record.witness["k"]) == (3, 4, 5)
    assert record.witness["point"] == "a4"


def test_theta_is_functor_and_identity_values():
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    ov = OverlapCategory(base, cover, (0, 1), (3, 4))
    theta = build_theta(data, S3, ov)
    assert functor_invariant_witness(theta) is None
    for m in ov.morphisms:
        if m.is_identity:
            val = theta.apply(m)
            assert val.h == S3.H.identity
            assert val.g == S3.tau(data.h_pair(*m.source[0], m.source[1]))


def test_theta_h_component_permutation_oracle():
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    ov = OverlapCategory(base, cover, (0, 1), (3, 4))
    theta = build_theta(data, S3, ov)
    for m in non_identity_morphisms(ov):
        want = perm_mul(perm(data.h_pair(3, 4, m.target[1])),
                        perm_inv(perm(data.h_pair(0, 1, m.source[1]))))
        assert perm(theta.apply(m).h) == want
        # target coherence: tau(h)·g_ik(source) = g_jl(target)
        got_target = S3.G.mul(S3.tau(theta.apply(m).h), theta.apply(m).g)
        assert got_target == S3.tau(data.h_pair(3, 4, m.target[1]))


def test_restriction_retags_without_changing_values():
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    pair_ov = OverlapCategory(base, cover, (0, 1), (3, 4))
    theta = build_theta(data, S3, pair_ov)
    triple = OverlapCategory(base, cover, (0, 1, 2), (3, 4, 5))
    restricted = restrict_overlap_functor(theta, triple)
    for x in triple.objects:
        assert restricted.g(x) == theta.g((theta.base.lower, x[1])
                                                          if x[0] == triple.lower
                                                          else (theta.base.upper, x[1]))
    # wrong pattern is refused
    other = OverlapCategory(base, cover, (1, 0), (4, 3))
    with pytest.raises(StructuralError):
        restrict_overlap_functor(build_theta(data, S3, other), triple)


def test_empty_triple_restriction():
    base = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=2)
    cover = Cover.from_dict({"0": ["a", "b"], "1": ["a", "b"], "2": []})
    triple = OverlapCategory(base, cover, (0, 1, 2), (0, 1, 2))
    assert triple.objects == []
    data = constructive_cocycle(cover, S3, np.random.default_rng(1))
    ov = OverlapCategory(base, cover, (0, 1), (0, 1))
    theta = build_theta(data, S3, ov)
    restricted = restrict_overlap_functor(theta, triple)
    assert restricted.g_table == {} and restricted.h_gen == {}


def test_prop51_abelian_trivial_case_is_equality():
    base, cover = six_object_setup()
    # additive abelian cocycle with h_ijk = 0: theta products equal theta_im
    c = {i: {pt: (i + 2 * (hash(pt) % 2)) % 4 for pt in cover.sets[i]} for i in cover.index_set}
    pairs = {}
    triples = {}
    for i in cover.index_set:
        for j in cover.index_set:
            pairs[(i, j)] = {pt: (c[j][pt] - c[i][pt]) % 4 for pt in cover.intersection((i, j))}
            for k in cover.index_set:
                triples[(i, j, k)] = {pt: 0 for pt in cover.intersection((i, j, k))}
    data = CocycleData(pairs, triples)
    triple = OverlapCategory(base, cover, (0, 1, 2), (3, 4, 5))
    T = triple_transformation(data, Z4A, triple)
    assert all(v == 0 for v in T.hT.values())
    assert T.source.eq(T.target)
    assert verify_prop51(data, Z4A, triple).passed


def test_prop51_s3_exhaustive_and_nontrivial(monkeypatch):
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    triple = OverlapCategory(base, cover, (0, 1, 2), (3, 4, 5))
    built, build = [], cocycle_mod.build_theta
    monkeypatch.setattr(cocycle_mod, "build_theta", lambda data, cm, ov: (
        built.append((ov.lower, ov.upper)) or build(data, cm, ov)))
    report = verify_prop51(data, S3, triple)
    assert report.passed
    # the transformation and the theta-functor law share one build of each theta
    assert built == [((0, 1), (3, 4)), ((1, 2), (4, 5)), ((0, 2), (3, 5))]
    assert all(r.exhaustive for r in report.records)
    # the strict equality of Eq 5.21 does NOT hold for generic cocycle data:
    # the transformation is genuinely needed
    T = triple_transformation(data, S3, triple)
    assert not T.source.eq(T.target)


def test_prop51_gauge_chain_replay_on_one_morphism():
    # replay the gauge-transformation computation for one concrete morphism
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    triple = OverlapCategory(base, cover, (0, 1, 2), (3, 4, 5))
    T = triple_transformation(data, S3, triple)
    m = next(mm for mm in non_identity_morphisms(triple))
    s_pt, t_pt = m.source[1], m.target[1]
    # H-component of the pointwise product, via the conjugation form
    h_prod = perm(T.target.apply(m).h)
    conj = lambda a, b: perm_mul(perm_mul(a, b), perm_inv(a))
    h = lambda i, j, pt: perm(data.h_pair(i, j, pt))
    want_prod = perm_mul(
        perm_mul(h(3, 4, t_pt), perm_inv(h(0, 1, s_pt))),
        conj(h(0, 1, s_pt), perm_mul(h(4, 5, t_pt), perm_inv(h(1, 2, s_pt)))),
    )
    assert h_prod == want_prod
    # gauge transform by the triple values and compare with the theta_im part
    gauged = perm_mul(perm_mul(perm_inv(perm(T.hT[m.target])), h_prod), perm(T.hT[m.source]))
    assert gauged == perm_mul(h(3, 5, t_pt), perm_inv(h(0, 2, s_pt)))


def test_prop51_refuses_on_broken_cocycle():
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    bad = perturbed_triple(data, S3, 0, 1, 2, "a0", p("(0 1 2)"))
    triple = OverlapCategory(base, cover, (0, 1, 2), (3, 4, 5))
    with pytest.raises(CocycleConditionError):
        triple_transformation(bad, S3, triple)


def test_transitions_satisfy_defining_property():
    base, cover = six_object_setup()
    family = TrivializationFamily.seeded(S3, cover, np.random.default_rng(11))
    ov = OverlapCategory(base, cover, (0, 1), (3, 4))
    phi_to = family.trivialization(0, 3)
    phi_from = family.trivialization(1, 4)
    sigma = transition_from_trivializations(phi_to, phi_from, ov)
    assert functor_invariant_witness(sigma) is None
    for x in ov.objects:
        side = "lower" if x[0] == ov.lower else "upper"
        lhs = phi_to.obj_to_bundle(side, x[1], sigma.g(x))
        rhs = phi_from.obj_to_bundle(side, x[1], S3.G.identity)
        assert lhs == rhs
    for m in ov.morphisms:
        src = "lower" if m.source[0] == ov.lower else "upper"
        dst = "lower" if m.target[0] == ov.lower else "upper"
        lhs = phi_to.mor_to_bundle(m.base, sigma.apply(m), src, dst)
        rhs = phi_from.mor_to_bundle(m.base, S3.unit, src, dst)
        assert S3.m_eq(lhs, rhs)


@pytest.mark.parametrize("name", ["s3-conj", "so3-conj"])
def test_transition_refuses_a_trivialization_that_is_not_equivariant(name):
    # a trivialization that ignores the acting element on objects; SO(3) has
    # no element list, so the probes are one stack of fixed elements per
    # object, as on a finite module
    cm = get_module(name)
    base, cover = six_object_setup()
    family = TrivializationFamily.seeded(cm, cover, np.random.default_rng(11))

    class IgnoresG(MixedTrivialization):
        def obj_to_bundle(self, side, pt, g):
            return super().obj_to_bundle(side, pt, cm.G.identity)

    overlap = OverlapCategory(base, cover, (0, 1), (3, 4))
    phi_to, phi_from = family.trivialization(0, 3), family.trivialization(1, 4)
    assert functor_invariant_witness(transition_from_trivializations(phi_to, phi_from, overlap)) is None
    broken = IgnoresG(cm, 1, 4, family.h_maps[1], family.h_maps[4])
    with pytest.raises(StructuralError, match="trivialization not equivariant"):
        transition_from_trivializations(phi_to, broken, overlap)


def test_transition_cocycle_strict_equality():
    base, cover = six_object_setup()
    family = TrivializationFamily.seeded(S3, cover, np.random.default_rng(11))
    report = verify_transition_cocycle(family, base, (0, 1, 2), (3, 4, 5))
    assert report.passed
    assert report.find("transition-cocycle").exhaustive
    assert report.find("self-transition-identity").passed


def test_restriction_where_pair_tags_collapse():
    # lower (0,1,2) / upper (0,1,3): the (0,1)-restriction lands in the pair
    # overlap with equal tags, where identity words are stored as identities
    base = QuiverCategory(["x", "y"], [("f", "x", "y")], word_bound=2)
    cover = Cover.from_dict({"0": ["x", "y"], "1": ["x", "y"], "2": ["x"], "3": ["x", "y"]})
    cover.check_covers(base)
    data = constructive_cocycle(cover, S3, np.random.default_rng(3))
    triple = OverlapCategory(base, cover, (0, 1, 2), (0, 1, 3))
    id_words = [m for m in non_identity_morphisms(triple) if m.base.is_identity]
    assert id_words, "setup must produce identity-word morphisms across tags"
    pair = OverlapCategory(base, cover, (0, 1), (0, 1))
    theta = build_theta(data, S3, pair)
    restricted = restrict_overlap_functor(theta, triple)
    for m in id_words:
        val = restricted.apply(m)
        assert val.h == S3.H.identity  # h_01·h_01^-1 at the same point
    report = verify_prop51(data, S3, triple)
    assert report.passed


def test_single_pair_value_perturbation_breaks_a_check():
    # perturbing any single h value must break the cocycle condition or the
    # triple-overlap transformation, with a localized witness
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    bad = perturbed_pair(data, S3, 0, 2, "a0", p("(0 1 2)"))
    report = verify_cocycle_condition(bad, cover, S3)
    record = report.records[0]
    assert not record.passed
    assert record.witness["point"] == "a0"
    assert 0 in (record.witness["i"], record.witness["j"], record.witness["k"])
    assert 2 in (record.witness["i"], record.witness["j"], record.witness["k"])


def perturbed(F, g_at=None, h_at=None, factor=p("(0 1)")):
    """Copy of the overlap functor F with g at one object or h at one
    morphism multiplied by `factor`."""
    g_table, h_gen = dict(F.g_table), dict(F.h_gen)
    if g_at is not None:
        g_table[g_at] = S3.G.mul(factor, g_table[g_at])
    if h_at is not None:
        h_gen[h_at] = S3.H.mul(factor, h_gen[h_at])
    return FunctorUG(F.base, F.cm, g_table, h_gen)


def test_functor_witness_catches_broken_theta():
    base, cover = six_object_setup()
    data = constructive_cocycle(cover, S3, np.random.default_rng(7))
    ov = OverlapCategory(base, cover, (0, 1), (3, 4))
    theta = build_theta(data, S3, ov)
    assert functor_invariant_witness(theta) is None
    identity = ov.morphisms[0]
    arrow = non_identity_morphisms(ov)[0]
    assert identity.is_identity
    for broken, gamma in ((perturbed(theta, h_at=identity), identity),
                          (perturbed(theta, h_at=arrow), arrow)):
        witness = functor_invariant_witness(broken)
        assert witness is not None and witness["gamma"] == repr(gamma)
    # g moved at the source object of an arrow: the arrow no longer ends
    # where its target object is sent
    witness = functor_invariant_witness(perturbed(theta, g_at=arrow.source))
    assert witness is not None and witness["law"] == "target"


def test_functor_witness_catches_broken_transition(monkeypatch):
    base, cover = six_object_setup()
    family = TrivializationFamily.seeded(S3, cover, np.random.default_rng(11))
    ov = OverlapCategory(base, cover, (0, 1), (3, 4))
    sigma = transition_from_trivializations(family.trivialization(0, 3),
                                            family.trivialization(1, 4), ov)
    arrow = non_identity_morphisms(ov)[0]
    witness = functor_invariant_witness(perturbed(sigma, h_at=arrow))
    assert witness is not None and witness["gamma"] == repr(arrow)

    # the suite fails transition-functor when the transitions it builds are broken
    def broken_transition(phi_to, phi_from, overlap):
        sigma = transition_from_trivializations(phi_to, phi_from, overlap)
        return perturbed(sigma, h_at=non_identity_morphisms(overlap)[0])

    monkeypatch.setattr(cocycle_mod, "transition_from_trivializations", broken_transition)
    record = verify_transition_cocycle(family, base, (0, 1, 2), (3, 4, 5)).find("transition-functor")
    assert not record.passed and record.witness is not None
