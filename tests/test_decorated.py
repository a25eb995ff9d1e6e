import json
import math
from pathlib import Path

import numpy as np
import pytest

from catbundle import decorated
from catbundle.basecat import PathCategory, SampledPath, compose_paths, constant_path
from catbundle.crossed import CompositionUndefined, TwoGroupMorphism, get_module
from catbundle.decorated import (
    Connection,
    DecoratedBundle,
    DecoratedMorphism,
    composable_pairs,
    eta_from_connection,
    observed_order,
    parallel_transport,
    verify_prop62,
    verify_transport_numerics,
)
from catbundle.groups import (StructuralError, perm_from_cycles, perm_mul, rotation2,
                              skew3, skew_exp)
from catbundle.scenario import Scenario
from catbundle.suites import run_suite
from catbundle.twisted import EtaMap
from per_case import SO2_GEN, segments
from test_so_blocks import alpha_mutant

SO2 = get_module("so2-conj")
SO3 = get_module("so3-conj")
S3 = get_module("s3-conj")

HALF_PI = math.pi / 2
SCEN = Path(__file__).resolve().parents[1] / "scenarios"


def so2_constant(theta=HALF_PI) -> Connection:
    return Connection(2, 1, [theta * SO2_GEN])


def so3_linear() -> Connection:
    C = [0.3 * skew3([1, 0, 0]), 0.2 * skew3([0, 1, 0])]
    D = [[0.25 * skew3([0, 0, 1]), 0.1 * skew3([1, 0, 0])],
         [0.15 * skew3([0, 1, 0]), 0.2 * skew3([0, 0, 1])]]
    return Connection(3, 2, C, D)


def test_connection_validation():
    with pytest.raises(StructuralError):
        Connection(2, 1, [np.eye(2)])  # not skew
    with pytest.raises(StructuralError):
        Connection(2, 2, [np.zeros((2, 2))])  # wrong count
    with pytest.raises(StructuralError):
        Connection(2, 1, [np.zeros((2, 2))], [np.zeros((2, 2))])  # linear part not 1 x 1
    with pytest.raises(StructuralError):
        Connection(2, 1, [np.zeros((2, 2))], [[np.eye(2)]])  # linear part not skew


def test_eta_from_connection_needs_G_to_be_SO_of_the_connection():
    for cm in (SO3, S3, get_module("z4-conj")):
        with pytest.raises(StructuralError):
            eta_from_connection(PathCategory(1), cm, so2_constant(), 10)


def test_connection_is_linear_in_tangent():
    conn = so3_linear()
    pt = np.array([0.4, -0.2])
    v1, v2 = np.array([1.0, 0.5]), np.array([-0.3, 2.0])
    lhs = conn.evaluate(pt, 2.0 * v1 - 0.7 * v2)
    rhs = 2.0 * conn.evaluate(pt, v1) - 0.7 * conn.evaluate(pt, v2)
    assert np.allclose(lhs, rhs, atol=1e-14)


def test_zero_connection_transports_trivially():
    conn = Connection.zero(3, 2)
    path = SampledPath([[0.0, 0.0], [1.0, 0.5], [0.2, 1.0]])
    assert np.array_equal(parallel_transport(conn, path, 50), np.eye(3))


def test_zero_length_path_gives_identity():
    conn = so2_constant()
    assert np.array_equal(parallel_transport(conn, constant_path([0.3]), 10), np.eye(2))


def test_constant_so2_closed_form():
    conn = so2_constant(0.8)
    seg = SampledPath([[0.0], [1.0]])
    got = parallel_transport(conn, seg, 100)
    assert np.max(np.abs(got - rotation2(-0.8))) < 1e-12


def test_two_segment_composition_equals_closed_form_and_product():
    conn = so2_constant(0.6)
    p1 = SampledPath([[0.0], [1.0]])
    p2 = SampledPath([[1.0], [2.0]])
    whole = compose_paths(p2, p1)
    t_whole = parallel_transport(conn, whole, 64)
    t1 = parallel_transport(conn, p1, 64)
    t2 = parallel_transport(conn, p2, 64)
    assert np.array_equal(t_whole, t2 @ t1)  # bitwise, by tree construction
    assert np.max(np.abs(t_whole - rotation2(-1.2))) < 1e-12


def test_direct_samples_match_two_piece_split_bitwise():
    conn = so2_constant(0.6)
    direct = SampledPath([[0.0], [0.5], [1.0]])
    t1 = parallel_transport(conn, SampledPath([[0.0], [0.5]]), 32)
    t2 = parallel_transport(conn, SampledPath([[0.5], [1.0]]), 32)
    assert np.array_equal(parallel_transport(conn, direct, 32), t2 @ t1)


def test_tree_multiplicativity_so3_linear():
    conn = so3_linear()
    rng = np.random.default_rng(9)
    cat = PathCategory(2)
    for _ in range(5):
        p1 = cat.random_path(rng, n_segments=2)
        p2 = cat.random_path(rng, n_segments=3, start=p1.end)
        whole = compose_paths(p2, p1)
        lhs = parallel_transport(conn, whole, 40)
        rhs = parallel_transport(conn, p2, 40) @ parallel_transport(conn, p1, 40)
        assert np.array_equal(lhs, rhs)


def test_reversal_gives_inverse():
    conn = so3_linear()
    path = SampledPath([[0.0, 0.0], [0.7, 0.3], [1.1, 1.0]])
    fwd = parallel_transport(conn, path, 200)
    bwd = parallel_transport(conn, path.reverse(), 200)
    assert np.max(np.abs(bwd @ fwd - np.eye(3))) < 1e-10


def test_observed_order_genuine_for_linear_so3():
    orders = observed_order(so3_linear(), SampledPath([[0.0, 0.0], [0.7, 0.3], [1.1, 1.0]]), 16)
    assert len(orders) == 2
    assert all(o >= 1.9 for o in orders)
    assert all(o < 3.0 for o in orders)  # genuinely second order, not exact


def test_observed_order_reports_exact_scheme_as_inf():
    orders = observed_order(so2_constant(), SampledPath([[0.0], [1.0]]), 16)
    assert all(math.isinf(o) for o in orders)


def test_step_adequacy_for_default_prop62_steps():
    # Richardson estimate at 400 steps must sit under eps_iso / 10
    conn = so3_linear()
    path = SampledPath([[0.0, 0.0], [0.8, 0.6], [1.5, 1.1]])
    est = np.max(np.abs(parallel_transport(conn, path, 800) - parallel_transport(conn, path, 400)))
    assert est < 1e-6 / 10


def test_eta_from_connection_homomorphism_bitwise():
    eta = eta_from_connection(PathCategory(1), SO2, so2_constant(0.4), 50)
    p1 = SampledPath([[0.0], [0.6]])
    p2 = SampledPath([[0.6], [1.0]])
    whole = compose_paths(p2, p1)
    assert np.array_equal(eta(whole), eta(p2) @ eta(p1))
    assert np.array_equal(eta(PathCategory(1).identity([0.2])), np.eye(2))


def test_dec_source_target():
    conn = so2_constant(0.5)
    eta = eta_from_connection(PathCategory(1), SO2, conn, 100)
    db = DecoratedBundle(SO2, eta)
    gamma = SampledPath([[0.0], [1.0]])
    # pure horizontal lift: target fiber element is the transport itself
    dm = DecoratedMorphism(gamma, SO2.G.identity, SO2.H.identity)
    pt, g = db.target(dm)
    assert np.allclose(g, rotation2(-0.5), atol=1e-12)
    # g_start = rot(phi): target G-part rotates by theta + phi
    dm2 = DecoratedMorphism(gamma, rotation2(0.3), SO2.H.identity)
    assert np.allclose(db.target(dm2)[1], rotation2(-0.5 + 0.3), atol=1e-12)
    # constant path: source and target differ only by tau(h)
    dm3 = DecoratedMorphism(constant_path([0.0]), rotation2(0.2), rotation2(0.7))
    assert np.allclose(db.target(dm3)[1],
                       SO2.G.mul(db.source(dm3)[1], SO2.tau(rotation2(0.7))), atol=1e-14)


def test_dec_act_conjugates_decoration():
    eta = eta_from_connection(PathCategory(2), SO3, so3_linear(), 50)
    db = DecoratedBundle(SO3, eta)
    rng = np.random.default_rng(3)
    gamma = PathCategory(2).random_path(rng, 2)
    dm = DecoratedMorphism(gamma, SO3.G.sample(rng), SO3.H.sample(rng))
    assert db.morphism_eq(db.act(dm, SO3.unit), dm)
    g1 = SO3.G.sample(rng)
    acted = db.act(dm, TwoGroupMorphism(SO3.H.identity, g1))
    assert np.allclose(acted.g_start, dm.g_start @ g1, atol=1e-14)
    assert np.allclose(acted.h, g1.T @ dm.h @ g1, atol=1e-13)
    # action respects targets: t(dm·m1) = t(dm)·t(m1)
    m1 = SO3.sample_morphism(rng)
    lhs = db.target(db.act(dm, m1))[1]
    rhs = SO3.G.mul(db.target(dm)[1], SO3.target(m1))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_dec_compose_boundaries_and_decoration_order():
    eta = eta_from_connection(PathCategory(1), SO2, so2_constant(0.5), 100)
    db = DecoratedBundle(SO2, eta)
    rng = np.random.default_rng(5)
    (dm2, dm1), = composable_pairs(db, 1).drawn(1, rng)
    comp = db.compose(dm2, dm1)
    assert np.allclose(comp.g_start, dm1.g_start, atol=0)
    assert np.allclose(comp.h, dm1.h @ dm2.h, atol=1e-14)  # h1·h2, not h2·h1
    assert np.max(np.abs(db.target(comp)[1] - db.target(dm2)[1])) < 1e-12
    # boundary mismatch is refused
    with pytest.raises(CompositionUndefined):
        db.compose(dm1, dm1)


def test_two_horizontal_lifts_compose_to_the_lift_of_the_composite():
    conn = so2_constant(0.4)
    eta = eta_from_connection(PathCategory(1), SO2, conn, 64)
    db = DecoratedBundle(SO2, eta)
    p1 = SampledPath([[0.0], [1.0]])
    p2 = SampledPath([[1.0], [2.0]])
    g1 = rotation2(0.9)
    dm1 = DecoratedMorphism(p1, g1, SO2.H.identity)
    dm2 = DecoratedMorphism(p2, db.target(dm1)[1], SO2.H.identity)
    comp = db.compose(dm2, dm1)
    assert SO2.H.eq(comp.h, SO2.H.identity)
    assert np.array_equal(comp.g_start, g1)
    assert np.array_equal(db.target(comp)[1], eta(comp.gamma) @ g1)


def test_decoration_order_differs_from_vertical_composition_on_s3():
    # flat finite instance: transport is trivially the identity
    base = PathCategory(1)
    eta = EtaMap.trivial(base, S3)
    db = DecoratedBundle(S3, eta)
    h1 = S3.H.code(perm_from_cycles("(0 1)", 3))
    h2 = S3.H.code(perm_from_cycles("(0 2)", 3))
    perm = S3.H.values.__getitem__
    p1 = SampledPath([[0.0], [1.0]])
    p2 = SampledPath([[1.0], [2.0]])
    dm1 = DecoratedMorphism(p1, S3.G.identity, h1)
    dm2 = DecoratedMorphism(p2, db.target(dm1)[1], h2)
    comp = db.compose(dm2, dm1)
    assert perm(comp.h) == perm_mul(perm(h1), perm(h2))
    vert = S3.compose_vertical(TwoGroupMorphism(h2, S3.tau(h1)), TwoGroupMorphism(h1, S3.G.identity))
    assert perm(vert.h) == perm_mul(perm(h2), perm(h1))
    assert comp.h != vert.h  # noncommuting decorations expose the order


def test_theta_iso_trivial_case_and_roundtrip():
    eta = eta_from_connection(PathCategory(1), SO2, so2_constant(0.5), 64)
    db = DecoratedBundle(SO2, eta)
    gamma = SampledPath([[0.0], [1.0]])
    dm = DecoratedMorphism(gamma, SO2.G.identity, SO2.H.identity)
    tm = db.theta(dm)
    assert np.array_equal(tm.m.h, np.eye(2)) and np.array_equal(tm.m.g, np.eye(2))
    tb = db.twisted()
    assert np.allclose(tb.target(tm)[1], eta(gamma), atol=1e-13)
    back = db.theta_inverse(tm)
    assert db.morphism_eq(back, dm)


def test_theta_composition_identity_so2_direct():
    eta = eta_from_connection(PathCategory(1), SO2, so2_constant(0.5), 128)
    db = DecoratedBundle(SO2, eta)
    tb = db.twisted()
    rng = np.random.default_rng(11)
    for dm2, dm1 in composable_pairs(db, 5).drawn(5, rng):
        lhs = db.theta(db.compose(dm2, dm1))
        rhs = tb.compose(db.theta(dm2), db.theta(dm1))
        assert np.array_equal(lhs.gamma.samples, rhs.gamma.samples)
        assert np.max(np.abs(lhs.m.h - rhs.m.h)) < 1e-9
        assert np.max(np.abs(lhs.m.g - rhs.m.g)) < 1e-9
        # closed form of the composite: the string g1·(h1·h2) in (h, g) coords
        want_h = SO2.alpha(dm1.g_start, SO2.H.mul(dm1.h, dm2.h))
        assert np.max(np.abs(rhs.m.h - want_h)) < 1e-9
        assert np.max(np.abs(rhs.m.g - dm1.g_start)) < 1e-9


def test_verify_prop62_so2_and_so3():
    eta2 = eta_from_connection(PathCategory(1), SO2, so2_constant(), 200)
    report = verify_prop62(SO2, eta2, n_pairs=50, rng=np.random.default_rng(5))
    assert report.passed
    eta3 = eta_from_connection(PathCategory(2), SO3, so3_linear(), 400)
    report = verify_prop62(SO3, eta3, n_pairs=50, rng=np.random.default_rng(6))
    assert report.passed
    assert report.find("theta-composition").checks == 50


def test_verify_transport_numerics_suites():
    assert verify_transport_numerics(PathCategory(1), so2_constant(), 100, np.random.default_rng(0)).passed
    assert verify_transport_numerics(PathCategory(2), so3_linear(), 100, np.random.default_rng(1)).passed


def test_theta_composition_fails_on_a_module_whose_alpha_is_not_conjugation():
    # the SO(3) alpha mutant: decorated composition and twisted composition
    # use alpha differently, so theta stops preserving composition at the
    # first pair; the conjugation module passes on the same connection
    so3_constant = Connection(3, 2, [skew3([0.3, 0.0, 0.1]), skew3([0.0, 0.2, -0.1])])
    base = PathCategory(2)
    for cm, held in ((SO3, True), (alpha_mutant(0.9), False)):
        eta = eta_from_connection(base, cm, so3_constant, 40)
        record = verify_prop62(cm, eta, n_pairs=50).find("theta-composition")
        assert (record.passed, record.checks) == ((True, 50) if held else (False, 1))


def test_composite_multiplicativity_fails_when_the_path_fold_swaps_its_operands(monkeypatch):
    # a fold that multiplies each composite's pieces first-then-second: on
    # SO(3) the composite's transport is no longer its pieces' product
    fold = decorated.path_values
    monkeypatch.setattr(decorated, "path_values", lambda path, leaf_values, mul, kept: fold(
        path, leaf_values, lambda second, first: mul(first, second), kept))
    report = verify_transport_numerics(PathCategory(2), so3_linear(), 100, np.random.default_rng(1))
    record = report.find("composite-multiplicativity")
    assert (record.passed, record.checks) == (False, 1)
    assert record.witness["max_diff"] > 0.01


def test_transport_rejects_dimension_mismatch():
    with pytest.raises(StructuralError):
        parallel_transport(so2_constant(), SampledPath([[0.0, 0.0], [1.0, 1.0]]), 10)
    with pytest.raises(StructuralError):
        parallel_transport(so2_constant(), SampledPath([[0.0], [1.0]]), 0)


def test_resampled_composition_error_shrinks_at_second_order():
    # the same geometry re-sampled with an off-center interior boundary: the
    # substep grids disagree, and the difference shrinks ~4x per step doubling
    conn = so3_linear()
    direct = SampledPath([[0.0, 0.0], [1.1, 1.0]])
    resampled = SampledPath([[0.0, 0.0], [0.44, 0.40], [1.1, 1.0]])  # 0.4 of the way
    diffs = []
    for steps in (8, 16, 32):
        d = np.max(np.abs(parallel_transport(conn, direct, steps)
                          - parallel_transport(conn, resampled, steps)))
        diffs.append(float(d))
    assert diffs[0] > 1e-8  # genuinely different discretizations
    assert diffs[0] / diffs[1] > 3.5
    assert diffs[1] / diffs[2] > 3.5


# -- the batched integrator against references computed outside it --

def random_skew(rng, n, scale):
    if n == 2:
        return float(rng.uniform(-scale, scale)) * SO2_GEN
    return skew3(rng.uniform(-scale, scale, size=3))


def random_connection(rng, group_dim, family, base_dim):
    """A seeded connection and the raw coefficient lists it was built from."""
    C = [random_skew(rng, group_dim, 1.0) for _ in range(base_dim)]
    D = None
    if family == "linear":
        D = [[random_skew(rng, group_dim, 0.5) for _ in range(base_dim)] for _ in range(base_dim)]
    return Connection(group_dim, base_dim, C, D), C, D


def connection_value(C, D, point, vector):
    """A(point) applied to vector, straight from the coefficient lists."""
    out = np.zeros_like(C[0])
    for k in range(len(C)):
        coeff = C[k]
        if D is not None:
            coeff = coeff + sum(point[l] * D[k][l] for l in range(len(C)))
        out = out + vector[k] * coeff
    return out


def loop_transport(C, D, path, steps):
    """Reference integrator: one exp(-A(midpoint)·d) per substep, each
    left-multiplied onto the running product, over every segment in order."""
    total = np.eye(C[0].shape[0])
    for leaf in path.leaves():
        for a, b in segments(leaf):
            d = (b - a) / steps
            for j in range(steps):
                mid = a + (j + 0.5) * d
                total = skew_exp(-connection_value(C, D, mid, d)) @ total
    return total


@pytest.mark.parametrize("base_dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["constant", "linear"])
@pytest.mark.parametrize("group_dim", [2, 3])
def test_batched_transport_matches_substep_loop(group_dim, family, base_dim):
    rng = np.random.default_rng([group_dim, base_dim, len(family)])
    conn, C, D = random_connection(rng, group_dim, family, base_dim)
    cat = PathCategory(base_dim)
    p = cat.random_path(rng, n_segments=2)
    paths = [p, compose_paths(cat.random_path(rng, n_segments=1, start=p.end), p)]
    eye = np.eye(group_dim)
    for steps in (1, 7, 80, 3200):  # odd counts leave an unpaired factor in the tree
        for path in paths:
            got = parallel_transport(conn, path, steps)
            assert np.max(np.abs(got - loop_transport(C, D, path, steps))) <= 1e-12
            assert np.max(np.abs(got.T @ got - eye)) <= 1e-12


def so2_integral(C, D, path):
    """Integral of the (1, 0) entry of A (constant C, linear D or None) along
    the path: on a linear segment with A affine in position, midpoint value
    times displacement is exact."""
    total = 0.0
    for leaf in path.leaves():
        for a, b in segments(leaf):
            mid = (a + b) / 2
            for k in range(len(C)):
                coeff = C[k][1, 0] + sum(mid[l] * D[k][l][1, 0] for l in range(len(C) if D else 0))
                total += (b[k] - a[k]) * coeff
    return total


@pytest.mark.parametrize("base_dim", [1, 2, 3])
def test_so2_transport_is_rotation_by_minus_integral(base_dim):
    rng = np.random.default_rng(40 + base_dim)
    conn, C, D = random_connection(rng, 2, "linear", base_dim)
    cat = PathCategory(base_dim)
    p = cat.random_path(rng, n_segments=3)
    q = cat.random_path(rng, n_segments=2, start=p.end)
    for path in (p, q, compose_paths(q, p), compose_paths(compose_paths(q.reverse(), q), p)):
        want = rotation2(-so2_integral(C, D, path))
        for steps in (1, 7, 80):
            assert np.max(np.abs(parallel_transport(conn, path, steps) - want)) <= 1e-12


def test_corrupted_connection_fails_the_batched_skew_check():
    rng = np.random.default_rng(8)
    for family in ("constant", "linear"):
        conn, _, _ = random_connection(rng, 3, family, 2)
        path = PathCategory(2).random_path(rng, n_segments=2)
        parallel_transport(conn, path, 20)
        stored = conn.constant if family == "constant" else conn.linear
        stored[0, ..., 0, 1] += 0.5  # A's values are no longer skew
        with pytest.raises(StructuralError, match="not skew"):
            parallel_transport(conn, path, 20)


@pytest.mark.parametrize("scenario, suite, leaves", [
    ("so2_transport", "twisted-bundle", 1808), ("so2_transport", "e-action", 312),
    ("so2_transport", "prop62", 100), ("so3_decorated", "prop62", 100)],
    ids=["twisted-bundle", "e-action", "prop62", "so3_decorated-prop62"])
def test_the_twist_integrates_each_leaf_of_a_shipped_run_once(scenario, suite, leaves, monkeypatch):
    # every path the twist hands to transport is a leaf, and none twice: the
    # twist keeps the values of the leaves it has met, prop62's blocks
    # made by PathBlock.where included
    handed, transport = [], decorated.parallel_transport

    def counted(conn, path, steps):
        handed.extend(path)
        return transport(conn, path, steps)

    monkeypatch.setattr(decorated, "parallel_transport", counted)
    sc = Scenario(json.loads((SCEN / f"{scenario}.json").read_text()))
    assert run_suite(sc, suite).passed
    assert all(leaf.pieces is None for leaf in handed)
    assert len(set(map(id, handed))) == len(handed) == leaves
