"""Stacked parallel transport and path blocks: every leaf's transport is
bitwise the per-segment reference's, whatever else shares its stacked call
and wherever a chunk boundary falls, and within 1e-13 of the f - I matrix
integrator (SO(2) within 1e-12 of the exact rotation); the twist keeps leaf
values only while their leaves live; a path base's maps act on PathBlocks
case by case; the shipped path laws, prop62's too, pass in whole blocks, and
prop62 with a broken theta gives the per-case records; the
transport-convergence laws on stacked transports give the per-path records,
errors included; and an SO(3) module that fails on some sampled cases,
twisted by a connection, gives the reports of its committed goldens."""
import gc
import json
import math
from pathlib import Path

import numpy as np
import pytest

from catbundle import decorated
from catbundle.basecat import PathBlock, PathCategory, SampledPath, compose_paths, constant_path
from catbundle.crossed import CompositionUndefined, TwoGroupMorphism, get_module
from catbundle.decorated import (
    Connection,
    DecoratedBundle,
    eta_from_connection,
    observed_order,
    parallel_transport,
    verify_transport_numerics,
)
from catbundle.groups import rotation2
from catbundle.scenario import Scenario
from catbundle.stream import Stream
from catbundle.suites import run_suite
from catbundle.twisted import (
    TwistedBundle,
    TwistedMorphism,
    verify_action_functorial,
    verify_E_properties,
    verify_twisted_bundle,
)
from per_case import (law_streams, matrix_transport, per_case_plans, reference_evaluate,
                      reference_transport, segments, whole_blocks)
from test_decorated import random_connection, so2_integral
from test_so_blocks import alpha_mutant

GOLDEN = Path(__file__).resolve().parent / "golden"
SCEN = Path(__file__).resolve().parents[1] / "scenarios"


def leaves_with_zero_segments(rng, cat: PathCategory, n: int) -> list:
    """n random paths, a path with zero-length segments inside it, and a
    constant path (whose transport is exactly the identity)."""
    paths = [cat.random_path(rng) for _ in range(n)]
    p = paths[0].samples
    paths.append(SampledPath(np.vstack([p[:1], p[:1], p[1:], p[-1:]])))
    paths.append(constant_path(p[0]))
    return paths


@pytest.mark.parametrize("steps", [1, 7, 80, 200])
@pytest.mark.parametrize("base_dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["constant", "linear"])
@pytest.mark.parametrize("group_dim", [2, 3])
def test_stacked_leaves_are_bitwise_the_per_segment_reference(group_dim, family, base_dim, steps):
    rng = np.random.default_rng([group_dim, base_dim, len(family), steps])
    conn, _, _ = random_connection(rng, group_dim, family, base_dim)
    leaves = leaves_with_zero_segments(rng, PathCategory(base_dim), 6)
    stacked = parallel_transport(conn, PathBlock(leaves), steps)
    assert stacked.shape == (len(leaves), group_dim, group_dim)
    for leaf, value in zip(leaves, stacked):
        want = reference_transport(conn, leaf, steps)
        assert np.array_equal(value, want)
        assert np.array_equal(parallel_transport(conn, leaf, steps), want)  # alone
    assert np.array_equal(stacked[-1], np.eye(group_dim))


@pytest.mark.parametrize("family", ["constant", "linear"])
@pytest.mark.parametrize("group_dim", [2, 3])
def test_one_evaluate_per_chunk_serves_several_leaves_bitwise(group_dim, family, monkeypatch):
    # 10 steps: every nonzero segment of the 7 leaves falls in one chunk, and
    # the one evaluate takes each segment's first and last midpoint
    rng = np.random.default_rng([group_dim, len(family), 10])
    conn, _, _ = random_connection(rng, group_dim, family, 2)
    leaves = leaves_with_zero_segments(rng, PathCategory(2), 5)
    nonzero = sum(bool(np.any(b - a)) for leaf in leaves for a, b in segments(leaf))
    calls, evaluate = [], Connection.evaluate
    monkeypatch.setattr(Connection, "evaluate",
                        lambda self, p, v: calls.append((p.shape, v.shape)) or evaluate(self, p, v))
    stacked = parallel_transport(conn, PathBlock(leaves), 10)
    assert nonzero > len(leaves) and calls == [((nonzero, 2, 2), (nonzero, 2))]
    for leaf, value in zip(leaves, stacked):
        assert np.array_equal(value, reference_transport(conn, leaf, 10))


@pytest.mark.parametrize("base_dim", [1, 2, 3])
@pytest.mark.parametrize("family", ["constant", "linear"])
@pytest.mark.parametrize("group_dim", [2, 3])
def test_evaluate_at_a_batch_of_points_is_bitwise_the_reference(group_dim, family, base_dim):
    # (s, dim) points sharing one vector: a constant connection's one value
    # is broadcast, a linear one's varies per point
    rng = np.random.default_rng([group_dim, len(family), base_dim, 3])
    conn, _, _ = random_connection(rng, group_dim, family, base_dim)
    for s in (1, 5):
        points, vector = rng.uniform(-1, 1, (s, base_dim)), rng.uniform(-1, 1, base_dim)
        got, want = conn.evaluate(points, vector), reference_evaluate(conn, points, vector)
        assert got.shape == want.shape == (s, group_dim, group_dim)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("chunk", [1, 3, 7, 64])
@pytest.mark.parametrize("group_dim", [2, 3])
def test_a_leaf_split_across_chunks_is_bitwise_the_reference(group_dim, chunk, monkeypatch):
    # `chunk` SO(3) factors per stacked product at 7 steps: one segment per
    # product below 14, else the products end inside some leaf's segments;
    # SO(2) keeps no factors, so CHUNK leaves its bits alone
    rng = np.random.default_rng([group_dim, chunk])
    conn, _, _ = random_connection(rng, group_dim, "linear", 2)
    cat = PathCategory(2)
    leaves = [cat.random_path(rng, n_segments=3) for _ in range(5)]
    want = [reference_transport(conn, leaf, 7) for leaf in leaves]
    monkeypatch.setattr(decorated, "CHUNK", chunk)
    for got, ref in zip(parallel_transport(conn, PathBlock(leaves), 7), want):
        assert np.array_equal(got, ref)


def test_the_shipped_chunk_bound_splits_a_large_block_bitwise():
    # 200 leaves of 3 segments at 200 steps: more than CHUNK factors, so
    # several stacked calls, some of which end inside a leaf
    rng = np.random.default_rng(5)
    conn, _, _ = random_connection(rng, 3, "linear", 2)
    cat = PathCategory(2)
    leaves = [cat.random_path(rng, n_segments=3) for _ in range(200)]
    per_call = decorated.CHUNK // 200
    split = [i for i in range(200) if 3 * i // per_call != (3 * i + 2) // per_call]
    assert 600 * 200 > decorated.CHUNK and split
    stacked = parallel_transport(conn, PathBlock(leaves), 200)
    for i in (0, *split[:2], 199):
        assert np.array_equal(stacked[i], reference_transport(conn, leaves[i], 200))


@pytest.mark.parametrize("steps", [1, 7, 80, 200])
@pytest.mark.parametrize("family", ["constant", "linear"])
@pytest.mark.parametrize("group_dim", [2, 3])
def test_the_kernel_is_the_matrix_integrator_within_roundoff(group_dim, family, steps):
    # the per-segment kernel against A evaluated at every midpoint and one
    # matrix factor per substep; on SO(2) both are exact on linear segments
    rng = np.random.default_rng([group_dim, len(family), steps, 13])
    conn, C, D = random_connection(rng, group_dim, family, 2)
    leaves = leaves_with_zero_segments(rng, PathCategory(2), 6)
    for leaf, value in zip(leaves, parallel_transport(conn, PathBlock(leaves), steps)):
        assert np.max(np.abs(value - matrix_transport(conn, leaf, steps))) <= 1e-13
        if group_dim == 2:
            assert np.max(np.abs(value - rotation2(-so2_integral(C, D, leaf)))) <= 1e-12
    if group_dim == 2:  # exact, so every observed order is inf
        assert all(math.isinf(o) for os in observed_order(conn, PathBlock(leaves), 8) for o in os)


def test_composites_in_a_block_are_the_reference_products():
    rng = np.random.default_rng(11)
    conn, _, _ = random_connection(rng, 3, "linear", 1)
    cat = PathCategory(1)
    p = cat.random_path(rng, n_segments=2)
    q = cat.random_path(rng, start=p.end)
    r = cat.random_path(rng, start=q.end)
    paths = [compose_paths(r, compose_paths(q, p)), compose_paths(compose_paths(r, q), p), q, p]
    for got, path in zip(parallel_transport(conn, PathBlock(paths), 80), paths):
        assert np.array_equal(got, reference_transport(conn, path, 80))


def test_eta_keeps_leaf_values_while_the_leaves_live():
    so3 = get_module("so3-conj")
    rng = np.random.default_rng(2)
    conn, _, _ = random_connection(rng, 3, "constant", 2)
    cat = PathCategory(2)
    eta = eta_from_connection(cat, so3, conn, 40)
    calls = []
    fn = eta._fn
    eta._fn = lambda block: calls.append(len(block)) or fn(block)
    p = cat.random_path(rng)
    q = cat.random_path(rng, start=p.end)
    pq = cat.compose(q, p)
    value = eta(pq)  # both leaves in one call
    assert calls == [2]
    assert np.array_equal(value, reference_transport(conn, pq, 40))
    block = PathBlock([pq, p, cat.compose(q, p), cat.random_path(rng)])
    stacked = eta(block)  # only the new path's leaf is integrated
    assert calls == [2, 1]
    for got, path in zip(stacked, block):
        assert np.array_equal(got, reference_transport(conn, path, 40))
    assert np.array_equal(eta(p), stacked[1]) and calls == [2, 1]
    del p, q, pq, block, value, stacked, path
    gc.collect()
    assert len(eta._kept) == 0


def test_path_category_maps_act_on_blocks_case_by_case():
    rng = np.random.default_rng(3)
    cat = PathCategory(2)
    p = [cat.random_path(rng) for _ in range(4)]
    q = [cat.random_path(rng, start=x.end) for x in p]
    P, Q = PathBlock(p), PathBlock(q)
    assert np.array_equal(cat.source(P), [x.start for x in p])
    assert np.array_equal(cat.target(P), [x.end for x in p])
    composed = cat.compose(Q, P)
    assert isinstance(composed, PathBlock) and len(composed) == 4
    assert [list(c.leaves()) for c in composed] == [[x, y] for x, y in zip(p, q)]
    mask = cat.point_eq(cat.target(P), cat.source(PathBlock([q[0], p[1], q[2], p[3]])))
    assert mask.tolist() == [True, False, True, False]
    ends = cat.target(P)
    nudged = ends + np.array([[0.5], [2.0], [-0.5], [-2.0]]) * cat.eps_pt  # within, beyond eps_pt
    assert cat.point_eq(ends, nudged).tolist() == [True, False, True, False]
    assert cat.point_eq(ends, nudged).tolist() == [cat.point_eq(a, b) for a, b in zip(ends, nudged)]
    assert cat.morphism_eq(P, PathBlock([p[0], q[1], p[2], p[3]])).tolist() == [True, False, True, True]
    ids = cat.identity(cat.source(P))
    assert isinstance(ids, PathBlock) and cat.point_eq(cat.target(ids), cat.source(P)).all()
    with pytest.raises(CompositionUndefined):
        cat.compose(PathBlock([q[0], q[0], q[2], q[3]]), P)  # the second pair does not meet


@pytest.mark.parametrize("scenario, suite, laws", [
    ("so2_transport", "twisted-bundle", 8), ("so2_transport", "e-action", 7),
    ("so2_transport", "prop62", 6), ("so3_decorated", "prop62", 6)],
    ids=["twisted-bundle", "e-action", "prop62", "so3_decorated-prop62"])
def test_shipped_path_laws_pass_in_whole_blocks(scenario, suite, laws, monkeypatch):
    # every plan item is a Block, and its mask holds on every case
    raw = json.loads((SCEN / f"{scenario}.json").read_text())
    seen = whole_blocks(monkeypatch)
    assert run_suite(Scenario(raw), suite).passed
    assert len(seen) == laws
    assert all(blocks > 0 and singles == 0 for blocks, singles in seen.values())


THETA = DecoratedBundle.theta


def theta_without_alpha(db, dm):
    """A broken isomorphism: the decoration kept as it is, not moved by alpha."""
    return TwistedMorphism(dm.gamma, TwoGroupMorphism(dm.h, dm.g_start))


def theta_without_alpha_on_some(db, dm):
    """theta, except that h is not moved by alpha where g_start[0, 0] > 0.5."""
    right = THETA(db, dm)
    wrong = np.asarray(dm.g_start)[..., 0, 0] > 0.5
    return TwistedMorphism(dm.gamma, TwoGroupMorphism(
        np.where(wrong[..., None, None], dm.h, right.m.h), dm.g_start))


@pytest.mark.parametrize("theta", [theta_without_alpha, theta_without_alpha_on_some])
@pytest.mark.parametrize("scenario", ["so2_transport", "so3_decorated"])
def test_prop62_with_a_broken_theta_gives_the_per_case_records(scenario, theta, monkeypatch):
    # on SO(3), where alpha moves h, every law that reads theta's h fails;
    # SO(2) is abelian and every law holds
    monkeypatch.setattr(DecoratedBundle, "theta", theta)
    sc = Scenario(json.loads((SCEN / f"{scenario}.json").read_text()))
    blocked = run_suite(sc, "prop62")
    with per_case_plans():
        per_case = run_suite(sc, "prop62")
    assert blocked.to_jsonl() == per_case.to_jsonl()
    failing = {r.law: r.checks for r in blocked.records if not r.passed}
    if scenario == "so2_transport":
        assert failing == {}
    else:
        assert sorted(failing) == ["theta-composition", "theta-equivariance",
                                   "theta-inverse-roundtrip", "theta-target"]
        assert (max(failing.values()) > 1) == (theta is theta_without_alpha_on_some)


def non_skew(kind: str) -> Connection:
    """A connection made non-skew after construction: everywhere
    ("constant"), or by a symmetric linear part of 1e-9, whose values are
    non-skew beyond 1e-10 only on some segments ("linear")."""
    conn, _, _ = random_connection(np.random.default_rng(21), 3, "linear", 2)
    if kind == "constant":
        conn.constant[0] += np.eye(3)
    else:
        conn.linear[0, 0] += 1e-9 * np.ones((3, 3))
    return conn


# (law, status, checks, error witness) as per-path transports gave them
NON_SKEW_RECORDS = {
    "constant": [("zero-connection", "pass", 4, False),
                 ("composite-multiplicativity", "fail", 1, True),
                 ("reversal-inverse", "fail", 1, True), ("convergence-order", "fail", 1, True)],
    "linear": [("zero-connection", "pass", 4, False),
               ("composite-multiplicativity", "fail", 3, True),
               ("reversal-inverse", "fail", 3, True), ("convergence-order", "fail", 1, True)],
}


@pytest.mark.parametrize("kind", sorted(NON_SKEW_RECORDS))
def test_transport_laws_on_a_non_skew_connection_give_the_per_path_records(kind):
    # a stacked call that raises is searched down to the first path whose own
    # transport raises, which fails with the error as its witness
    stacked = verify_transport_numerics(PathCategory(2), non_skew(kind), 16, Stream(21))
    with per_case_plans():  # each path's transports in their own calls
        per_path = verify_transport_numerics(PathCategory(2), non_skew(kind), 16, Stream(21))
    assert stacked.to_jsonl() == per_path.to_jsonl()
    assert [(r.law, r.status, r.checks, r.witness == {
        "error": "StructuralError: connection value is not skew"}) for r in stacked.records] == (
        NON_SKEW_RECORDS[kind])


@pytest.mark.parametrize("family", ["constant", "linear"])
def test_observed_order_on_a_block_is_the_per_path_orders(family):
    rng = np.random.default_rng([len(family), 8])
    conn, _, _ = random_connection(rng, 3, family, 2)
    paths = leaves_with_zero_segments(rng, PathCategory(2), 4)
    assert observed_order(conn, PathBlock(paths), 8) == [observed_order(conn, p, 8) for p in paths]


def so3_connection() -> Connection:
    def skew(x, y, z):
        return [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]

    return Connection(3, 2, [skew(0.3, 0.0, 0.1), skew(0.0, 0.2, -0.1)],
                      [[skew(0.0, 0.0, 0.25), skew(0.1, 0.0, 0.0)],
                       [skew(0.0, -0.15, 0.0), skew(0.0, 0.0, 0.2)]])


def transport_mutant_jsonl(threshold: float, seed: int) -> str:
    """twisted-bundle and e-action (E-properties, then action functoriality)
    for the SO(3) alpha mutant twisted by transport on a plane, budget 200."""
    cm, base = alpha_mutant(threshold), PathCategory(2)
    bundle = TwistedBundle(base, cm, eta_from_connection(base, cm, so3_connection(), 40))
    return "".join(fn(bundle, 200, law_streams(seed)).to_jsonl() for fn in (
        verify_twisted_bundle, verify_E_properties, verify_action_functorial))


# at 0.9 the failing laws stop at checks 1 to 20; at 0.99 associativity fails
# at check 27 (sampled chains), b3-transitivity at check 58 and
# action-composition at check 133 (counted products)
@pytest.mark.parametrize("threshold", [0.9, 0.99])
def test_failing_so3_module_twisted_by_transport_matches_its_golden(threshold):
    golden = GOLDEN / f"so3_alpha_mutant_transport_{threshold}.jsonl"
    assert transport_mutant_jsonl(threshold, 1) == golden.read_text()
