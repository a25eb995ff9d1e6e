"""Path blocks as arrays against the paths one at a time: on blocks of random
leaves (with zero-length segments, steps within eps_pt, identity paths and
reversals) under composition trees up to two deep, every map of a block is
bitwise the per-path result, and a block whose pairs do not all meet gives
the records of a per-case run; and a path item builds each SO(n) element it
draws once."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catbundle import groups
from catbundle.basecat import PathBlock, PathCategory, SampledPath, compose_paths, same_samples
from catbundle.crossed import CompositionUndefined, get_module
from catbundle.decorated import eta_from_connection, parallel_transport
from catbundle.report import CaseSpace, LawReport
from catbundle.scenario import Scenario
from catbundle.suites import run_suite
from per_case import per_case_plans
from test_decorated import random_connection
from test_transport_stack import SCEN

DERANDOMIZED = settings(derandomize=True, max_examples=40, deadline=None, database=None)

# a composition tree: "leaf", or (first, second); up to two deep
trees = st.recursive(st.just("leaf"), lambda sub: st.tuples(sub, sub), max_leaves=3)
KINDS = ("random", "zero-segments", "near-repeat", "identity", "reversed")


def leaf(rng, cat: PathCategory, start, kind: str) -> SampledPath:
    """A directly-sampled path from `start` of the given kind."""
    p = cat.random_path(rng, start=start)
    if kind == "zero-segments":  # a repeated sample inside and at the end
        return SampledPath(np.vstack([p.samples[:2], p.samples[1:], p.samples[-1:]]))
    if kind == "near-repeat":  # a sample within eps_pt of the one before, not equal to it
        return SampledPath(np.insert(p.samples, 2, p.samples[1] + cat.eps_pt / 2, axis=0))
    if kind == "identity":
        return cat.identity(start)
    if kind == "reversed":  # the reversal of a path that ends at `start`
        return SampledPath(p.samples - p.samples[-1] + start).reverse()
    return p


def chained(rng, cat: PathCategory, tree, starts, kinds=KINDS) -> tuple[PathBlock, list]:
    """A block of len(starts) paths of the shape `tree`, from `starts`, each
    leaf of a kind drawn from `kinds`, and the same paths composed one at a
    time."""
    if tree == "leaf":
        paths = [leaf(rng, cat, s, kinds[rng.integers(len(kinds))]) for s in starts]
        return PathBlock(paths), paths
    first, singles1 = chained(rng, cat, tree[0], starts)
    second, singles2 = chained(rng, cat, tree[1], first.end)
    return cat.compose(second, first), [compose_paths(b, a, cat.eps_pt)
                                        for a, b in zip(singles1, singles2)]


def bits(paths) -> list:
    return [(p.samples.tobytes(), p.samples.shape, repr(p)) for p in paths]


blocks = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6), trees)


def make(params):
    seed, dim, k, tree = params
    rng = np.random.default_rng(seed)
    cat = PathCategory(dim)
    block, singles = chained(rng, cat, tree, rng.uniform(-1, 1, (k, dim)))
    return rng, cat, block, singles


@DERANDOMIZED
@given(blocks)
def test_a_block_is_its_paths_one_at_a_time(params):
    rng, cat, block, singles = make(params)
    k = len(singles)
    assert len(block) == k and isinstance(block, PathBlock)
    assert np.array_equal(cat.source(block), [p.start for p in singles])
    assert np.array_equal(cat.target(block), [p.end for p in singles])
    assert bits(block) == bits(singles)  # block[i], its samples and repr
    assert [list(block[i].leaves()) for i in range(k)] == [list(p.leaves()) for p in singles]
    idx = rng.integers(k, size=2 * k)
    assert bits(block[idx]) == bits(singles[i] for i in idx)
    points, offsets = block.flat()
    assert [points[a:b].tobytes() for a, b in zip(offsets[:-1], offsets[1:])] == [
        p.samples.tobytes() for p in singles]
    # continued by another block: composed as the pairs one at a time
    after, after_singles = chained(rng, cat, "leaf", block.end, ["random"])
    assert bits(cat.compose(after, block)) == bits(
        compose_paths(b, a, cat.eps_pt) for a, b in zip(singles, after_singles))


@DERANDOMIZED
@given(blocks, blocks)
def test_block_equality_is_the_per_path_equality(params, other):
    rng, cat, block, singles = make(params)
    k = len(singles)
    flat = PathBlock(SampledPath(p.samples) for p in singles)  # the same samples, no tree
    shuffled = block[rng.permutation(k)]
    _, _, third, third_singles = make(other[:1] + params[1:3] + other[3:])  # same dim and k
    for b, bs in ((flat, list(flat)), (shuffled, list(shuffled)), (third, third_singles)):
        assert cat.morphism_eq(block, b).tolist() == [
            cat.morphism_eq(x, y) for x, y in zip(singles, bs)]
        assert same_samples(block, b).tolist() == [same_samples(x, y) for x, y in zip(singles, bs)]
    assert cat.morphism_eq(block, flat).all() and same_samples(block, flat).all()


@DERANDOMIZED
@given(blocks, st.sampled_from([(2, "constant"), (2, "linear"), (3, "constant"), (3, "linear")]))
def test_eta_and_transport_of_a_block_are_the_per_path_values(params, connection):
    rng, cat, block, singles = make(params)
    group_dim, family = connection
    conn, _, _ = random_connection(rng, group_dim, family, cat.dim)
    cm = get_module(f"so{group_dim}-conj")
    want = np.array([parallel_transport(conn, p, 12) for p in singles])
    assert np.array_equal(parallel_transport(conn, block, 12), want)
    eta = eta_from_connection(cat, cm, conn, 12)
    assert np.array_equal(eta(block), want)
    assert np.array_equal(eta(block), want)  # from the kept values
    assert np.array_equal(eta(block[np.arange(len(singles))[::-1]]), want[::-1])
    fresh = eta_from_connection(cat, cm, conn, 12)
    assert np.array_equal(np.array([fresh(p) for p in singles]), want)


@DERANDOMIZED
@given(blocks, st.data())
def test_a_pair_that_does_not_meet_gives_the_per_case_records(params, data):
    rng, cat, block, singles = make(params)
    k = len(singles)
    after = list(chained(rng, cat, "leaf", block.end, ["random"])[0])
    apart = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    for i in apart:  # these pairs miss by ten times eps_pt
        after[i] = SampledPath(after[i].samples + 10 * cat.eps_pt)
    with pytest.raises(CompositionUndefined):
        cat.compose(PathBlock(after), block)

    after = PathBlock(after)

    def verify():
        space = CaseSpace.coded(k, 1, lambda i: [i], lambda i: (after[i], block[i]))
        report = LawReport("paths", budget=k)
        report.law("meets", "test", space,
                   lambda p: cat.point_eq(cat.source(cat.compose(*p)), cat.source(p[1])),
                   lambda p: {"gamma": repr(p[0])})
        return report.records[0]

    blocked = verify()
    with per_case_plans():
        per_case = verify()
    assert blocked.checks == min(apart) + 1 == per_case.checks
    assert (blocked.status, blocked.witness) == (per_case.status, per_case.witness)
    assert blocked.witness["error"].startswith("CompositionUndefined: path endpoints do not match")


@pytest.mark.parametrize("suite", ["twisted-bundle", "e-action", "prop62"])
def test_a_path_item_builds_each_drawn_element_once(suite, monkeypatch):
    # every SO(n) element of an item is drawn as a row of uniforms, and an
    # axis crossed with others is built once for all the cases that use it
    rows, sample_stack = [], groups.SpecialOrthogonalGroup.sample_stack

    def counted(self, u):
        rows.extend(row.tobytes() for row in np.atleast_2d(u))
        return sample_stack(self, u)

    monkeypatch.setattr(groups.SpecialOrthogonalGroup, "sample_stack", counted)
    raw = {**Scenario.load(SCEN / "so2_transport.json").raw, "path_budget": 12, "prop62_pairs": 12}
    assert run_suite(Scenario(raw), suite).passed
    assert len(rows) > 0 and len(rows) == len(set(rows))
