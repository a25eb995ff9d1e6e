import numpy as np
import pytest

from catbundle.basecat import (
    PathCategory,
    QuiverCategory,
    SampledPath,
    compose_paths,
    constant_path,
)
from catbundle.crossed import CompositionUndefined
from catbundle.scenario import Scenario
from catbundle.stream import Stream
from per_case import reference_dedup, reference_random_path

CHAIN = QuiverCategory(["a", "b", "c"], [("f", "a", "b"), ("g", "b", "c")], word_bound=3)


def test_single_arrow_enumeration():
    q = QuiverCategory(["a", "b"], [("f", "a", "b")], word_bound=1)
    ms = q.morphisms_upto()
    assert len(ms) == 3  # id_a, id_b, f
    assert sum(m.is_identity for m in ms) == 2


def test_chain_enumeration_hand_count():
    # hand enumeration: id_a, id_b, id_c, f, g, g∘f
    ms = CHAIN.morphisms_upto()
    assert len(ms) == 6
    words = sorted(m.word for m in ms)
    assert words == [(), (), (), ("f",), ("f", "g"), ("g",)]


def test_zero_length_bound_gives_identities_only():
    ms = QuiverCategory(CHAIN.objects, [("f", "a", "b"), ("g", "b", "c")],
                        word_bound=0).morphisms_upto()
    assert all(m.is_identity for m in ms) and len(ms) == 3


def test_a_scenario_quiver_without_word_bound_is_the_library_default():
    # a loop makes every word bound enumerate a different morphism list
    objects, arrows = ["a", "b"], [("f", "a", "b"), ("l", "b", "b")]
    declared = Scenario({"base": {"objects": objects, "arrows": [list(a) for a in arrows]}}).quiver()
    library = QuiverCategory(objects, arrows)
    assert declared.morphisms_upto() == library.morphisms_upto()
    assert [m.word for m in library.morphisms_upto()] != [
        m.word for m in QuiverCategory(objects, arrows, library.word_bound + 1).morphisms_upto()]


def test_quiver_composition_and_guards():
    f, g = CHAIN.arrow("f"), CHAIN.arrow("g")
    gf = CHAIN.compose(g, f)
    assert gf.word == ("f", "g") and gf.source == "a" and gf.target == "c"
    assert CHAIN.compose(gf, CHAIN.identity("a")) == gf
    assert CHAIN.compose(CHAIN.identity("c"), gf) == gf
    with pytest.raises(CompositionUndefined):
        CHAIN.compose(f, g)


def test_quiver_word_associativity_is_exact():
    q = QuiverCategory(["a", "b", "c", "d"],
                       [("f", "a", "b"), ("g", "b", "c"), ("h", "c", "d")])
    f, g, h = q.arrow("f"), q.arrow("g"), q.arrow("h")
    assert q.compose(q.compose(h, g), f) == q.compose(h, q.compose(g, f))


def test_paths_need_two_samples():
    with pytest.raises(ValueError):
        SampledPath([[0.0]])


def test_compose_paths_concatenates():
    p1 = SampledPath([[0.0], [1.0]])
    p2 = SampledPath([[1.0], [2.0]])
    whole = compose_paths(p2, p1)
    assert np.array_equal(whole.samples, np.array([[0.0], [1.0], [2.0]]))
    assert whole.pieces == (p1, p2)


def test_compose_with_constant_path_is_identity_up_to_dedup():
    seg = SampledPath([[0.0], [1.0]])
    idp = constant_path([0.0])
    whole = compose_paths(seg, idp)
    assert np.array_equal(whole.dedup(), seg.samples)
    other = compose_paths(constant_path([1.0]), seg)
    assert np.array_equal(other.dedup(), seg.samples)


TOL = 1e-12
DEDUP_SAMPLES = {
    "distinct": [[0.0, 0.0], [0.5, -0.2], [0.1, 0.9], [1.0, 1.0]],
    "exact-duplicates": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [2.0, 1.0]],
    # every step is within tol, but the third from the last kept point is not
    "creeping": [[0.0], [0.4 * TOL], [0.8 * TOL], [1.2 * TOL], [1.6 * TOL], [1.0]],
    "within-tol-of-the-end": [[0.0], [0.6 * TOL], [1.0], [1.0 + 0.5 * TOL]],
    "single-segment": [[0.2, -0.3, 0.1], [1.0, 1.0, 1.0]],
    "single-zero-segment": [[0.5], [0.5]],
    "constant": [[0.3, 0.3], [0.3, 0.3], [0.3, 0.3]],
    "nan-inside": [[0.0], [np.nan], [1.0], [2.0]],
    "nan-at-the-end": [[0.0], [1.0], [np.nan]],
    "all-nan": [[np.nan, 0.0], [np.nan, 1.0]],
}


@pytest.mark.parametrize("name", sorted(DEDUP_SAMPLES))
def test_dedup_is_the_point_by_point_loop(name):
    samples = np.array(DEDUP_SAMPLES[name])
    got, want = SampledPath(samples).dedup(TOL), reference_dedup(samples, TOL)
    assert got.shape == want.shape and np.array_equal(got, want, equal_nan=True)


def test_dedup_and_morphism_eq_are_the_loop_on_random_paths():
    # the DEDUP_SAMPLES of each dimension, then random paths with some steps
    # far below, near and above eps_pt, each compared with every path, its
    # samples nudged, and a duplicated sample
    rng = np.random.default_rng(4)
    for dim in (1, 2, 3):
        cat = PathCategory(dim, eps_pt=TOL)
        paths = [SampledPath(a) for a in DEDUP_SAMPLES.values() if len(a[0]) == dim]
        for _ in range(40):
            steps = rng.uniform(-1, 1, (int(rng.integers(1, 6)), dim))
            steps *= rng.choice([1.0, 3 * TOL, 0.7 * TOL, 0.0], size=(len(steps), 1))
            samples = np.vstack([rng.uniform(-1, 1, dim), steps]).cumsum(axis=0)
            nudged = samples + rng.choice([0, TOL], samples.shape)
            paths += [SampledPath(samples), SampledPath(nudged),
                      SampledPath(np.insert(samples, 1, samples[0], axis=0))]
        for a in paths:
            assert np.array_equal(a.dedup(TOL), reference_dedup(a.samples, TOL), equal_nan=True)
        for a in paths[:40]:
            for b in paths:
                ra, rb = reference_dedup(a.samples, TOL), reference_dedup(b.samples, TOL)
                assert cat.morphism_eq(a, b) == (ra.shape == rb.shape and np.array_equal(ra, rb))


def test_path_composition_associative_on_samples():
    a = SampledPath([[0.0, 0.0], [1.0, 0.0]])
    b = SampledPath([[1.0, 0.0], [1.0, 1.0]])
    c = SampledPath([[1.0, 1.0], [2.0, 1.0]])
    left = compose_paths(c, compose_paths(b, a))
    right = compose_paths(compose_paths(c, b), a)
    assert np.array_equal(left.samples, right.samples)


def test_compose_paths_endpoint_guard():
    p1 = SampledPath([[0.0], [1.0]])
    p2 = SampledPath([[1.5], [2.0]])
    with pytest.raises(CompositionUndefined):
        compose_paths(p2, p1)


def test_path_category_basics():
    cat = PathCategory(2)
    p = cat.identity([0.5, 0.5])
    assert np.array_equal(p.start, p.end)
    assert cat.point_eq(cat.source(p), cat.target(p))
    q = cat.random_path(np.random.default_rng(3), n_segments=2)
    assert q.dim == 2 and len(q.samples) == 3


def test_path_reverse():
    p = SampledPath([[0.0], [1.0], [3.0]])
    r = p.reverse()
    assert np.array_equal(r.samples, p.samples[::-1])
    comp = compose_paths(SampledPath([[3.0], [4.0]]), p)
    rev = comp.reverse()
    assert np.array_equal(rev.samples[0], [4.0]) and np.array_equal(rev.samples[-1], [0.0])


def test_leaves_order():
    a = SampledPath([[0.0], [1.0]])
    b = SampledPath([[1.0], [2.0]])
    c = SampledPath([[2.0], [3.0]])
    tree = compose_paths(c, compose_paths(b, a))
    assert [leaf.samples[0, 0] for leaf in tree.leaves()] == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("kwargs", [{}, {"n_segments": 5}, {"start": [0.25, -0.5, 0.75]},
                                    {"n_segments": 2, "start": [0.1, 0.2, 0.3], "scale": 0.3}])
def test_random_path_in_one_draw_equals_the_point_by_point_draw(dim, kwargs):
    if "start" in kwargs:
        kwargs = {**kwargs, "start": np.array(kwargs["start"][:dim])}
    for seed in range(100):
        one, ref = Stream(seed), Stream(seed)
        got = PathCategory(dim).random_path(one, **kwargs)
        want = reference_random_path(dim, ref, **kwargs)
        assert got.samples.tobytes() == want.samples.tobytes()
        assert got.samples.shape == want.samples.shape
        assert one.bit_generator.state == ref.bit_generator.state
