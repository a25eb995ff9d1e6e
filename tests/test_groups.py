import itertools
import math
import warnings

import numpy as np
import pytest

from catbundle.groups import (
    CyclicGroup,
    SpecialOrthogonalGroup,
    StructuralError,
    SymmetricGroup,
    is_skew,
    perm_cycles,
    perm_from_cycles,
    perm_inv,
    perm_mul,
    rotation2,
    skew3,
    skew_coords,
    skew_exp,
    skew_expm1,
)
from per_case import SO2_GEN


def test_cyclic_laws():
    z5 = CyclicGroup(5)
    for a in z5.elements:
        assert z5.mul(a, z5.inv(a)) == z5.identity
        for b in z5.elements:
            assert z5.mul(a, b) == (a + b) % 5


def test_perm_mul_applies_right_factor_first():
    # p∘q means apply q first: (p∘q)(i) = p(q(i))
    p = (1, 0, 2)  # (0 1)
    q = (0, 2, 1)  # (1 2)
    assert perm_mul(p, q) == (1, 2, 0)
    assert perm_mul(q, p) == (2, 0, 1)
    assert perm_mul(p, perm_inv(p)) == (0, 1, 2)


def test_perm_cycle_notation_roundtrip():
    s4 = SymmetricGroup(4)
    for p in s4.values:
        assert perm_from_cycles(perm_cycles(p), 4) == p
    assert perm_cycles((0, 1, 2)) == "e"
    assert perm_from_cycles("(0 1)(2 3)", 4) == (1, 0, 3, 2)


def test_symmetric_group_structure():
    s3 = SymmetricGroup(3)
    assert s3.elements == range(6)
    assert s3.identity == 0 and s3.values[s3.identity] == (0, 1, 2)
    assert s3.values == sorted(s3.values)  # a code is the rank of its image tuple
    for p in s3.elements:
        assert s3.mul(p, s3.inv(p)) == s3.identity
        assert s3.contains(p)
    for bad in ((0, 0, 1), (0, 1, 2), -1, 6):
        assert not s3.contains(bad)


def test_skew_exp_so2_matches_rotation():
    for theta in (-2.0, -0.3, 0.0, 0.7, 3.1):
        assert np.allclose(skew_exp(theta * SO2_GEN), rotation2(theta), atol=1e-15)


def test_skew_exp_so3_rotation_about_z():
    theta = 0.8
    got = skew_exp(skew3([0, 0, theta]))
    c, s = math.cos(theta), math.sin(theta)
    want = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])
    assert np.allclose(got, want, atol=1e-14)


def test_skew_exp_small_angle_keeps_precision():
    a = skew3([1e-10, -2e-10, 1e-10])
    got = skew_exp(a)
    assert np.allclose(got, np.eye(3) + a, atol=1e-18)
    assert np.allclose(got @ got.T, np.eye(3), atol=1e-15)


def test_skew_coords_reads_the_angle_and_the_rotation_vector():
    v = np.array([[0.3, -1.2, 2.5], [0.0, 4.0, -0.5]])
    assert np.array_equal(skew_coords(skew3(v)), v)
    assert np.array_equal(skew_coords(0.7 * SO2_GEN), [0.7])
    with pytest.raises(StructuralError):
        skew_coords(np.zeros((2, 3)))


@pytest.mark.parametrize("n, width", [(2, 1), (3, 3)])
def test_skew_expm1_gives_a_stack_the_bits_of_its_rows(n, width):
    # one row makes numpy scalars, on which `** 2` is `pow`, not `square`
    v = np.random.default_rng(5).uniform(-math.pi, math.pi, (5000, width))
    v[:3] = [[0.0], [1e-10], [-math.pi]] if width == 1 else [[0.0] * 3, [1e-10, 0, 0], [math.pi, 0, 0]]
    stack = skew_expm1(v)
    assert stack.shape == (5000, n, n)
    assert stack.tobytes() == np.array([skew_expm1(row) for row in v]).tobytes()


@pytest.mark.parametrize("n, width", [(2, 1), (3, 3)])
def test_skew_expm1_of_zero_is_exactly_zero(n, width):
    for zero in (np.zeros(width), np.zeros((4, width))):
        got = skew_expm1(zero)
        assert not got.any()
        assert not np.signbit(np.eye(n) + got).any()  # I + 0 holds no -0.0


# the sign bits of skew_expm1 on (±0, ±0, ±0), each row its 3x3 entries in
# order, as the zero-angle guard theta = 1 gave them: a zero vector keeps them
ZERO_SIGN_BITS = [[1, 0, 0, 0, 1, 0, 0, 0, 1], [1, 0, 0, 0, 1, 1, 1, 0, 1],
                  [1, 1, 0, 0, 1, 1, 0, 0, 1], [1, 0, 1, 1, 1, 0, 0, 0, 1],
                  [1, 1, 0, 0, 1, 0, 1, 0, 1], [1, 0, 0, 1, 1, 0, 0, 1, 1],
                  [1, 0, 1, 0, 1, 0, 0, 1, 1], [1, 0, 0, 0, 1, 0, 0, 0, 1]]


def test_skew_expm1_keeps_the_signed_zeros_of_every_zero_vector():
    zeros = np.array(list(itertools.product([0.0, -0.0], repeat=3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = skew_expm1(zeros)
        rows = [skew_expm1(z) for z in zeros]
    assert not stack.any()
    assert np.signbit(stack).reshape(8, 9).astype(int).tolist() == ZERO_SIGN_BITS
    assert stack.tobytes() == np.array(rows).tobytes()


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160])
def test_skew_expm1_of_a_vector_whose_squares_underflow_is_its_hat(scale):
    # theta^2 underflows to 0 (or to a subnormal at 1e-160): the first-order
    # part is v-hat to within an ulp, the diagonal -(1 - cos) of order theta^2
    v = scale * np.array([1.0, -0.75, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = skew_expm1(v)
    hat, off = skew3(v), ~np.eye(3, dtype=bool)
    assert np.all(abs(got - hat)[off] <= np.spacing(abs(hat[off])))
    assert np.all(abs(np.diag(got)) <= scale * scale)
    assert skew_expm1(np.array([v, -v]))[0].tobytes() == got.tobytes()


def rodrigues_rows(v: np.ndarray) -> np.ndarray:
    """exp - I of each nonzero rotation vector of an (s, 3) stack, by the
    Rodrigues entries with sin(theta)/theta and 2·(sin(theta/2)/theta)^2,
    each operation as `skew_expm1` orders it."""
    x, y, z = v.T
    xx, yy, zz = x * x, y * y, z * z
    theta = np.sqrt(xx + yy + zz)
    half = np.sin(theta / 2) / theta
    c1, c2 = np.sin(theta) / theta, 2.0 * (half * half)
    qx, qy = c2 * x, c2 * y
    return np.stack([
        -c2 * (yy + zz), qx * y - c1 * z, qx * z + c1 * y,
        qx * y + c1 * z, -c2 * (xx + zz), qy * z - c1 * x,
        qx * z - c1 * y, qy * z + c1 * x, -c2 * (xx + yy)], axis=-1).reshape(-1, 3, 3)


def test_skew_expm1_of_nonzero_vectors_is_the_rodrigues_formula_bitwise():
    rng = np.random.default_rng(28)
    v = np.concatenate([rng.normal(size=(1000, 3)), rng.normal(size=(500, 3)) * 1e-8,
                        rng.uniform(-math.pi, math.pi, (500, 3))])
    assert skew_expm1(v).tobytes() == rodrigues_rows(v).tobytes()


def _math_rodrigues(axis, theta):
    """exp(theta·skew3(axis)) for a unit axis, in Python floats."""
    x, y, z = axis
    s, c = math.sin(theta), 1.0 - math.cos(theta)
    return np.array([[1 - c * (y * y + z * z), c * x * y - s * z, c * x * z + s * y],
                     [c * x * y + s * z, 1 - c * (x * x + z * z), c * y * z - s * x],
                     [c * x * z - s * y, c * y * z + s * x, 1 - c * (x * x + y * y)]])


@pytest.mark.parametrize("theta", [0.0, 1e-300, 1e-10, 1e-4, 1.0, math.pi])
def test_skew_expm1_agrees_with_the_closed_forms(theta):
    axis = (1 / 3, -2 / 3, 2 / 3)
    for sign in (1, -1):
        so2 = np.eye(2) + skew_expm1(np.array([sign * theta]))
        assert np.max(np.abs(so2 - rotation2(sign * theta))) <= 2e-15
        so3 = np.eye(3) + skew_expm1(sign * theta * np.array(axis))
        assert np.max(np.abs(so3 - _math_rodrigues(axis, sign * theta))) <= 2e-15


def test_skew_exp_rejects_other_shapes():
    with pytest.raises(StructuralError):
        skew_exp(np.zeros((4, 4)))


def test_so_groups_laws_and_membership():
    rng = np.random.default_rng(0)
    for n in (2, 3):
        so = SpecialOrthogonalGroup(n)
        for _ in range(20):
            a, b = so.sample(rng), so.sample(rng)
            assert so.contains(a)
            assert so.contains(so.mul(a, b))
            assert so.eq(so.mul(a, so.inv(a)), so.identity)
        assert not so.contains(np.eye(n) * 2)


def test_so_sampling_is_seed_deterministic():
    so3 = SpecialOrthogonalGroup(3)
    a = so3.sample(np.random.default_rng(42))
    b = so3.sample(np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_is_skew():
    assert is_skew(skew3([1.0, 2.0, 3.0]))
    assert not is_skew(np.eye(3))


@pytest.mark.parametrize("grp, op, inverse, identity", [
    (CyclicGroup(2), lambda a, b: (a + b) % 2, lambda a: (-a) % 2, 0),
    (CyclicGroup(4), lambda a, b: (a + b) % 4, lambda a: (-a) % 4, 0),
    (CyclicGroup(5), lambda a, b: (a + b) % 5, lambda a: (-a) % 5, 0),
    (SymmetricGroup(3), perm_mul, perm_inv, (0, 1, 2)),
    (SymmetricGroup(4), perm_mul, perm_inv, (0, 1, 2, 3)),
], ids=["z2", "z4", "z5", "s3", "s4"])
def test_finite_tables_equal_the_closed_forms(grp, op, inverse, identity):
    # codes stand for values: a residue is its own code, a permutation its rank
    v = grp.values
    assert v[grp.identity] == identity
    assert grp.mul_table.shape == (len(v), len(v)) and grp.inv_table.shape == (len(v),)
    assert grp.mul_table.dtype.kind == grp.inv_table.dtype.kind == "i"
    for a in grp.elements:
        assert v[grp.inv(a)] == inverse(v[a]) and type(grp.inv(a)) is int
        for b in grp.elements:
            assert v[grp.mul(a, b)] == op(v[a], v[b]) and type(grp.mul(a, b)) is int
            assert grp.mul_table[a, b] == grp.mul(a, b)


@pytest.mark.parametrize("grp, bad", [
    (CyclicGroup(4), 4), (CyclicGroup(4), -1), (CyclicGroup(4), "1"), (CyclicGroup(4), [1]),
    (SymmetricGroup(3), (0, 1)), (SymmetricGroup(3), (0, 1, 1)), (SymmetricGroup(3), [0, 1, 2]),
    # a negative int, an out-of-range code, and an image tuple (no longer an element)
    (SymmetricGroup(3), -1), (SymmetricGroup(3), 6), (SymmetricGroup(3), (0, 1, 2)),
])
def test_finite_table_rejects_non_elements(grp, bad):
    e = grp.identity
    for call in (lambda: grp.mul(bad, e), lambda: grp.mul(e, bad), lambda: grp.inv(bad)):
        with pytest.raises(StructuralError):
            call()
