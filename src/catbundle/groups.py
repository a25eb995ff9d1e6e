"""Group carriers: finite cyclic and symmetric groups, and SO(2)/SO(3).

Finite elements are int codes, their index in `elements`; finite groups
tabulate `mul` and `inv` as numpy int arrays, and `lookup` is the one reader
of such a code table (a group's, or a crossed module's alpha and tau): a
code gives a Python int, an array of codes the gathered array. `gather` is
the one rule by which arrays of codes look up a 2-D table, one 1-D gather at
`a * width + b`. Matrix elements are numpy arrays; equality is a declared
max-abs-entry tolerance (default 1e-9) because downstream transport values
are floating point.

`eq` gives a plain bool on two elements and a per-case mask of shape `(k,)`
when an operand holds k cases (an array of codes, a `(k, n, n)` SO(n) stack,
on each of which `mul` and `inv` also act). `rotation2`, `skew3` and
`skew_exp` likewise map stacks to stacks; `skew_expm1` is the one so(n)
exponential, behind the sampler, scenario elements and transport factors.
Every carrier has one sampler, `sample_stack`, which maps a `(k, width)`
block of uniform draws to k elements (k codes on a finite group);
`sample(rng)` is its one-element call, so a block of draws gives, bitwise,
the elements that as many `sample` calls give.
"""
from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Sequence

import numpy as np

from .stream import Stream

Element = Any

DEFAULT_GRP_TOL = 1e-9


class StructuralError(ValueError):
    """A value lies outside the carrier it was declared to belong to."""


class CompositionUndefined(ValueError):
    """Vertical composition attempted on a source/target mismatch."""

    def __init__(self, message: str, target_value=None, source_value=None):
        super().__init__(message)
        self.target_value, self.source_value = target_value, source_value


def every(oks):
    """`&` over bools or per-case masks, stopping at a plain False. Negate
    with `<=` (implication), never `~`: `~True` is -2, which is true."""
    out = True
    for ok in oks:
        out = out & ok
        if out.__class__ is not np.ndarray and not out:
            return out
    return out


def all_cases(ok) -> bool:
    """A bool, or whether every case of a mask holds."""
    return ok if ok.__class__ is bool else bool(ok.all())


class Group:
    """Identity, multiplication, inverse, equality and a sampler; finite
    groups also expose their element list, which switches verification code
    between exhaustive and sampled modes."""

    name: str = "group"
    elements: Sequence[Element] | None = None
    width: int  # uniform draws per element, for `sample_stack`

    @property
    def identity(self) -> Element:
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def eq(self, a: Element, b: Element):
        """a == b: a bool, or a per-case mask when an operand holds cases."""
        raise NotImplementedError

    def contains(self, a: Element) -> bool:
        raise NotImplementedError

    def sample_stack(self, u: np.ndarray):
        """k elements from a (k, width) block of uniform [0, 1) draws, or one
        element from a (width,) row."""
        raise NotImplementedError

    def sample(self, rng: Stream) -> Element:
        return self.sample_stack(rng.random(self.width))

    def fmt(self, a: Element) -> str:
        return str(a)

    @property
    def order(self) -> int | None:
        return None if self.elements is None else len(self.elements)

    @property
    def is_finite(self) -> bool:
        return self.elements is not None

    def __repr__(self) -> str:
        return f"<Group {self.name}>"


class FiniteGroup(Group):
    """A finite group on int codes: `elements` is range(order), and
    `values[code]` is the element in the terms of the closed forms `op` and
    `inverse`, from which the int tables `mul_table` and `inv_table` are
    built once and read by `lookup`. A code is drawn from one uniform u as
    floor(u * order)."""

    width = 1

    def __init__(self, name: str, values: list, identity, op, inverse):
        self.name = name
        self.values = values
        self.elements = range(len(values))
        self._codes = {v: i for i, v in enumerate(values)}
        self.mul_table = np.array([[self.code(op(a, b)) for b in values] for a in values])
        self.inv_table = np.array([self.code(inverse(a)) for a in values])
        self._identity = self.code(identity)
        self._mul = lookup(self.mul_table, lambda a, b: f"{a!r} or {b!r} is not an element of {name}")
        self._inv = lookup(self.inv_table, lambda a: f"{a!r} is not an element of {name}")

    def code(self, value) -> int:
        """The code of an element given in the closed forms' terms."""
        try:
            return self._codes[value]
        except (KeyError, TypeError):
            raise StructuralError(f"{value!r} is not an element of {self.name}") from None

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, a, b):
        return self._mul(a, b)

    def inv(self, a):
        return self._inv(a)

    def eq(self, a, b):
        return a == b

    def contains(self, a) -> bool:
        return (isinstance(a, (int, np.integer)) and not isinstance(a, bool)
                and 0 <= a < len(self.elements))

    def sample_stack(self, u: np.ndarray):
        """The codes floor(u * order) of a (k, 1) block of uniform [0, 1)
        draws, as an int64 array, or the code of a (1,) row, as an int.
        Below 1, u * order rounds below order, so every draw is a code."""
        if u.ndim == 1:
            return int(u[0] * len(self.elements))
        return (u[:, 0] * len(self.elements)).astype(np.int64)


def lookup(table: np.ndarray, error: Callable[..., str]) -> Callable:
    """The reader of a 1-D or 2-D int table of codes, taking one code per
    axis. Python int codes give a Python int from the table's `tolist()`
    rows, keyed by code, so a negative code is no row rather than a
    wrap-around; numpy integer codes are read as those ints; arrays of
    codes, in any operand, give the gathered array, trusted to hold codes,
    as every array a suite makes does (a flat index of a non-code would land
    in another row). Anything else, a bool among them (True == 1 would key
    row 1), raises StructuralError(error(*codes))."""
    rows = dict(enumerate(table.tolist()))
    if table.ndim == 2:
        rows = {a: dict(enumerate(row)) for a, row in rows.items()}

    def slow(*codes):
        ints = [c.__class__ is int or isinstance(c, np.integer) for c in codes]
        if all(ints):  # numpy integers among them, read as Python ints
            try:
                found = rows
                for c in codes:
                    found = found[int(c)]
                return found
            except KeyError:
                pass
        elif all(i or isinstance(c, np.ndarray) for i, c in zip(ints, codes)):
            return gather(table, *codes) if table.ndim == 2 else table[codes[0]]
        raise StructuralError(error(*codes)) from None

    def read(a):
        if a.__class__ is int:  # not a bool
            try:
                return rows[a]
            except KeyError:
                pass
        return slow(a)

    def read2(a, b):
        if a.__class__ is int and b.__class__ is int:
            try:
                return rows[a][b]
            except KeyError:
                pass
        return slow(a, b)

    return read if table.ndim == 1 else read2


def gather(table: np.ndarray, a, b) -> np.ndarray:
    """table[a, b] for codes a and b, at least one an array, as one 1-D
    gather at a * width + b, the width read from the table as it is now."""
    return np.take(table, a * table.shape[1] + b)


class CyclicGroup(FiniteGroup):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"z{n}", list(range(n)), 0,
                         lambda a, b: (a + b) % n, lambda a: (-a) % n)


# -- permutations as image tuples: p maps i to p[i]; (p*q)(i) = p(q(i)) --

def perm_mul(p: tuple, q: tuple) -> tuple:
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_cycles(p: tuple) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(parts) if parts else "e"


def perm_from_cycles(text: str, n: int) -> tuple:
    text = text.strip()
    if text in ("e", "", "()"):
        return tuple(range(n))
    out = list(range(n))
    for chunk in text.replace(")", ")|").split("|"):
        chunk = chunk.strip()
        if not chunk:
            continue
        tokens = chunk.strip("()").replace(",", " ").split()
        if not all(t.isascii() and t.isdigit() and t == str(int(t)) for t in tokens):
            raise ValueError(f"cycle entries must be ASCII decimals without sign or leading zero: {chunk!r}")
        pts = [int(t) for t in tokens]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            out[a] = b
    return tuple(out)


class SymmetricGroup(FiniteGroup):
    """S_n: a code is the rank of an image tuple; `fmt` writes cycles."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"s{n}", sorted(itertools.permutations(range(n))), tuple(range(n)),
                         perm_mul, perm_inv)

    def fmt(self, a: int) -> str:
        return perm_cycles(self.values[a])


# -- skew matrices and their exponential (closed forms keep iterates on the
#    group up to roundoff, which downstream equality checks rely on) --

SKEW_AXES = {2: ([1], [0]), 3: ([2, 0, 1], [1, 2, 0])}  # rows and columns of an so(n) value


def rotation2(theta) -> np.ndarray:
    """The rotation by `theta`, or a stack of them for an array of angles."""
    c, s = np.cos(theta), np.sin(theta)
    out = np.empty(c.shape + (2, 2))
    out[..., 0, 0] = out[..., 1, 1] = c
    out[..., 0, 1], out[..., 1, 0] = -s, s
    return out


def skew3(v) -> np.ndarray:
    """The skew matrix of a 3-vector (x, y, z), or a stack of them for (..., 3)."""
    v = np.asarray(v, dtype=float)
    rows, cols = SKEW_AXES[3]
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., rows, cols], out[..., cols, rows] = v, -v
    return out


def is_skew(a: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.max(np.abs(a + a.T)) <= tol)


def skew_coords(a: np.ndarray) -> np.ndarray:
    """The so(n) value of a 2x2 or 3x3 skew matrix a, or of each in a stack:
    the angle (a[1, 0],), or the rotation vector (a[2, 1], a[0, 2], a[1, 0])."""
    if a.shape[-2:] not in ((2, 2), (3, 3)):
        raise StructuralError(f"so(n) values are read from 2x2 and 3x3 matrices, got {a.shape}")
    rows, cols = SKEW_AXES[a.shape[-1]]
    return a[..., rows, cols]


def skew_expm1(v: np.ndarray) -> np.ndarray:
    """exp - I of an so(n) value, an angle (last axis 1) or a rotation vector
    (last axis 3), or of each in a stack, entry by entry (Rodrigues on SO(3)),
    1 - cos as 2·sin^2(theta/2). Where theta^2 is 0 (a zero vector, or one
    shorter than about 1e-154, whose squares underflow) the coefficients are
    their theta -> 0 limits, 1 and 1/2, and theta = 1 keeps their discarded
    quotients finite. Squares are products: one v makes numpy scalars, whose
    `** 2` is `pow`, not `square`, and a stack must give the bits of its
    rows."""
    if v.shape[-1] == 1:
        theta = v[..., 0]
        half = np.sin(theta / 2)
        s, cm1 = np.sin(theta), -2.0 * (half * half)
        out = np.empty(theta.shape + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = cm1
        out[..., 0, 1], out[..., 1, 0] = -s, s
        return out
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    xx, yy, zz = x * x, y * y, z * z
    theta2 = xx + yy + zz
    zero = theta2 == 0
    theta = np.sqrt(theta2) + zero
    half = np.sin(theta / 2) / theta
    c1, c2 = np.where(zero, 1.0, np.sin(theta) / theta), np.where(zero, 0.5, 2.0 * (half * half))
    ax, ay, az, qx, qy = c1 * x, c1 * y, c1 * z, c2 * x, c2 * y
    xy, xz, yz = qx * y, qx * z, qy * z
    out = np.empty(x.shape + (3, 3))
    out[..., 0, 0], out[..., 0, 1], out[..., 0, 2] = -c2 * (yy + zz), xy - az, xz + ay
    out[..., 1, 0], out[..., 1, 1], out[..., 1, 2] = xy + az, -c2 * (xx + zz), yz - ax
    out[..., 2, 0], out[..., 2, 1], out[..., 2, 2] = xz - ay, yz + ax, -c2 * (xx + yy)
    return out


def skew_exp(a: np.ndarray) -> np.ndarray:
    """exp of a 2x2 or 3x3 skew matrix, or of each matrix in a (k, n, n)
    stack: I + `skew_expm1` of its so(n) value."""
    return np.eye(a.shape[-1]) + skew_expm1(skew_coords(a))


class SpecialOrthogonalGroup(Group):
    """SO(n) for n in {2, 3}; equality is max-abs entry difference <= tol.
    `mul`, `inv` and `eq` take single (n, n) elements or (k, n, n) stacks."""

    def __init__(self, n: int, tol: float = DEFAULT_GRP_TOL):
        if n not in (2, 3):
            raise StructuralError("only SO(2) and SO(3) are supported")
        self.n = n
        self.tol = tol
        self.name = f"so{n}"
        self.elements = None
        self.width = n * (n - 1) // 2  # an angle, or a rotation vector

    @property
    def identity(self) -> np.ndarray:
        return np.eye(self.n)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    def inv(self, a: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(a.swapaxes(-1, -2))

    def eq(self, a: np.ndarray, b: np.ndarray):
        """Max-abs entry difference within tol, per case of a stack; a NaN
        entry is never equal."""
        diff = np.abs(np.asarray(a) - np.asarray(b))
        if diff.ndim == 2:
            return bool(diff.max() <= self.tol)
        return diff.max(axis=(-2, -1)) <= self.tol

    def contains(self, a: Element) -> bool:
        a = np.asarray(a)
        return a.shape == (self.n, self.n) and bool(self.contains_stack(a[None])[0])

    def contains_stack(self, a: np.ndarray) -> np.ndarray:
        """`contains` per case of a (k, n, n) stack: orthogonal within 1e-7,
        with a positive determinant."""
        ortho = np.abs(a @ a.swapaxes(-1, -2) - np.eye(self.n)).max(axis=(-2, -1)) <= 1e-7
        return ortho & (np.linalg.det(a) > 0)

    def sample_stack(self, u: np.ndarray) -> np.ndarray:
        """k elements from a (k, width) block of uniform [0, 1) draws, or one
        element from a (width,) row: each draw becomes the angle
        -pi + 2*pi*u, bitwise what `rng.uniform(-pi, pi)` gives on the same
        draw; the element is I + `skew_expm1` of the angle, or of the
        rotation vector of three of them."""
        return np.eye(self.n) + skew_expm1(-math.pi + 2 * math.pi * u)

    def fmt(self, a: np.ndarray) -> str:
        rows = [" ".join(f"{x:.12g}" for x in row) for row in np.asarray(a)]
        return "[" + "; ".join(rows) + "]"

