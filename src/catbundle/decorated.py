"""Decorated bundles over a trivial principal bundle with connection:
the parallel-transport integrator, decorated morphisms (base path, starting
fiber element, H-decoration), their action and composition, and the
isomorphism onto the twisted-product bundle, over a path base that is passed
in (a scenario's is `Scenario.path_category()`).

Transport solves g'(u)·g(u)^-1 = -A(gamma'(u)), g(0) = e, by midpoint
exponential Euler: each segment of a directly-sampled path (a leaf) is split
into `steps` substeps of displacement d, with factors f[j] = exp(-A(mid_j)·d),
and segment products are left-folded in path order. A is constant plus linear
in position, so A(mid_j)·d = first + j·slope: one `evaluate` gives `first`,
its skew check at the first and the last midpoint covers every substep (the
residual is affine in j too), and slope = d·linear·d. `groups.skew_expm1`
builds, as f - I, a segment's SO(2) product, the rotation by minus the
factors' summed angles (they commute; exact for linear connections too, so
SO(2) convergence orders read inf), and SO(3) factors from their rotation
vectors, multiplied by pairwise tree reduction, the later factor on the left.
A linear connection's factors are built CHUNK at a time; a constant one's are
all one matrix, so a segment builds one factor and runs the tree on its
repeats, in O(log steps) products with the full tree's bits. Carrying f - I
keeps transports orthogonal to about 1e-15 over thousands of substeps.
The leaves a call needs (those `basecat.path_values` has not kept) are
integrated stacked, constant paths only giving identities at once; every
operation acts on one segment's values alone, so a leaf's transport is
bitwise the same whatever shares its call and wherever a chunk ends.

Transport of a composed path is the product of the transports of its pieces
by construction: SampledPath records composition as a binary tree, and
`basecat.path_values` folds its leaves' values over it (with a fresh mapping
per `parallel_transport` call); on a PathBlock, the values of its table
paths are indexed by id and folded over its composition tree, one stacked
matmul per node. Because a segment's product depends only on its own
endpoints and `steps`, these hold bit-for-bit: a composite equals the product
of its pieces (the twist homomorphism law, Eq 6.18), a multi-segment leaf
equals the ordered product of its single-segment leaves, and a zero
connection gives exactly the identity. The substep values and their product
are formed otherwise than by a sequential left-multiplying loop, which they
match only to roundoff (within 1e-12).

Prop 6.2 is checked in blocks: its pairs are a sampled CaseSpace drawn up
front (`composable_pairs`), and the laws on single morphisms check the dm2,
then the dm1, of each pair, as blocks over the same draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .basecat import PathBlock, PathCategory, SampledPath, constant_path, path_values, same_samples
from .crossed import CompositionUndefined, CrossedModule, TwoGroupMorphism
from .groups import SpecialOrthogonalGroup, StructuralError, all_cases, is_skew, skew_coords, skew_expm1
from .report import CaseSpace, LawReport, Plan
from .stream import Stream, Streams, seed_zero
from .twisted import EtaMap, TwistedBundle, TwistedMorphism

DEFAULT_STEPS = 200
DEFAULT_ISO_TOL = 1e-6
ORDER_REFINEMENTS = 3  # step-halvings behind each observed convergence order
ORDER_FLOOR = 1e-13  # differences below this are roundoff: the order is inf
CHUNK = 2 ** 12  # linear SO(3) substep factors per stacked product: 295 kB of factors


class Connection(object):
    """An so(n)-valued one-form on R^base_dim: constant coefficients, plus
    coefficients linear in position when `linear` is given. Evaluation is
    linear in the tangent argument and the value must be skew."""

    def __init__(self, group_dim: int, base_dim: int, constant: Iterable,
                 linear: Iterable | None = None):
        self.group_dim = group_dim
        self.base_dim = base_dim
        constant = [np.asarray(c, dtype=float) for c in constant]
        if len(constant) != base_dim:
            raise StructuralError("need one coefficient matrix per base coordinate")
        if any(c.shape != (group_dim, group_dim) or not is_skew(c) for c in constant):
            raise StructuralError("connection coefficients must be skew matrices")
        # stacked once: constant[k] and linear[k, l] are (group_dim, group_dim)
        self.constant = np.array(constant).reshape(base_dim, group_dim, group_dim)
        self.linear = None
        if linear is not None:
            linear = [[np.asarray(m, dtype=float) for m in row] for row in linear]
            if len(linear) != base_dim or any(len(row) != base_dim for row in linear):
                raise StructuralError("linear coefficients must form a base_dim x base_dim grid")
            if any(m.shape != (group_dim, group_dim) or not is_skew(m) for row in linear for m in row):
                raise StructuralError("linear coefficients must be skew matrices")
            self.linear = np.array(linear).reshape(base_dim, base_dim, group_dim, group_dim)

    @staticmethod
    def zero(group_dim: int, base_dim: int) -> "Connection":
        z = [np.zeros((group_dim, group_dim)) for _ in range(base_dim)]
        return Connection(group_dim, base_dim, z)

    def evaluate(self, point: np.ndarray, vector: np.ndarray) -> np.ndarray:
        """A(point) applied to `vector`: sum over k of vector[k] times
        (constant[k] + sum over l of point[l]·linear[k, l]), at one point
        (base_dim,), at (s, base_dim) points, or at (k, s, base_dim) points
        with a (k, base_dim) stack of vectors, each batch bitwise as in its
        own call. Raises StructuralError when any value is not skew to 1e-10."""
        n, dim = self.group_dim, self.base_dim
        point = np.asarray(point, dtype=float)
        rows = np.asarray(vector, dtype=float)[..., None, :]
        out = rows @ self.constant.reshape(dim, n * n)
        if self.linear is not None:
            out = out + point @ (rows @ self.linear.reshape(dim, dim * n * n)).reshape(
                rows.shape[:-2] + (dim, n * n))
        out = out.reshape(out.shape[:-1] + (n, n))
        if not abs(out + out.swapaxes(-1, -2)).max() <= 1e-10:  # one value per vector, if constant
            raise StructuralError("connection value is not skew")
        return out[0] if point.ndim < rows.ndim else np.broadcast_to(out, point.shape[:-1] + (n, n))


def _paired(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """(I + L)(I + E) - I = L + E + L·E, summed in that order."""
    paired = later + earlier
    paired += later @ earlier
    return paired


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """f[s-1] ··· f[1]·f[0] for the factors f[j] = I + e[..., j, :, :] of an
    (..., s, n, n) stack, one product per leading index, by pairwise tree
    reduction: each level multiplies neighbours with the later factor on the
    left, and an odd count carries its last (latest) factor up unpaired.
    Working on f - I keeps the rounding of entries near 1 from piling up over
    many factors."""
    while e.shape[-3] > 1:
        s = e.shape[-3]
        paired = _paired(e[..., 1::2, :, :], e[..., :s - 1:2, :, :])
        e = paired if s % 2 == 0 else np.concatenate([paired, e[..., -1:, :, :]], axis=-3)
    return np.eye(e.shape[-1]) + e[..., 0, :, :]


def _repeated_product(e: np.ndarray, count: int) -> np.ndarray:
    """f^count for f = I + e[..., :, :], one per leading index, bitwise
    `_ordered_product` of `count` copies of e: each level of its tree is c
    copies of one value b and at most one carried (latest) value t, so a
    level pairs b with b once and, when c is odd, pairs t with b or, with no
    t yet, carries b as t. O(log count) products."""
    tail = None
    while count + (tail is not None) > 1:
        if count % 2:
            tail = e if tail is None else _paired(tail, e)
        count //= 2
        if count:
            e = _paired(e, e)
    return np.eye(e.shape[-1]) + (e if tail is None else tail)


def _leaf_transports(conn: Connection, leaves, steps: int) -> np.ndarray:
    """The transports of directly-sampled paths, stacked: the products of the
    nonzero segments of their concatenated samples, then each leaf's left fold,
    one stacked matmul per segment position; constant paths only give I."""
    if steps < 1:
        raise StructuralError("need at least one integration substep per segment")
    n, dim, samples = conn.group_dim, conn.base_dim, [leaf.samples for leaf in leaves]
    points = np.concatenate(samples)
    owner = np.repeat(np.arange(len(leaves)), list(map(len, samples)))
    delta = points[1:] - points[:-1]
    nonzero = (owner[1:] == owner[:-1]) & delta.any(axis=1)  # a zero-length one is exactly I
    out = np.tile(np.eye(n), (len(leaves), 1, 1))
    if not nonzero.any():
        return out
    starts, d, owner = points[:-1][nonzero], delta[nonzero] / steps, owner[1:][nonzero]
    ends = starts[:, None] + np.array([[0.5], [steps - 0.5]]) * d[:, None]
    v = -skew_coords(conn.evaluate(ends, d)[:, 0])  # exp(-first)'s angle or rotation vector
    slope = np.zeros_like(v)
    if conn.linear is not None:
        lin = skew_coords(conn.linear).reshape(dim, -1)
        slope = -(d[:, None] @ (d[:, None] @ lin).reshape(len(d), dim, -1))[:, 0]
    if n == 2:  # the factors commute: one rotation by their summed angles
        products = np.eye(2) + skew_expm1(steps * (v + (steps - 1) / 2 * slope))
    elif conn.linear is None:  # all `steps` factors are one; + 0.0 as v + j·slope gives it
        products = _repeated_product(skew_expm1(v + 0.0), steps)
    else:
        per_call, j = max(1, CHUNK // steps), np.arange(steps)[:, None]
        products = np.concatenate([_ordered_product(skew_expm1(
            v[lo:lo + per_call, None] + j * slope[lo:lo + per_call, None]))
            for lo in range(0, len(d), per_call)])
    position = np.arange(len(owner)) - np.searchsorted(owner, owner)
    for j in range(position.max() + 1):
        at = position == j
        out[owner[at]] = products[at] if j == 0 else products[at] @ out[owner[at]]
    return out


def parallel_transport(conn: Connection, path, steps: int = DEFAULT_STEPS) -> np.ndarray:
    """End value of the horizontal-lift ODE along the path, or a (k, n, n)
    stack of them along the paths of a PathBlock: `path_values` integrates
    the distinct leaves together, and a composite is the product of its
    pieces' transports."""
    if path.dim != conn.base_dim:
        raise StructuralError(
            f"path dimension {path.dim} != connection base dimension {conn.base_dim}")
    return path_values(path, lambda leaves: _leaf_transports(conn, leaves, steps), np.matmul, {})


def eta_from_connection(base: PathCategory, cm: CrossedModule, conn: Connection,
                        steps: int = DEFAULT_STEPS) -> EtaMap:
    """The twist of the paths of `base` by parallel transport of `conn`,
    whose values lie in G, so G must be SO(conn.group_dim)."""
    if not (isinstance(cm.G, SpecialOrthogonalGroup) and cm.G.n == conn.group_dim):
        raise StructuralError(f"a connection with values in SO({conn.group_dim}) cannot "
                              f"twist a crossed module over {cm.G.name}")
    return EtaMap(base, cm, lambda gamma: parallel_transport(conn, gamma, steps),
                  kind="transport")


def observed_order(conn: Connection, path, base_steps: int) -> list:
    """Convergence orders from ORDER_REFINEMENTS step-halvings: log2 of the
    ratio of successive differences, one list per path of a PathBlock. When
    differences sit at roundoff the order is reported as inf (the scheme is
    exact for that instance)."""
    values = np.array([parallel_transport(conn, path, base_steps * (2 ** k))
                       for k in range(ORDER_REFINEMENTS + 1)])
    diffs = abs(np.diff(values, axis=0)).max(axis=(-2, -1))  # (refinements[, paths])
    orders = [[float("inf") if d1 < ORDER_FLOOR or d2 < ORDER_FLOOR else math.log2(d1 / d2)
               for d1, d2 in zip(col, col[1:])] for col in np.atleast_2d(diffs.T).tolist()]
    return orders if isinstance(path, PathBlock) else orders[0]


@dataclass(frozen=True)
class DecoratedMorphism:
    """(base path, starting fiber element, decoration); the horizontal lift
    itself is determined by the connection, so it is never stored."""
    gamma: SampledPath
    g_start: object
    h: object


class DecoratedBundle:
    """Decorated morphisms over a path base, with transport supplied by an
    EtaMap (built from a connection via eta_from_connection, or any
    composition-preserving substitute on finite instances)."""

    def __init__(self, cm: CrossedModule, eta: EtaMap):
        self.cm = cm
        self.eta = eta
        self.base = eta.base

    def source(self, dm: DecoratedMorphism):
        return (dm.gamma.start, dm.g_start)

    def target(self, dm: DecoratedMorphism):
        cm = self.cm
        return (dm.gamma.end,
                cm.G.mul(self.eta(dm.gamma), cm.G.mul(dm.g_start, cm.tau(dm.h))))

    def identity(self, point, g) -> DecoratedMorphism:
        return DecoratedMorphism(constant_path(point), g, self.cm.H.identity)

    def act(self, dm: DecoratedMorphism, m1: TwoGroupMorphism) -> DecoratedMorphism:
        """(gamma-bar, h)·h1g1 = (gamma-bar·g1, g1^-1·h·h1·g1)."""
        cm = self.cm
        g1inv = cm.G.inv(m1.g)
        return DecoratedMorphism(
            dm.gamma,
            cm.G.mul(dm.g_start, m1.g),
            cm.alpha(g1inv, cm.H.mul(dm.h, m1.h)),
        )

    def compose(self, dm2: DecoratedMorphism, dm1: DecoratedMorphism) -> DecoratedMorphism:
        """Base paths concatenate; the decoration of the composite is h1·h2
        (note the order, reversed relative to vertical composition)."""
        cm = self.cm
        t1 = self.target(dm1)
        s2 = self.source(dm2)
        if not all_cases(self.base.point_eq(t1[0], s2[0])):
            raise CompositionUndefined(
                f"decorated base endpoints do not match: {t1[0]} vs {s2[0]}",
                target_value=t1[0], source_value=s2[0])
        meets = cm.G.eq(t1[1], s2[1])
        if not all_cases(meets):  # a block formats none of its cases
            raise CompositionUndefined(
                "a decorated fiber boundary in the block mismatches" if isinstance(meets, np.ndarray)
                else f"decorated fiber boundary mismatch: {cm.G.fmt(t1[1])} vs {cm.G.fmt(s2[1])}",
                target_value=t1[1], source_value=s2[1])
        gamma = self.base.compose(dm2.gamma, dm1.gamma)
        return DecoratedMorphism(gamma, dm1.g_start, cm.H.mul(dm1.h, dm2.h))

    def morphism_eq(self, d1: DecoratedMorphism, d2: DecoratedMorphism):
        cm = self.cm
        return (same_samples(d1.gamma, d2.gamma)
                & cm.G.eq(d1.g_start, d2.g_start) & cm.H.eq(d1.h, d2.h))

    # -- the isomorphism onto the twisted product (gamma-bar·g, h) -> (gamma, g·h) --

    def theta(self, dm: DecoratedMorphism) -> TwistedMorphism:
        cm = self.cm
        return TwistedMorphism(
            dm.gamma, TwoGroupMorphism(cm.alpha(dm.g_start, dm.h), dm.g_start))

    def theta_inverse(self, tm: TwistedMorphism) -> DecoratedMorphism:
        cm = self.cm
        return DecoratedMorphism(
            tm.gamma, tm.m.g, cm.alpha(cm.G.inv(tm.m.g), tm.m.h))

    def twisted(self) -> TwistedBundle:
        return TwistedBundle(self.base, self.cm, self.eta)


def composable_pairs(db: DecoratedBundle, count: int | None = None) -> CaseSpace:
    """Seeded composable pairs (dm2, dm1) on paths of two steps of at most
    0.8 per coordinate, each drawn as gamma1, g, h1, gamma2, h2: gamma2
    starts where gamma1 ends, and dm2 at dm1's target, so no draw depends on
    a transport."""
    base, G, H = db.base, db.cm.G, db.cm.H

    def draw(rng):
        gamma1 = base.random_path(rng, n_segments=2, scale=0.8)
        return (gamma1, rng.random(G.width), rng.random(H.width),
                base.random_path(rng, n_segments=2, start=gamma1.end, scale=0.8), rng.random(H.width))

    def build(gamma1, g, h1, gamma2, h2):
        dm1 = DecoratedMorphism(gamma1, G.sample_stack(g), H.sample_stack(h1))
        return DecoratedMorphism(gamma2, db.target(dm1)[1], H.sample_stack(h2)), dm1

    return CaseSpace.sampled(draw, count, build)


def verify_prop62(cm: CrossedModule, eta: EtaMap, n_pairs: int = 50,
                  streams: Streams = seed_zero, rng: Stream | None = None,
                  eps_iso: float = DEFAULT_ISO_TOL) -> LawReport:
    """Certify the decorated/twisted isomorphism on seeded composable pairs
    over SO(n): boundary preservation, composition preservation,
    equivariance, bijectivity (explicit inverse), identity-on-objects. The
    pairs are drawn from `rng`; the other laws check their morphisms, dm2
    then dm1 of each pair, and the equivariance law acts on each by one
    morphism from its own stream. Every law runs in blocks."""
    rng = rng or Stream(0)
    report = LawReport(suite="prop62")
    db = DecoratedBundle(cm, eta)
    tb = db.twisted()
    pairs = composable_pairs(db, n_pairs).drawn(n_pairs, rng)
    acting = cm.morphism_space(2 * n_pairs).drawn(2 * n_pairs, streams("theta-equivariance"))

    def single(p, side):  # morphism `side` of pair p: 0 its dm2, 1 its dm1
        pair = pairs.build(p)
        if not isinstance(side, np.ndarray):
            return pair[side]
        second, (dm2, dm1) = side == 0, pair
        return DecoratedMorphism(PathBlock.where(second, dm2.gamma, dm1.gamma), *(
            np.where(second[:, None, None], a, b)
            for a, b in ((dm2.g_start, dm1.g_start), (dm2.h, dm1.h))))

    def every(space):  # all its cases, in blocks, for the laws that share them
        return Plan(list(space.plan(space.size, rng)), exhaustive=False)

    singles = every(CaseSpace.product(range(n_pairs), range(2), build=single))

    def close_g(a, b):
        return abs(np.asarray(a) - np.asarray(b)).max(axis=(-2, -1)) <= eps_iso

    for end in ("source", "target"):  # theta keeps each boundary
        def same_end(dm, end=end):
            got, want = getattr(tb, end)(db.theta(dm)), getattr(db, end)(dm)
            return db.base.point_eq(got[0], want[0]) & close_g(got[1], want[1])

        report.law(f"theta-{end}", "Eq 6.32", singles, same_end, lambda dm, end=end: {"case": end})

    def composites(p):
        return db.theta(db.compose(*p)), tb.compose(db.theta(p[0]), db.theta(p[1]))

    def same_twisted(lhs, rhs):
        return (same_samples(lhs.gamma, rhs.gamma)
                & close_g(lhs.m.h, rhs.m.h) & close_g(lhs.m.g, rhs.m.g))

    def composition_witness(p):
        lhs, rhs = composites(p)
        return {"case": "composition",
                "dh": float(np.max(np.abs(np.asarray(lhs.m.h) - np.asarray(rhs.m.h))))}

    report.law(
        "theta-composition", "Eq 6.35", every(pairs), lambda p: same_twisted(*composites(p)),
        composition_witness)

    report.law(
        "theta-equivariance", "Eq 6.24",
        every(CaseSpace.product(range(n_pairs), range(2),
                                build=lambda p, side: (single(p, side), acting.build(2 * p + side)))),
        lambda p: same_twisted(db.theta(db.act(*p)), tb.act(db.theta(p[0]), p[1])),
        lambda p: {"case": "equivariance"},
    )

    def roundtrip(dm) -> dict:  # each check, in the order a witness names the first failing one
        back = db.theta_inverse(db.theta(dm))
        fwd, want = db.theta(back), db.theta(dm)
        return {"path-changed": same_samples(back.gamma, dm.gamma),
                "group-parts": close_g(back.g_start, dm.g_start) & close_g(back.h, dm.h),
                "inverse-roundtrip": close_g(fwd.m.h, want.m.h) & close_g(fwd.m.g, want.m.g)}

    report.law(
        "theta-inverse-roundtrip", "Eq 6.31", singles,
        lambda dm: np.logical_and.reduce(list(roundtrip(dm).values())),
        lambda dm: {"case": next(k for k, held in roundtrip(dm).items() if not held)},
    )

    report.law(
        "theta-identity-objects", "Prop 6.2", singles,
        lambda dm: db.base.point_eq(db.theta(dm).gamma.start, dm.gamma.start),
        lambda dm: {"case": "objects"},
    )
    return report


def verify_transport_numerics(base: PathCategory, conn: Connection,
                              steps: int = DEFAULT_STEPS,
                              rng: Stream | None = None) -> LawReport:
    """Integrator sanity on the given connection over random paths of `base`:
    zero-connection triviality, composite multiplicativity (bitwise), reversal
    inverse, and step-halving convergence order >= 2 (inf where it is exact).
    Cases are path numbers, each built as an index array (a block's holds all
    four), so each law's transports are one stacked call per block (and per
    refinement, for orders)."""
    rng = rng or Stream(0)
    report = LawReport(suite="transport-convergence")
    paths = PathBlock(base.random_path(rng, n_segments=2) for _ in range(4))
    # each path is continued by one fresh path; nothing draws from `rng` after these
    continued = PathBlock(base.random_path(rng, n_segments=2, start=p.end) for p in paths)
    space = CaseSpace.coded(len(paths), 1, lambda i: [i], np.atleast_1d)
    cases = Plan(list(space.plan(len(paths), rng)), exhaustive=False)  # drawn, not the whole space
    eye, zero = np.eye(conn.group_dim), Connection.zero(conn.group_dim, conn.base_dim)

    report.law(
        "zero-connection", "Eq 6.29", cases,
        lambda i: (parallel_transport(zero, paths[i], steps) == eye).all(axis=(1, 2)),
        lambda i: {"case": "zero"},
    )

    def sides(i):  # each composite's transport, and its pieces' product
        ps, qs = paths[i], continued[i]
        c, q, p = np.split(parallel_transport(
            conn, PathBlock((*base.compose(qs, ps), *qs, *ps)), steps), 3)
        return c, q @ p

    report.law(
        "composite-multiplicativity", "Eq 6.18", cases,
        lambda i: np.equal(*sides(i)).all(axis=(1, 2)),
        lambda i: {"case": "multiplicativity",
                   "max_diff": float(abs(np.subtract(*sides(i))).max())},
    )

    def reversal_diff(i):
        fwd, bwd = np.split(parallel_transport(
            conn, PathBlock((*paths[i], *map(SampledPath.reverse, paths[i]))), steps), 2)
        return abs(bwd @ fwd - eye).max(axis=(1, 2))

    report.law(
        "reversal-inverse", "Eq 6.29", cases,
        lambda i: reversal_diff(i) <= 1e-9,
        lambda i: {"case": "reversal", "diff": float(reversal_diff(i)[0])},
    )

    def orders(i):
        return observed_order(conn, paths[i], base_steps=max(8, steps // 16))

    report.law(
        "convergence-order", "Eq 6.29", cases,
        lambda i: np.array([all(o >= 1.9 for o in os) for os in orders(i)]),
        lambda i: {"case": "order", "orders": [round(o, 3) for o in orders(i)[0]]},
    )
    return report
