"""Twisted-product categorical bundles U ×_eta G -> U.

The object and morphism sets are those of the product bundle, but the target
map and composition are deformed by a composition-preserving map
eta: Mor(U) -> G:

    s_eta(gamma, h, g) = (s(gamma), g)
    t_eta(gamma, h, g) = (t(gamma), eta(gamma)·tau(h)·g)
    (gamma2, h2, g2) ∘ (gamma1, h1, g1)
        = (gamma2 ∘ gamma1, alpha_{eta(gamma1)^-1}(h2)·h1, g1)
      defined when g2 = eta(gamma1)·tau(h1)·g1.

Morphisms are stored in (h, g) coordinates; the hg/gh display orders are
bridged by gh = (alpha_g(h), g).

On a quiver base (which needs a finite crossed module) the laws run in
blocks: a block's TwistedMorphism holds arrays of quiver morphism codes (see
`basecat`) and of H and G codes, eta is looked up per code, and each law's
`ok` is a per-case mask of `eq`s combined with `&` (and `<=` for freeness).
The coded spaces give the cases of nested loops, in their order; a single
case holds a QuiverMorphism and Python ints.

On a path base the laws run in blocks too: a block's TwistedMorphism holds a
PathBlock (`basecat`: drawn paths as ids into a leaf table, composites as
one tree node over two blocks) and SO(n) stacks, and eta on a PathBlock is
one (k, n, n) stack. A sampled case draws each element as its carrier's row
of `width` uniforms and builds it by `sample_stack`, whichever the carrier,
so its draws stack. A transport twist computes it by `basecat.path_values`
with one weakly keyed mapping, which keeps each leaf's value while the leaf
lives and a table's rows while the table lives: the leaves a call has not
met go to the integrator in one stacked call, the values are indexed by id
and folded over the tree with one stacked G.mul per node, so a composite is
the product of its kept pieces.
"""
from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .basecat import CodeTable, PathBlock, QuiverCategory, QuiverMorphism, path_values
from .crossed import CompositionUndefined, CrossedModule, TwoGroupMorphism
from .groups import StructuralError, all_cases
from .report import DEFAULT_BUDGET, CaseSpace, LawReport, sides_witness
from .stream import Streams, seed_zero


@dataclass(frozen=True)
class TwistedMorphism:
    gamma: object  # QuiverMorphism or SampledPath, or a block's codes or PathBlock
    m: TwoGroupMorphism


class EtaMap:
    """A composition-preserving twist eta: Mor(U) -> G.

    Table mode folds generator values over arrow words (so the homomorphism
    property holds structurally); raw mode evaluates a user callable and is
    how deliberately broken twists enter negative tests. On a block of codes
    of `base`'s morphisms, eta is looked up per code, and raises where the
    callable does; a raw value that is not an element of G raises too, on a
    block and on one quiver morphism alike. On a PathBlock it is the stack
    of its paths' values.

    Transport mode (`decorated.eta_from_connection`) calls `fn` on a
    PathBlock of directly-sampled paths, which gives their values stacked;
    the value of any path is the product of its leaves' values over its
    composition tree, computed by `basecat.path_values` with `_kept`, which
    keeps a leaf's value while the leaf lives and a table's rows while the
    table lives.
    """

    def __init__(self, base, cm: CrossedModule, fn: Callable, kind: str = "raw"):
        self.base = base
        self.cm = cm
        self._fn = fn
        self.kind = kind
        self._by_code = CodeTable(base, fn, cm.G)
        self._kept = weakref.WeakKeyDictionary()  # transport mode: what path_values keeps

    def __call__(self, gamma):
        if self.kind == "transport":
            return path_values(gamma, lambda leaves: self._fn(PathBlock(leaves)), self.cm.G.mul,
                               self._kept)
        if isinstance(gamma, np.ndarray):
            return self._by_code(gamma)
        if isinstance(gamma, PathBlock):
            return np.array([self._fn(p) for p in gamma])
        if self.kind == "raw" and isinstance(gamma, QuiverMorphism):
            return self._by_code.value(gamma)  # checked as in a block
        return self._fn(gamma)

    @staticmethod
    def trivial(base, cm: CrossedModule) -> "EtaMap":
        return EtaMap(base, cm, lambda gamma: cm.G.identity, kind="trivial")

    @staticmethod
    def from_table(base: QuiverCategory, cm: CrossedModule, gen_table: dict) -> "EtaMap":
        missing = set(base.arrows) - set(gen_table)
        if missing:
            raise StructuralError(f"eta table misses arrows: {sorted(missing)}")

        def fn(gamma):
            out = cm.G.identity
            for name in gamma.word:
                out = cm.G.mul(gen_table[name], out)
            return out

        return EtaMap(base, cm, fn, kind="table")

    @staticmethod
    def from_raw(base, cm: CrossedModule, values: dict, default=None) -> "EtaMap":
        """Per-word table; arbitrary values, so the homomorphism law can fail."""
        def fn(gamma):
            key = gamma.word if hasattr(gamma, "word") else gamma
            if key in values:
                return values[key]
            if default is not None:
                return default
            raise StructuralError(f"eta undefined on {gamma!r}")
        return EtaMap(base, cm, fn, kind="raw")


class TwistedBundle:
    def __init__(self, base, cm: CrossedModule, eta: EtaMap):
        self.base = base
        self.cm = cm
        self.eta = eta

    def source(self, tm: TwistedMorphism):
        return (self.base.source(tm.gamma), tm.m.g)

    def target(self, tm: TwistedMorphism):
        cm = self.cm
        return (self.base.target(tm.gamma),
                cm.G.mul(self.eta(tm.gamma), cm.G.mul(cm.tau(tm.m.h), tm.m.g)))

    def identity(self, obj, g) -> TwistedMorphism:
        return TwistedMorphism(self.base.identity(obj), self.cm.identity_morphism(g))

    def act(self, tm: TwistedMorphism, m1: TwoGroupMorphism) -> TwistedMorphism:
        return TwistedMorphism(tm.gamma, self.cm.sdp_multiply(tm.m, m1))

    def act_object(self, obj_g, g1):
        a, g = obj_g
        return (a, self.cm.G.mul(g, g1))

    def compose(self, tm2: TwistedMorphism, tm1: TwistedMorphism) -> TwistedMorphism:
        cm = self.cm
        gamma = self.base.compose(tm2.gamma, tm1.gamma)  # raises on base mismatch
        eta1 = self.eta(tm1.gamma)
        want = cm.G.mul(eta1, cm.G.mul(cm.tau(tm1.m.h), tm1.m.g))
        meets = cm.G.eq(want, tm2.m.g)
        if not all_cases(meets):  # a block formats none of its cases
            raise CompositionUndefined(
                "a twisted target in the block != the source after it" if isinstance(meets, np.ndarray)
                else f"twisted target {cm.G.fmt(want)} != source {cm.G.fmt(tm2.m.g)}",
                target_value=want, source_value=tm2.m.g)
        h = cm.H.mul(cm.alpha(cm.G.inv(eta1), tm2.m.h), tm1.m.h)
        return TwistedMorphism(gamma, TwoGroupMorphism(h, tm1.m.g))

    def E(self, phi: TwoGroupMorphism, gamma) -> TwoGroupMorphism:
        """E(phi, gamma) = 1_{eta(gamma)^-1}·phi in the morphism group."""
        cm = self.cm
        return cm.sdp_multiply(cm.identity_morphism(cm.G.inv(self.eta(gamma))), phi)

    def morphism_eq(self, t1: TwistedMorphism, t2: TwistedMorphism):
        return self.base.morphism_eq(t1.gamma, t2.gamma) & self.cm.m_eq(t1.m, t2.m)


# -- case spaces: enumerated on finite quiver data, seeded otherwise --

def _coded(bundle: TwistedBundle) -> bool:
    """The base is a quiver, whose morphisms are coded; eta on a block is an
    int table, so that needs a finite crossed module."""
    if not isinstance(bundle.base, QuiverCategory):
        return False
    if not bundle.cm.is_finite:
        raise StructuralError(
            f"twisted bundles on a quiver base need a finite crossed module, not {bundle.cm.name}")
    return True


def _base_morphisms(bundle: TwistedBundle, count=None) -> CaseSpace:
    """Every base morphism of a quiver, coded by its index in
    `morphisms_upto()`, else `count` seeded random paths (or as many as the
    budget allows)."""
    base = bundle.base
    if _coded(bundle):
        return CaseSpace.product(base.codes(), build=base.morphism)
    return CaseSpace.sampled(base.random_path, count)


def _base_pairs(bundle: TwistedBundle) -> CaseSpace:
    """Composable base pairs (gamma2, gamma1), gamma1 outer: on a quiver, the
    chains of two legs with one h and one g, coded by their base codes."""
    base = bundle.base
    if _coded(bundle):
        size, codes = _chain_codes(base, 2, 1, 1)
        return CaseSpace.coded(size, 2, lambda i: codes(i)[::3],  # gamma1 and gamma2
                               lambda gamma1, gamma2: (base.morphism(gamma2), base.morphism(gamma1)))

    def draw(rng):
        gamma1 = base.random_path(rng)
        return base.random_path(rng, start=gamma1.end), gamma1

    return CaseSpace.sampled(draw)


def _identities(bundle: TwistedBundle, count: int) -> CaseSpace:
    """Identity morphisms at every quiver object (coded: they come first in
    code order), else at `count` seeded points."""
    base = bundle.base
    if _coded(bundle):
        return CaseSpace.product(base.codes()[:len(base.objects)], build=base.morphism)
    return CaseSpace.sampled(lambda rng: base.identity(rng.uniform(-1, 1, size=base.dim)), count)


def bundle_morphisms(bundle: TwistedBundle) -> CaseSpace:
    """The bundle's morphisms: gamma outer, then h, then g where these are
    finite (a coded space on a quiver), sampled otherwise."""
    return CaseSpace.product(_base_morphisms(bundle), bundle.cm.morphism_space(),
                             build=TwistedMorphism)


def composable_chains(bundle: TwistedBundle, n: int) -> CaseSpace:
    """Composable chains (tm_n, ..., tm_1) in the order of nested loops over
    (gamma1, h1, g1, gamma2, h2, ...): each later morphism starts where the
    one before ends, so only its base morphism and its h are free. Sampled on
    a path base; a quiver base needs a finite crossed module, and its chains
    are a coded space (`_chain_codes`)."""
    base, cm = bundle.base, bundle.cm

    def fold(tm1, legs):
        chain = [tm1]
        for gamma, h in legs:
            chain.append(TwistedMorphism(gamma, TwoGroupMorphism(h, bundle.target(chain[-1])[1])))
        return tuple(reversed(chain))

    coded = _coded(bundle)
    morphism = base.morphism if coded else (lambda gamma: gamma)

    def build(gamma1, h1, g1, *rest):
        return fold(TwistedMorphism(morphism(gamma1), TwoGroupMorphism(h1, g1)),
                    [(morphism(gamma), h) for gamma, h in zip(rest[::2], rest[1::2])])

    if not coded:  # the parts (gamma1, h1, g1, gamma2, h2, ...), drawn in that order
        H, G = cm.H, cm.G

        def parts(rng):
            gamma = base.random_path(rng)
            out = [gamma, rng.random(H.width), rng.random(G.width)]
            for _ in range(n - 1):
                gamma = base.random_path(rng, start=gamma.end)
                out += [gamma, rng.random(H.width)]
            return out

        def built(gamma1, h1, g1, *rest):
            return build(gamma1, H.sample_stack(h1), G.sample_stack(g1), *itertools.chain.from_iterable(
                (gamma, H.sample_stack(h)) for gamma, h in zip(rest[::2], rest[1::2])))

        return CaseSpace.sampled(parts, build=built)

    size, codes = _chain_codes(base, n, len(cm.H.elements), len(cm.G.elements))
    return CaseSpace.coded(size, 2 * n + 1, codes, build)


def _chain_codes(base: QuiverCategory, n: int, nh: int, ng: int):
    """(size, codes) of the chains of n composable base morphisms, with nh
    choices of h on each leg and ng of g on the first: `codes` maps case
    numbers to the arrays (gamma1, h1, g1, gamma2, h2, ..., gamma_n, h_n),
    decoded level by level from the number of tails that leave each object."""
    gammas = np.arange(len(base.codes()))
    src, tgt = base.source(gammas), base.target(gammas)
    by_source = np.argsort(src, kind="stable")  # the legs out of each object, in code order
    # tails[k][o]: the k-leg tails (gamma, h, ...) whose first leg leaves object o
    tails = [np.ones(len(base.objects), dtype=np.int64)]
    for _ in range(n - 1):
        tails.append(np.zeros_like(tails[0]))
        np.add.at(tails[-1], src, nh * tails[-2][tgt])
    firsts = nh * ng * tails[n - 1][tgt]  # chains from each gamma1
    ends = np.cumsum(firsts)

    def level(k):
        """The legs followed by k - 1 more: each gamma's count, and in source
        order the case numbers where each gamma's end and each object's begin."""
        sizes = nh * tails[k - 1][tgt]
        return sizes, np.cumsum(sizes[by_source]), np.cumsum(tails[k]) - tails[k]

    legs = {k: level(k) for k in range(1, n)}

    def codes(i):
        gamma = np.searchsorted(ends, i, side="right")
        r = i - (ends[gamma] - firsts[gamma])
        rest = tails[n - 1][tgt[gamma]]
        h, r = np.divmod(r, ng * rest)
        g, r = np.divmod(r, rest)
        out = [gamma, h, g]
        for k in range(n - 1, 0, -1):
            sizes, leg_ends, starts = legs[k]
            i = starts[tgt[gamma]] + r
            j = np.searchsorted(leg_ends, i, side="right")
            gamma = by_source[j]
            h, r = np.divmod(i - (leg_ends[j] - sizes[gamma]), tails[k - 1][tgt[gamma]])
            out += [gamma, h]
        return out

    return int(firsts.sum()), codes


def verify_twisted_bundle(bundle: TwistedBundle, budget: int = DEFAULT_BUDGET,
                          streams: Streams = seed_zero) -> LawReport:
    """Certify that the twist gives a categorical principal bundle:
    eta homomorphism, boundary coherence of composition, associativity,
    units, and the principal-bundle axioms for the right action."""
    cm = bundle.cm
    report = LawReport(suite="twisted-bundle", budget=budget, streams=streams)

    def eta_sides(p):
        return bundle.eta(bundle.base.compose(p[0], p[1])), cm.G.mul(bundle.eta(p[0]), bundle.eta(p[1]))

    report.law(
        "eta-homomorphism", "Eq 6.18", _base_pairs(bundle),
        lambda p: cm.G.eq(*eta_sides(p)),
        lambda p: {"gamma2": repr(p[0]), "gamma1": repr(p[1]), **sides_witness(cm.G.fmt, eta_sides(p))},
    )

    report.law(
        "eta-identity", "Eq 6.18", _identities(bundle, 8),
        lambda gamma: cm.G.eq(bundle.eta(gamma), cm.G.identity),
        lambda gamma: {"gamma": repr(gamma)},
    )

    def boundary_ok(p):  # the composite starts where p[1] does and ends where p[0] does
        comp = bundle.compose(p[0], p[1])
        s, s1, t, t2 = bundle.source(comp), bundle.source(p[1]), bundle.target(comp), bundle.target(p[0])
        return (bundle.base.point_eq(s[0], s1[0]) & bundle.base.point_eq(t[0], t2[0])
                & cm.G.eq(s[1], s1[1]) & cm.G.eq(t[1], t2[1]))

    report.law(
        "boundary-coherence", "Eq 6.19", composable_chains(bundle, 2), boundary_ok,
        lambda p: {"gamma2": repr(p[0].gamma), "gamma1": repr(p[1].gamma),
                   "t_comp": cm.G.fmt(bundle.target(bundle.compose(p[0], p[1]))[1]),
                   "t_tm2": cm.G.fmt(bundle.target(p[0])[1])},
    )

    report.law(
        "associativity", "Eq 6.20", composable_chains(bundle, 3),
        lambda t: bundle.morphism_eq(
            bundle.compose(bundle.compose(t[0], t[1]), t[2]),
            bundle.compose(t[0], bundle.compose(t[1], t[2])),
        ),
        lambda t: {"gamma3": repr(t[0].gamma), "gamma2": repr(t[1].gamma), "gamma1": repr(t[2].gamma)},
    )

    report.law(
        "unit-laws", "Prop 6.1", bundle_morphisms(bundle),
        lambda tm: units_ok(bundle, tm), lambda tm: {"gamma": repr(tm.gamma)},
    )

    report.law(
        "b1-surjectivity", "§2.2 (b1)", bundle_morphisms(bundle),
        lambda tm: b1_ok(bundle, tm), lambda tm: {"gamma": repr(tm.gamma)},
    )
    if isinstance(bundle.base, QuiverCategory):
        # every base morphism lifts: its lift through the unit lies over it
        report.law(
            "b1-base-coverage", "§2.2 (b1)", _base_morphisms(bundle),
            lambda gamma: b1_ok(bundle, TwistedMorphism(gamma, cm.unit)),
            lambda gamma: {"missing": repr(gamma)},
        )

    acted = CaseSpace.product(bundle_morphisms(bundle), cm.morphism_space(16))
    report.law(
        "b2-freeness", "§2.2 (b2)", acted,
        lambda p: free_ok(bundle, *p),
        lambda p: {"gamma": repr(p[0].gamma), "m": cm.fmt_m(p[1])},
    )

    report.law(
        "b3-transitivity", "§2.2 (b3)", acted,
        lambda p: _transitive_ok(bundle, *p), lambda p: {"gamma": repr(p[0].gamma)},
    )
    return report


# -- predicates that the product-bundle suite (bundle.verify_bundle_axioms) shares --

def b1_ok(bundle: TwistedBundle, tm):
    """The source and target of tm lie over those of its base morphism."""
    base, s, t = bundle.base, bundle.source(tm), bundle.target(tm)
    return base.point_eq(s[0], base.source(tm.gamma)) & base.point_eq(t[0], base.target(tm.gamma))


def units_ok(bundle: TwistedBundle, tm):
    """The identities at the source and target of tm are units for it."""
    return (bundle.morphism_eq(bundle.compose(tm, bundle.identity(*bundle.source(tm))), tm)
            & bundle.morphism_eq(bundle.compose(bundle.identity(*bundle.target(tm)), tm), tm))


def free_ok(bundle: TwistedBundle, tm, m1):
    """Only the unit of the morphism group fixes tm (freeness): fixing tm
    implies being the unit, which a single case that does not fix tm skips."""
    cm = bundle.cm
    fixed = cm.m_eq(bundle.act(tm, m1).m, tm.m)
    return True if fixed is False else fixed <= cm.m_eq(m1, cm.unit)


def _transitive_ok(bundle: TwistedBundle, tm, m1):
    """Any two morphisms in the same fiber differ by a unique group element:
    the one solved from tm and tm·m1 carries tm to it."""
    cm = bundle.cm
    other = bundle.act(tm, m1)
    solved = cm.sdp_multiply(cm.sdp_inverse(tm.m), other.m)
    return bundle.morphism_eq(bundle.act(tm, solved), other)


def vertical_pairs(cm: CrossedModule) -> CaseSpace:
    """Composable group pairs (m2, m1), m1 outer: m2 starts where m1 ends."""
    return CaseSpace.product(
        cm.morphism_space(8), CaseSpace.carrier(cm.H, 4),
        build=lambda m1, h2: (TwoGroupMorphism(h2, cm.target(m1)), m1))


def action_boundaries_ok(bundle: TwistedBundle, tm, m1):
    """Acting by m1 moves the source and target of tm by the source and
    target of m1."""
    cm = bundle.cm
    acted = bundle.act(tm, m1)
    s, s_want = bundle.source(acted), bundle.act_object(bundle.source(tm), cm.source(m1))
    t, t_want = bundle.target(acted), bundle.act_object(bundle.target(tm), cm.target(m1))
    return cm.G.eq(s[1], s_want[1]) & cm.G.eq(t[1], t_want[1])


def action_composition_ok(bundle: TwistedBundle, chain, pair):
    """Acting by a composable (m2, m1) on the composite of (tm2, tm1) equals
    composing the acted morphisms."""
    (tm2, tm1), (m2, m1) = chain, pair
    lhs = bundle.act(bundle.compose(tm2, tm1), bundle.cm.compose_vertical(m2, m1))
    rhs = bundle.compose(bundle.act(tm2, m2), bundle.act(tm1, m1))
    return bundle.morphism_eq(lhs, rhs)


def verify_E_properties(bundle: TwistedBundle, budget: int = DEFAULT_BUDGET,
                        streams: Streams = seed_zero) -> LawReport:
    """The action of the base on the group: identity behavior in both
    variables, compatibility with both compositions, and agreement of the
    E-form of twisted composition with the direct formula."""
    cm = bundle.cm
    report = LawReport(suite="e-action", budget=budget, streams=streams)

    report.law(
        "E-identity-base", "§6.2 (i)",
        CaseSpace.product(cm.morphism_space(8), _identities(bundle, 4)),
        lambda p: cm.m_eq(bundle.E(p[0], p[1]), p[0]),
        lambda p: {"phi": cm.fmt_m(p[0])},
    )

    report.law(
        "E-identity-group", "§6.2 (ii)",
        CaseSpace.product(CaseSpace.carrier(cm.G, 8), _base_morphisms(bundle, 32)),
        lambda p: cm.m_eq(
            bundle.E(cm.identity_morphism(p[0]), p[1]),
            cm.identity_morphism(cm.G.mul(cm.G.inv(bundle.eta(p[1])), p[0])),
        ),
        lambda p: {"g": cm.G.fmt(p[0]), "gamma": repr(p[1])},
    )

    report.law(
        "E-composition-base", "§6.2 (iii)",
        CaseSpace.product(cm.morphism_space(8), _base_pairs(bundle)),
        lambda c: cm.m_eq(
            bundle.E(c[0], bundle.base.compose(c[1][0], c[1][1])),
            bundle.E(bundle.E(c[0], c[1][0]), c[1][1]),
        ),
        lambda c: {"phi": cm.fmt_m(c[0])},
    )

    report.law(
        "E-composition-group", "§6.2 (iv)", CaseSpace.product(
            cm.morphism_space(12), CaseSpace.carrier(cm.H, 4), _base_morphisms(bundle, 8),
            build=lambda phi1, h2, gamma: ((TwoGroupMorphism(h2, cm.target(phi1)), phi1), gamma)),
        lambda c: cm.m_eq(
            bundle.E(cm.compose_vertical(c[0][0], c[0][1]), c[1]),
            cm.compose_vertical(bundle.E(c[0][0], c[1]), bundle.E(c[0][1], c[1])),
        ),
        lambda c: {"gamma": repr(c[1])},
    )

    report.law(
        "E-reproduces-composition", "Eq 6.22", composable_chains(bundle, 2),
        lambda p: bundle.morphism_eq(
            bundle.compose(p[0], p[1]),
            TwistedMorphism(
                bundle.base.compose(p[0].gamma, p[1].gamma),
                cm.compose_vertical(bundle.E(p[0].m, p[1].gamma), p[1].m),
            ),
        ),
        lambda p: {"gamma2": repr(p[0].gamma), "gamma1": repr(p[1].gamma)},
    )
    return report


def verify_action_functorial(bundle: TwistedBundle, budget: int = DEFAULT_BUDGET,
                             streams: Streams = seed_zero) -> LawReport:
    """The right action commutes with s_eta, t_eta, and twisted composition."""
    cm = bundle.cm
    report = LawReport(suite="e-action", budget=budget, streams=streams)

    acted = CaseSpace.product(bundle_morphisms(bundle), cm.morphism_space(16))
    report.law(
        "action-boundaries", "Eq 6.3", acted,
        lambda p: action_boundaries_ok(bundle, *p),
        lambda p: {"gamma": repr(p[0].gamma), "m1": cm.fmt_m(p[1])},
    )

    report.law(
        "action-composition", "Eq 6.14",
        CaseSpace.product(composable_chains(bundle, 2), vertical_pairs(cm)),
        lambda c: action_composition_ok(bundle, *c),
        lambda c: {"gamma2": repr(c[0][0].gamma), "gamma1": repr(c[0][1].gamma),
                   "m2": cm.fmt_m(c[1][0]), "m1": cm.fmt_m(c[1][1])},
    )
    return report
