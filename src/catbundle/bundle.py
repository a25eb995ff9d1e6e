"""The product categorical bundle U × G -> U, the categorical group of
functors U -> G with natural transformations between them, and the
section/trivialization correspondence.

The product bundle is the twisted-product bundle of `twisted` with trivial
eta, TwistedBundle(base, cm, EtaMap.trivial(base, cm)): its target map is
(t(gamma), tau(h)·g) and its composition that of the morphism group.

FunctorUG is the one functor from a finite category into the categorical
group: a G-valued map on objects and an H-valued map on generating
morphisms (the keys of `base.arrows`), extended multiplicatively over each
morphism's `word` (which the multiplicativity law for the H-component
forces); validity additionally requires tau(h(f)) = g(target)·g(source)^-1
on every generator. A quiver is stored by its arrows; an overlap category
(`cocycle`) by its full morphism list, each morphism its own one-letter word.

The categorical group of functors (Props 3.2-3.4) and the Prop 3.1 round
trip are checked in blocks: a FunctorUG whose table values are arrays of
codes (or SO(n) stacks) stands for as many functors, one per entry, on which
`eq`, `nat_eq`, `functor_ok` and `natural_ok` give a per-case mask.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .basecat import CodeTable, QuiverCategory
from .crossed import CompositionUndefined, CrossedModule, TwoGroupMorphism
from .groups import StructuralError, all_cases, every, gather
from .report import DEFAULT_BUDGET, CaseSpace, LawReport, sides_witness
from .stream import Stream, Streams, seed_zero
from .twisted import (
    EtaMap,
    TwistedBundle,
    TwistedMorphism,
    action_boundaries_ok,
    action_composition_ok,
    b1_ok,
    bundle_morphisms,
    composable_chains,
    free_ok,
    units_ok,
    vertical_pairs,
)

PROP31_BUDGET = 256


class FunctorUG:
    """A functor from a finite category into the categorical group, stored
    by g on objects and h on generating morphisms. On a block of quiver
    morphism codes, or of object indices, `apply` and `g` look up per-code
    tables."""

    def __init__(self, base, cm: CrossedModule, g_table: dict, h_gen: dict):
        self.base = base
        self.cm = cm
        self.g_table = g_table
        self.h_gen = h_gen
        self._by_code = None  # h and g∘source per quiver morphism code

    def g(self, obj):
        try:
            return self.g_table[obj]
        except TypeError:  # object indices in a block, each the code of its identity
            return self._code_tables()[1](obj)

    def h(self, gamma):
        out = self.cm.H.identity
        for name in gamma.word:
            out = self.cm.H.mul(self.h_gen[name], out)
        return out

    def apply(self, gamma) -> TwoGroupMorphism:
        try:
            gamma.word
        except AttributeError:  # codes of quiver morphisms, in a block
            return TwoGroupMorphism(*(table(gamma) for table in self._code_tables()))
        return TwoGroupMorphism(self.h(gamma), self.g(self.base.source(gamma)))

    def _code_tables(self) -> tuple[CodeTable, CodeTable]:
        """h, and g at the source, per quiver morphism code."""
        if self._by_code is None:
            self._by_code = (CodeTable(self.base, self.h, self.cm.H),
                             CodeTable(self.base, lambda m: self.g(m.source), self.cm.G))
        return self._by_code

    # -- pointwise group structure (Prop 3.2) --

    def _require_same(self, other: "FunctorUG") -> None:
        if self.base is not other.base or self.cm is not other.cm:
            raise StructuralError("functors live over different bases or crossed modules")

    def mul(self, other: "FunctorUG") -> "FunctorUG":
        """Pointwise product self·other (self on the left)."""
        self._require_same(other)
        cm = self.cm
        g_table = {a: cm.G.mul(self.g_table[a], other.g_table[a]) for a in self.base.objects}
        h_gen = {f: cm.H.mul(self.h_gen[f], cm.alpha(self.g_table[src], other.h_gen[f]))
                 for f, (src, _) in self.base.arrows.items()}
        return FunctorUG(self.base, cm, g_table, h_gen)

    def inv(self) -> "FunctorUG":
        cm = self.cm
        g_table = {a: cm.G.inv(self.g_table[a]) for a in self.base.objects}
        h_gen = {f: cm.alpha(cm.G.inv(self.g_table[src]), cm.H.inv(self.h_gen[f]))
                 for f, (src, _) in self.base.arrows.items()}
        return FunctorUG(self.base, cm, g_table, h_gen)

    def eq(self, other: "FunctorUG"):
        """Pointwise equality on objects and generating morphisms, per case."""
        self._require_same(other)
        G, H = self.cm.G, self.cm.H
        return every([G.eq(self.g_table[a], other.g_table[a]) for a in self.base.objects]
                     + [H.eq(self.h_gen[f], other.h_gen[f]) for f in self.base.arrows])


def constant_identity_functor(base, cm: CrossedModule) -> FunctorUG:
    return FunctorUG(base, cm, {a: cm.G.identity for a in base.objects},
                     {f: cm.H.identity for f in base.arrows})


def functor_from_h(base, cm: CrossedModule, h_obj: dict) -> FunctorUG:
    """Build the functor with g = tau∘h and h(gamma) = h(target)·h(source)^-1
    from an object-level H-valued table."""
    g_table = {a: cm.tau(h_obj[a]) for a in base.objects}
    h_gen = {f: cm.H.mul(h_obj[dst], cm.H.inv(h_obj[src])) for f, (src, dst) in base.arrows.items()}
    return FunctorUG(base, cm, g_table, h_gen)


def enumerate_functors(base: QuiverCategory, cm: CrossedModule) -> list[FunctorUG]:
    """All functors base -> G, in deterministic order.

    For each object-level g assignment, an arrow f admits exactly the h with
    tau(h) = g(target)·g(source)^-1."""
    if not cm.is_finite:
        raise StructuralError("functor enumeration needs a finite crossed module")
    out: list[FunctorUG] = []
    arrow_names = sorted(base.arrows)
    for g_assign in itertools.product(cm.G.elements, repeat=len(base.objects)):
        g_table = dict(zip(base.objects, g_assign))
        needs = [cm.G.mul(g_table[dst], cm.G.inv(g_table[src]))
                 for src, dst in map(base.arrows.get, arrow_names)]
        candidates = [[h for h in cm.H.elements if cm.G.eq(cm.tau(h), need)] for need in needs]
        for combo in itertools.product(*candidates):  # empty if an arrow has no candidate
            out.append(FunctorUG(base, cm, dict(g_table), dict(zip(arrow_names, combo))))
    return out


def _functor_laws(F: FunctorUG):
    """(holds, law, morphisms) of each functor law on the enumerated
    morphisms, lazily, in witness order."""
    base, cm = F.base, F.cm
    for gamma in base.morphisms_upto():
        img = F.apply(gamma)
        g_source, g_target = F.g(base.source(gamma)), F.g(base.target(gamma))
        yield cm.G.eq(cm.source(img), g_source), "source", (gamma,)
        yield cm.G.eq(cm.target(img), g_target), "target", (gamma,)
        yield (cm.G.eq(cm.tau(F.h(gamma)), cm.G.mul(g_target, cm.G.inv(g_source))),
               "tau-compatibility", (gamma,))
        if gamma.is_identity:
            yield cm.H.eq(F.h(gamma), cm.H.identity), "identity", (gamma,)
    for m2, m1 in base.composable_pairs():
        comp = base.compose(m2, m1)
        yield cm.H.eq(F.h(comp), cm.H.mul(F.h(m2), F.h(m1))), "h-multiplicativity", (m2, m1)
        yield (cm.m_eq(F.apply(comp), cm.compose_vertical(F.apply(m2), F.apply(m1))),
               "composition", (m2, m1))


def functor_ok(F: FunctorUG):
    """Every functor law holds: a bool, or a per-case mask."""
    return every(holds for holds, _, _ in _functor_laws(F))


def functor_invariant_witness(F: FunctorUG) -> dict | None:
    """The first violated functor law of one functor, or None."""
    for holds, law, ms in _functor_laws(F):
        if not holds:
            names = ("gamma",) if len(ms) == 1 else ("gamma2", "gamma1")
            return {"law": law, **{k: repr(m) for k, m in zip(names, ms)}}
    return None


def verify_prop31_roundtrip(base: QuiverCategory, cm: CrossedModule,
                            budget: int = DEFAULT_BUDGET,
                            rng: Stream | None = None) -> LawReport:
    """Every functor built from an object-level H-map satisfies the encoding
    invariants exactly, with exhaustive functoriality; and the telescoping
    form of the composite H-value matches the generator fold. A block of
    cases is one functor whose tables hold stacked values."""
    rng = rng or Stream(0)
    report = LawReport(suite="prop31-roundtrip")
    H = CaseSpace.carrier(cm.H)

    def build(*hs):
        hm = dict(zip(base.objects, hs))
        return hm, functor_from_h(base, cm, hm)

    # every case checks a whole functor, so at most PROP31_BUDGET of them;
    # the three laws check the same functors
    plan = CaseSpace.product(*[H] * len(base.objects), build=build).plan(
        min(budget, PROP31_BUDGET), rng)
    functors = replace(plan, cases=list(plan))

    report.law(
        "roundtrip-invariants", "Eqs 3.7-3.8", functors,
        lambda p: functor_ok(p[1]), lambda p: functor_invariant_witness(p[1]),
    )

    def telescoping(p):  # (holds, pair) of each composable pair, lazily
        hm, F = p
        for m2, m1 in base.composable_pairs():
            comp = base.compose(m2, m1)
            want = cm.H.mul(hm[comp.target], cm.H.inv(hm[comp.source]))
            yield cm.H.eq(F.h(comp), want), (m2, m1)

    report.law(
        "telescoping", "Eq 3.26", functors,
        lambda p: every(holds for holds, _ in telescoping(p)),
        lambda p: next({"gamma2": repr(m2), "gamma1": repr(m1)}
                       for holds, (m2, m1) in telescoping(p) if not holds),
    )

    report.law(
        "object-encoding", "Eq 3.9", functors,
        lambda p: every(cm.G.eq(p[1].g(a), cm.tau(p[0][a])) for a in base.objects),
        lambda p: {"case": "g=tau∘h"},
    )
    return report


# -- natural transformations (Prop 3.3) --

@dataclass
class NatTransf:
    """A natural transformation between functors, encoded by an object-level
    H-valued map; the target functor is the gauge transform of the source."""
    source: FunctorUG
    target: FunctorUG
    hT: dict

    def at(self, a) -> TwoGroupMorphism:
        return TwoGroupMorphism(self.hT[a], self.source.g(a))


def gauge(F1: FunctorUG, hT: dict) -> NatTransf:
    """The transformation out of F1 determined by hT: the target functor has
    g2 = tau(hT)·g1 on objects and h2(f) = hT(b)·h1(f)·hT(a)^-1 on arrows."""
    base, cm = F1.base, F1.cm
    g2 = {a: cm.G.mul(cm.tau(hT[a]), F1.g_table[a]) for a in base.objects}
    h2 = {f: cm.H.mul(cm.H.mul(hT[dst], F1.h_gen[f]), cm.H.inv(hT[src]))
          for f, (src, dst) in base.arrows.items()}
    return NatTransf(F1, FunctorUG(base, cm, g2, h2), dict(hT))


def identity_transf(F: FunctorUG) -> NatTransf:
    return gauge(F, {a: F.cm.H.identity for a in F.base.objects})


def nat_vertical_compose(T2: NatTransf, T1: NatTransf) -> NatTransf:
    """(T2 ∘ T1)(a) = T2(a) ∘ T1(a); the h-components multiply as h2·h1."""
    if not all_cases(T1.target.eq(T2.source)):
        raise CompositionUndefined("target functor of T1 is not the source functor of T2")
    cm = T1.source.cm
    hT = {a: cm.H.mul(T2.hT[a], T1.hT[a]) for a in T1.source.base.objects}
    return NatTransf(T1.source, T2.target, hT)


def nat_pointwise_mul(Tp: NatTransf, T: NatTransf) -> NatTransf:
    """(T'T)(a) = T'(a)·T(a) in the morphism group."""
    cm = T.source.cm
    base = T.source.base
    hT = {a: cm.H.mul(Tp.hT[a], cm.alpha(Tp.source.g(a), T.hT[a])) for a in base.objects}
    return NatTransf(Tp.source.mul(T.source), Tp.target.mul(T.target), hT)


def nat_inverse(T: NatTransf) -> NatTransf:
    cm = T.source.cm
    base = T.source.base
    hT = {a: cm.alpha(cm.G.inv(T.source.g(a)), cm.H.inv(T.hT[a])) for a in base.objects}
    return NatTransf(T.source.inv(), T.target.inv(), hT)


def nat_eq(T1: NatTransf, T2: NatTransf):
    """Equal source functors and h-maps, per case."""
    H = T1.source.cm.H
    objects = T1.source.base.objects
    return every([T1.source.eq(T2.source)] + [H.eq(T1.hT[a], T2.hT[a]) for a in objects])


def _naturality_squares(T: NatTransf):
    """(holds, gamma, lhs, rhs) of the naturality square
    target∘T(a) = T(b)∘source of each morphism, lazily."""
    base, cm = T.source.base, T.source.cm
    for gamma in base.morphisms_upto():
        a, b = base.source(gamma), base.target(gamma)
        lhs = cm.compose_vertical(T.target.apply(gamma), T.at(a))
        rhs = cm.compose_vertical(T.at(b), T.source.apply(gamma))
        yield cm.m_eq(lhs, rhs), gamma, lhs, rhs


def natural_ok(T: NatTransf):
    """Every naturality square commutes: a bool, or a per-case mask."""
    return every(square[0] for square in _naturality_squares(T))


def naturality_witness(T: NatTransf) -> dict | None:
    """First morphism of one transformation whose naturality square fails
    to commute, or None."""
    for holds, gamma, *sides in _naturality_squares(T):
        if not holds:
            return {"gamma": repr(gamma), **sides_witness(T.source.cm.fmt_m, sides)}
    return None


def verify_GU_categorical_group(
    base: QuiverCategory,
    cm: CrossedModule,
    budget: int = DEFAULT_BUDGET,
    streams: Streams = seed_zero,
) -> LawReport:
    """Certify that functors base -> G and their transformations form a
    categorical group: both group structures, s/t/identity-assignment
    homomorphisms, vertical category laws, and the exchange law.

    A case is coded by ints: a functor by its index in the enumerated list,
    a transformation gauge(F, hT) by F's index and then hT's H code per
    object, and a vertical chain by its first transformation and then the hT
    of each next one (the same cases, in the same order, as the nested loops
    over functors and hT tables). Every law runs in blocks of such codes."""
    report = LawReport(suite="prop34-gu-group", budget=budget, streams=streams)
    objects, arrows = base.objects, list(base.arrows)
    Fs = enumerate_functors(base, cm)
    # row f: Fs[f]'s G code on each object and H code on each arrow
    g_codes = np.array([[F.g_table[a] for a in objects] for F in Fs], dtype=np.int64)
    h_codes = np.array([[F.h_gen[f] for f in arrows] for F in Fs], dtype=np.int64)
    E = constant_identity_functor(base, cm)
    one_E = identity_transf(E)

    def functor(f):
        """Fs[f], or for an array of indices the functor whose tables hold
        the stacked codes of those functors."""
        if not isinstance(f, np.ndarray):
            return Fs[f]
        return FunctorUG(base, cm, {a: gather(g_codes, f, j) for j, a in enumerate(objects)},
                         {name: gather(h_codes, f, k) for k, name in enumerate(arrows)})

    functors = CaseSpace.product(range(len(Fs)), build=functor)

    def chain(k: int) -> CaseSpace:
        """T = gauge(Fs[f], hT) from the codes (f, hT) when k is 1, else the
        vertical chain (T_k, ..., T_1) from f and k hT tables, one H code per
        object: each next transformation starts at the target functor of
        the last."""
        n = len(objects)

        def build(f, *hs):
            Ts, F = [], functor(f)
            for i in range(k):
                Ts.append(gauge(F, dict(zip(objects, hs[i * n:(i + 1) * n]))))
                F = Ts[-1].target
            return Ts[0] if k == 1 else tuple(reversed(Ts))

        return CaseSpace.product(range(len(Fs)), *[cm.H.elements] * (n * k), build=build)

    # a product of spaces gives a tuple of independent cases, each from its own codes
    transfs = chain(1)
    functor_pairs = CaseSpace.product(functors, functors)
    transf_pairs = CaseSpace.product(transfs, transfs)

    report.law(
        "functor-product-closure", "Prop 3.2", functor_pairs,
        lambda p: functor_ok(p[0].mul(p[1])),
        lambda p: functor_invariant_witness(p[0].mul(p[1])),
    )

    report.law(
        "object-group-laws", "Prop 3.2", CaseSpace.product(functors, functors, functors),
        lambda t: (t[0].mul(t[1]).mul(t[2]).eq(t[0].mul(t[1].mul(t[2])))
                   & t[0].mul(t[0].inv()).eq(E)
                   & t[0].mul(E).eq(t[0])),
        lambda t: {"case": "object-group"},
    )

    report.law(
        "morphism-product-closure", "diagram 3.14", transf_pairs,
        lambda p: natural_ok(nat_pointwise_mul(p[0], p[1])),
        lambda p: naturality_witness(nat_pointwise_mul(p[0], p[1])),
    )

    def product_boundaries_ok(p):
        product = nat_pointwise_mul(p[0], p[1])
        return (product.source.eq(p[0].source.mul(p[1].source))
                & product.target.eq(p[0].target.mul(p[1].target)))

    report.law(
        "source-target-homomorphism", "Eq 2.2", transf_pairs,
        product_boundaries_ok, lambda p: {"case": "s/t"},
    )

    report.law(
        "morphism-group-laws", "Prop 3.4", transfs,
        lambda T: (nat_eq(nat_pointwise_mul(T, nat_inverse(T)), one_E)
                   & nat_eq(nat_pointwise_mul(T, one_E), T)),
        lambda T: {"case": "morphism-group"},
    )

    report.law(
        "identity-assignment", "§2.1", functor_pairs,
        lambda p: nat_eq(
            identity_transf(p[0].mul(p[1])),
            nat_pointwise_mul(identity_transf(p[0]), identity_transf(p[1])),
        ),
        lambda p: {"case": "identity-assignment"},
    )

    report.law(
        "vertical-units", "Eq 3.15", transfs,
        lambda T: (nat_eq(nat_vertical_compose(identity_transf(T.target), T), T)
                   & nat_eq(nat_vertical_compose(T, identity_transf(T.source)), T)),
        lambda T: {"case": "vertical-units"},
    )
    report.law(
        "vertical-associativity", "Eq 3.15", chain(3),
        lambda t: nat_eq(
            nat_vertical_compose(nat_vertical_compose(t[0], t[1]), t[2]),
            nat_vertical_compose(t[0], nat_vertical_compose(t[1], t[2])),
        ),
        lambda t: {"case": "vertical-assoc"},
    )

    def exchange_ok(pq):
        (T2, T1), (Tp2, Tp1) = pq
        lhs = nat_vertical_compose(nat_pointwise_mul(Tp2, T2), nat_pointwise_mul(Tp1, T1))
        rhs = nat_pointwise_mul(nat_vertical_compose(Tp2, Tp1), nat_vertical_compose(T2, T1))
        return nat_eq(lhs, rhs)

    report.law(
        "exchange-law-functors", "Eq 3.17", CaseSpace.product(chain(2), chain(2)), exchange_ok,
        lambda pq: {"case": "exchange"})
    return report


# -- sections and trivializations (§4) --

class SectionIso:
    """The bundle map Psi_sigma(a, g) = sigma(a)·g induced by the section
    u -> (u, F(u)) of the product bundle."""

    def __init__(self, F: FunctorUG):
        self.F = F
        self.bundle = TwistedBundle(F.base, F.cm, EtaMap.trivial(F.base, F.cm))

    def on_object(self, a, g):
        return (a, self.F.cm.G.mul(self.F.g(a), g))

    def on_morphism(self, tm: TwistedMorphism) -> TwistedMorphism:
        return TwistedMorphism(tm.gamma, self.F.cm.sdp_multiply(self.F.apply(tm.gamma), tm.m))

    def inv_object(self, a, g):
        return (a, self.F.cm.G.mul(self.F.cm.G.inv(self.F.g(a)), g))

    def inv_morphism(self, tm: TwistedMorphism) -> TwistedMorphism:
        return TwistedMorphism(
            tm.gamma,
            self.F.cm.sdp_multiply(self.F.cm.sdp_inverse(self.F.apply(tm.gamma)), tm.m),
        )

    def compose_with(self, other: "SectionIso") -> "SectionIso":
        """self ∘ other as bundle maps; corresponds to the pointwise product
        of the inducing functors."""
        return SectionIso(self.F.mul(other.F))


def verify_section_iso(F: FunctorUG, budget: int = DEFAULT_BUDGET,
                       streams: Streams = seed_zero) -> LawReport:
    """Prop 4.1 on exhaustive finite data: Psi_sigma keeps each fiber, is
    equivariant, preserves composition and is a bijection. An object (a, g)
    is a's index and a code, a bundle morphism its codes, and every law runs
    in blocks; each bijectivity law is one case that maps every object or
    morphism in one block."""
    report = LawReport(suite="prop41-section", budget=budget, streams=streams)
    base, cm = F.base, F.cm
    if not cm.is_finite:
        raise StructuralError("the Prop 4.1 section check needs a finite crossed module")
    G = cm.G
    iso = SectionIso(F)
    bundle = iso.bundle
    indices = range(len(base.objects))
    objects = CaseSpace.product(indices, G.elements, build=lambda a, g: (base.object(a), g))
    morphisms = bundle_morphisms(bundle)

    report.law(
        "section-projection", "Prop 4.1", CaseSpace.product(indices, build=base.object),
        lambda a: iso.on_object(a, G.identity)[0] == a, lambda a: {"object": a},
    )

    report.law(
        "equivariance-objects", "Eq 4.4", CaseSpace.product(objects, G.elements),
        lambda p: G.eq(
            iso.on_object(*bundle.act_object(p[0], p[1]))[1],
            G.mul(iso.on_object(*p[0])[1], p[1]),
        ),
        lambda p: {"object": str(p[0][0])},
    )

    report.law(
        "equivariance-morphisms", "Eq 4.4", CaseSpace.product(morphisms, cm.morphism_space()),
        lambda p: bundle.morphism_eq(
            iso.on_morphism(bundle.act(p[0], p[1])),
            bundle.act(iso.on_morphism(p[0]), p[1]),
        ),
        lambda p: {"gamma": repr(p[0].gamma)},
    )

    # the objects, then the morphisms: a case is whether it is an object, and
    # its number read as an object and as a morphism (the reading that does
    # not apply decodes its space's case 0)
    n_objects = objects.size

    def fiber_codes(i):
        is_object = i < n_objects
        return [is_object, *objects.decode(np.where(is_object, i, 0)),
                *morphisms.decode(np.where(is_object, 0, i - n_objects))]

    def fiber_ok(c):
        is_object, (a, g), tm = c
        return np.where(is_object, iso.on_object(a, g)[0] == a, iso.on_morphism(tm).gamma == tm.gamma)

    report.law(
        "fiber-preservation", "Prop 4.1",
        CaseSpace.coded(n_objects + morphisms.size, 1 + objects.arity + morphisms.arity,
                        fiber_codes, lambda is_object, a, g, *m: (
                            is_object, objects.build(a, g), morphisms.build(*m))),
        fiber_ok, lambda c: {"case": "fiber"},
    )

    def obj_bij(_):
        a, g = _every_case(objects)
        image = iso.on_object(a, g)
        repeat = _first_repeat(*image)
        if repeat is not None:  # finite elements are codes, equal exactly when `eq`
            return {"collision": f"{objects[repeat[0]]} vs {objects[repeat[1]]}"}
        back = iso.on_object(*iso.inv_object(a, g))  # surjectivity via the explicit inverse
        held = (back[0] == a) & G.eq(back[1], g)
        return None if held.all() else {"no-preimage": str(objects[int(held.argmin())][0])}

    report.law(
        "bijectivity-objects", "Prop 4.1",
        CaseSpace.finite([0]), lambda c: obj_bij(c) is None, obj_bij)

    def mor_bij(_):
        tm = _every_case(morphisms)
        image = iso.on_morphism(tm)
        repeat = _first_repeat(image.gamma, image.m.h, image.m.g)
        if repeat is not None:
            return {"collision": repr(morphisms[repeat[1]].gamma)}
        held = bundle.morphism_eq(iso.on_morphism(iso.inv_morphism(tm)), tm)
        return None if held.all() else {"no-preimage": repr(morphisms[int(held.argmin())].gamma)}

    report.law(
        "bijectivity-morphisms", "Prop 4.1",
        CaseSpace.finite([0]), lambda c: mor_bij(c) is None, mor_bij)

    report.law(
        "composition-preservation", "Eq 4.5", composable_chains(bundle, 2),
        lambda p: bundle.morphism_eq(
            iso.on_morphism(bundle.compose(p[0], p[1])),
            bundle.compose(iso.on_morphism(p[0]), iso.on_morphism(p[1])),
        ),
        lambda p: {"gamma2": repr(p[0].gamma), "gamma1": repr(p[1].gamma)},
    )
    return report


def _every_case(space: CaseSpace):
    """Every case of a finite coded space, built as one block."""
    return space.build(*space.decode(np.arange(space.size)))


def _first_repeat(*columns: np.ndarray) -> tuple[int, int] | None:
    """The first index whose row of the int columns repeats an earlier row,
    after the index of that earlier row: (earlier, repeat), or None when no
    row repeats."""
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for c in columns:
        if len(c):
            c = c - c.min()
            key = key * (int(c.max()) + 1) + c
    order = np.argsort(key, kind="stable")  # equal keys keep index order
    later = order[1:][key[order[1:]] == key[order[:-1]]]
    if not len(later):
        return None
    repeat = int(later.min())
    return int(np.argmax(key == key[repeat])), repeat


class ExtractionRefused(ValueError):
    """The given endofunctor is not fiber-preserving or not equivariant."""


def _spread(group, k: int, start: int) -> np.ndarray:
    """A stack of k fixed elements spread over an infinite group, from
    points start, ..., start + k - 1 of the Kronecker sequence of sqrt(2),
    sqrt(3) and sqrt(5), so that no suite stream moves."""
    alphas = np.sqrt([2.0, 3.0, 5.0][:group.width]) % 1.0
    return group.sample_stack((np.arange(start, start + k)[:, None] * alphas) % 1.0)


def extract_functor(phi: SectionIso | object, base: QuiverCategory, cm: CrossedModule) -> FunctorUG:
    """Recover the functor sigma with phi(a, g) = (a, sigma(a)·g) from an
    equivariant fiber-preserving bundle endofunctor; refuses with a witness
    otherwise. Equivariance is probed with one stack of fixed group elements
    per object and one of morphisms per arrow, so phi must map each element
    of a stack on its own."""
    bundle = TwistedBundle(base, cm, EtaMap.trivial(base, cm))
    on_object, on_morphism = phi.on_object, phi.on_morphism
    for a in base.objects:
        img = on_object(a, cm.G.identity)
        if img[0] != a:
            raise ExtractionRefused(f"not fiber-preserving at object {a!r}")
    if cm.is_finite:  # equivariance probes
        g_probes = np.array(cm.G.elements[:8])
        hs, gs = zip(*((m.h, m.g) for m in itertools.islice(cm.morphism_space(), 12)))
        m_probes = TwoGroupMorphism(np.array(hs), np.array(gs))
    else:
        g_probes = _spread(cm.G, 8, 1)
        m_probes = TwoGroupMorphism(_spread(cm.H, 12, 9), _spread(cm.G, 12, 21))
    for a in base.objects:
        lhs = on_object(a, g_probes)
        rhs = bundle.act_object(on_object(a, cm.G.identity), g_probes)
        held = np.broadcast_to((lhs[0] == rhs[0]) & cm.G.eq(lhs[1], rhs[1]), (len(g_probes),))
        if not held.all():
            g1 = g_probes[held.argmin()]  # the first failing probe
            raise ExtractionRefused(f"not equivariant at object {a!r}, g={cm.G.fmt(g1)}")
    g_table = {a: on_object(a, cm.G.identity)[1] for a in base.objects}
    h_gen = {}
    for f in base.arrows:
        gamma = base.arrow(f)
        img = on_morphism(TwistedMorphism(gamma, cm.unit))
        if img.gamma != gamma:
            raise ExtractionRefused(f"not fiber-preserving at arrow {f!r}")
        h_gen[f] = img.m.h
        if not cm.G.eq(img.m.g, g_table[gamma.source]):
            raise ExtractionRefused(f"source intertwining fails at arrow {f!r}")
    for gamma in base.generators():
        tm = TwistedMorphism(gamma, cm.unit)
        acted = on_morphism(bundle.act(tm, m_probes))
        if not all_cases(bundle.morphism_eq(acted, bundle.act(on_morphism(tm), m_probes))):
            raise ExtractionRefused(f"not equivariant at arrow {gamma!r}")
    F = FunctorUG(base, cm, g_table, h_gen)
    witness = functor_invariant_witness(F)
    if witness is not None:
        raise ExtractionRefused(f"extracted data is not a functor: {witness}")
    return F


def verify_composition_correspondence(F2: FunctorUG, F1: FunctorUG, budget: int = DEFAULT_BUDGET,
                                      streams: Streams = seed_zero) -> LawReport:
    """Composition of the induced bundle automorphisms corresponds to the
    pointwise product of the functors."""
    report = LawReport(suite="prop42-correspondence", budget=budget, streams=streams)
    base, cm = F1.base, F1.cm
    phi2, phi1 = SectionIso(F2), SectionIso(F1)
    composed = phi2.compose_with(phi1)

    report.law(
        "composition-correspondence", "Eq 4.11", CaseSpace.finite([0]),
        lambda _: extract_functor(composed, base, cm).eq(F2.mul(F1)),
        lambda _: {"case": "sigma-product"},
    )
    report.law(
        "extraction-roundtrip", "Eq 4.7", CaseSpace.finite([F1, F2]),
        lambda F: extract_functor(SectionIso(F), base, cm).eq(F),
        lambda F: {"case": "roundtrip"},
    )
    report.law(
        "intertwining", "Eq 4.8", CaseSpace.finite(base.morphisms_upto()),
        lambda gamma: (cm.G.eq(cm.source(F1.apply(gamma)), F1.g(base.source(gamma)))
                       & cm.G.eq(cm.target(F1.apply(gamma)), F1.g(base.target(gamma)))),
        lambda gamma: {"gamma": repr(gamma)},
    )
    return report


def verify_bundle_axioms(base: QuiverCategory, cm: CrossedModule,
                         budget: int = DEFAULT_BUDGET,
                         streams: Streams = seed_zero) -> LawReport:
    """Principal-bundle axioms for the product bundle: surjectivity, freeness
    and fiber-transitivity of the action, plus category laws upstairs."""
    if not cm.is_finite:
        raise StructuralError("the product-bundle axioms need a finite crossed module")
    report = LawReport(suite="bundle-axioms", budget=budget, streams=streams)
    bundle = TwistedBundle(base, cm, EtaMap.trivial(base, cm))

    def lift(x):  # through the unit: an object's identity, or a base morphism
        return TwistedMorphism(base.identity(x) if isinstance(x, str) else x, cm.unit)

    # the objects, then the morphisms: a case is whether it is an object, and
    # its code, which on a block is a morphism code (an object's index is the
    # code of its identity)
    n_objects = len(base.objects)

    def lifted_codes(i):
        is_object = i < n_objects
        return [is_object, np.where(is_object, i, i - n_objects)]

    report.law(
        "b1-surjectivity", "§2.2 (b1)",
        CaseSpace.coded(n_objects + len(base.codes()), 2, lifted_codes, lambda is_object, c: (
            c if isinstance(c, np.ndarray) else base.object(c) if is_object else base.morphism(c))),
        lambda x: b1_ok(bundle, lift(x)), lambda x: {"missing": repr(x)},
    )

    # an object (a, g) in a block is a's index in `base.objects` and a code
    indices = range(len(base.objects))
    objects_acted = CaseSpace.product(indices, cm.G.elements, cm.G.elements,
                                      build=lambda a, g, g1: ((base.object(a), g), g1))

    def object_free_ok(p):  # as `free_ok`: acting by g1 fixes (a, g) only if g1 is the identity
        fixed = cm.G.eq(bundle.act_object(p[0], p[1])[1], p[0][1])
        return True if fixed is False else fixed <= cm.G.eq(p[1], cm.G.identity)

    report.law(
        "b2-freeness-objects", "§2.2 (b2)", objects_acted, object_free_ok,
        lambda p: {"object": str(p[0][0]), "g": cm.G.fmt(p[1])},
    )
    report.law(
        "b2-freeness-morphisms", "§2.2 (b2)",
        CaseSpace.product(bundle_morphisms(bundle), cm.morphism_space()),
        lambda p: free_ok(bundle, *p), lambda p: {"gamma": repr(p[0].gamma)},
    )

    # pairs in one fiber, over one base object or base morphism
    same_object = CaseSpace.product(indices, cm.G.elements, cm.G.elements, build=lambda a, g1, g2: (
        (base.object(a), g1), (base.object(a), g2)))
    report.law(
        "b3-transitivity-objects", "§2.2 (b3)", same_object,
        lambda p: cm.G.eq(
            bundle.act_object(p[0], cm.G.mul(cm.G.inv(p[0][1]), p[1][1]))[1], p[1][1]),
        lambda p: {"object": str(p[0][0])},
    )

    def same_gamma(gamma, m1, m2):
        gamma = base.morphism(gamma)
        return TwistedMorphism(gamma, m1), TwistedMorphism(gamma, m2)

    same_morphism = CaseSpace.product(base.codes(), cm.morphism_space(), cm.morphism_space(),
                                      build=same_gamma)
    report.law(
        "b3-transitivity-morphisms", "§2.2 (b3)", same_morphism,
        lambda p: bundle.morphism_eq(
            bundle.act(p[0], cm.sdp_multiply(cm.sdp_inverse(p[0].m), p[1].m)), p[1]),
        lambda p: {"gamma": repr(p[0].gamma)},
    )

    report.law(
        "composition-units", "Eq 3.4", bundle_morphisms(bundle),
        lambda tm: units_ok(bundle, tm), lambda tm: {"gamma": repr(tm.gamma)},
    )
    # the action commutes with composition, and with s and t on the first factor
    report.law(
        "action-functoriality", "Eq 3.2",
        CaseSpace.product(composable_chains(bundle, 2), vertical_pairs(cm)),
        lambda c: action_composition_ok(bundle, *c) & action_boundaries_ok(bundle, c[0][1], c[1][1]),
        lambda c: {"gamma2": repr(c[0][0].gamma), "gamma1": repr(c[0][1].gamma),
                   "m2": cm.fmt_m(c[1][0]), "m1": cm.fmt_m(c[1][1])},
    )
    return report
