"""Overlap categories over a finite cover, nonabelian cocycle data
(h_ij, h_ijk), the theta functors they induce, the natural transformation
comparing theta products on triple overlaps, and transition functors
extracted from local trivializations.

Objects of an overlap category carry their index tuple as an explicit tag;
keeping the tags distinct is what makes e.g. the lower and upper copies of
the same base point different objects. An overlap category is stored by its
full morphism list, each morphism its own one-letter word, so theta and
transition functors are `bundle.FunctorUG`s with h given on every morphism,
the triple-overlap comparison is a `bundle.NatTransf`, and both functor laws
are checked by `bundle.functor_invariant_witness`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .basecat import QuiverCategory, QuiverMorphism
from .bundle import FunctorUG, NatTransf, _spread, functor_invariant_witness, functor_ok
from .crossed import CompositionUndefined, CrossedModule, TwoGroupMorphism
from .groups import StructuralError, all_cases, every
from .report import DEFAULT_BUDGET, CaseSpace, LawReport, sides_witness
from .stream import Stream, Streams, seed_zero

Tag = tuple[int, ...]
OverlapObject = tuple[Tag, str]


class CocycleConditionError(ValueError):
    """Construction refused because the cocycle condition fails; run
    verify_cocycle_condition for the witness."""


@dataclass(frozen=True)
class Cover:
    index_set: tuple[int, ...]
    sets: dict  # index -> frozenset of base objects

    def __post_init__(self):
        for i in self.index_set:
            if i not in self.sets:
                raise StructuralError(f"cover set missing for index {i}")

    @staticmethod
    def from_dict(d: dict) -> "Cover":
        sets = {int(k): frozenset(v) for k, v in d.items()}
        return Cover(tuple(sorted(sets)), sets)

    def check_covers(self, base: QuiverCategory) -> None:
        union = set().union(*self.sets.values()) if self.sets else set()
        missing = set(base.objects) - union
        if missing:
            raise StructuralError(f"cover misses objects: {sorted(missing)}")

    def intersection(self, indices: Iterable[int]) -> frozenset:
        out = None
        for i in indices:
            out = self.sets[i] if out is None else (out & self.sets[i])
        return out if out is not None else frozenset()


@dataclass(frozen=True)
class OverlapMorphism:
    source: OverlapObject
    target: OverlapObject
    base: QuiverMorphism
    is_identity: bool

    @property
    def word(self) -> tuple["OverlapMorphism"]:
        return (self,)

    def __repr__(self) -> str:
        if self.is_identity:
            return f"id_{self.source}"
        return f"{self.base!r}@{self.source[0]}->{self.target[0]}"


class OverlapCategory:
    """Tagged points of the lower/upper intersections as objects; base
    morphisms running lower -> upper, plus identities, as morphisms.
    Composition is defined only when one factor is an identity. Every
    morphism is a generator: `arrows` maps each to its (source, target)."""

    def __init__(self, base: QuiverCategory, cover: Cover, lower: Tag, upper: Tag):
        if not (1 <= len(lower) <= 3 and len(lower) == len(upper)):
            raise StructuralError("index tuples must have equal length 1..3")
        for i in tuple(lower) + tuple(upper):
            if i not in cover.index_set:
                raise StructuralError(f"index {i} not in the cover")
        self.base = base
        self.cover = cover
        self.lower = tuple(lower)
        self.upper = tuple(upper)
        self.lower_set = cover.intersection(self.lower)
        self.upper_set = cover.intersection(self.upper)
        objs: list[OverlapObject] = [(self.lower, u) for u in sorted(self.lower_set)]
        if self.upper != self.lower:
            objs += [(self.upper, v) for v in sorted(self.upper_set)]
        self.objects = objs
        self.morphisms: list[OverlapMorphism] = [
            OverlapMorphism(x, x, base.identity(x[1]), True) for x in objs
        ]
        for gamma in base.morphisms_upto():
            if gamma.source in self.lower_set and gamma.target in self.upper_set:
                if gamma.is_identity and self.lower == self.upper:
                    continue  # already present as the identity morphism
                self.morphisms.append(OverlapMorphism(
                    (self.lower, gamma.source), (self.upper, gamma.target), gamma, False))
        self.arrows = {m: (m.source, m.target) for m in self.morphisms}
        self._identities = {m.source: m for m in self.morphisms if m.is_identity}

    def source(self, m: OverlapMorphism) -> OverlapObject:
        return m.source

    def target(self, m: OverlapMorphism) -> OverlapObject:
        return m.target

    def morphisms_upto(self) -> list[OverlapMorphism]:
        """All morphisms: an overlap category is finite."""
        return self.morphisms

    def composable_pairs(self) -> Iterator[tuple[OverlapMorphism, OverlapMorphism]]:
        """Every defined composite (m2, m1): those with an identity factor."""
        for m in self.morphisms:
            yield m, self._identities[m.source]
            if not m.is_identity:
                yield self._identities[m.target], m

    def compose(self, m2: OverlapMorphism, m1: OverlapMorphism) -> OverlapMorphism:
        if m1.is_identity and m1.target == m2.source:
            return m2
        if m2.is_identity and m2.source == m1.target:
            return m1
        raise CompositionUndefined(
            "overlap morphisms compose only through identities",
            target_value=m1.target, source_value=m2.source,
        )


class CocycleData:
    """h_ij on pairwise intersections, h_ijk on triple intersections."""

    def __init__(self, pairs: dict, triples: dict):
        self.pairs = pairs    # (i, j) -> {point: H}
        self.triples = triples  # (i, j, k) -> {point: H}

    def h_pair(self, i: int, j: int, point: str):
        try:
            return self.pairs[(i, j)][point]
        except KeyError:
            raise StructuralError(f"h_{i}{j} undefined at point {point!r}") from None

    def h_triple(self, i: int, j: int, k: int, point: str):
        try:
            return self.triples[(i, j, k)][point]
        except KeyError:
            raise StructuralError(f"h_{i}{j}{k} undefined at point {point!r}") from None

    def condition_sides(self, cm: CrossedModule, i: int, j: int, k: int, point: str):
        """(h_ijk·h_ik, h_ij·h_jk) at a point, equal where the cocycle condition holds."""
        return (cm.H.mul(self.h_triple(i, j, k, point), self.h_pair(i, k, point)),
                cm.H.mul(self.h_pair(i, j, point), self.h_pair(j, k, point)))


def constructive_cocycle(cover: Cover, cm: CrossedModule,
                         rng: Stream) -> CocycleData:
    """Seeded random h_ij with h_ijk := h_ij·h_jk·h_ik^-1, which satisfies the
    cocycle condition by construction."""
    pairs: dict = {}
    for i, j in itertools.product(cover.index_set, repeat=2):
        pairs[(i, j)] = {pt: cm.H.sample(rng) for pt in sorted(cover.intersection((i, j)))}
    triples: dict = {}
    for i, j, k in itertools.product(cover.index_set, repeat=3):
        vals = {}
        for pt in sorted(cover.intersection((i, j, k))):
            vals[pt] = cm.H.mul(
                cm.H.mul(pairs[(i, j)][pt], pairs[(j, k)][pt]),
                cm.H.inv(pairs[(i, k)][pt]),
            )
        triples[(i, j, k)] = vals
    return CocycleData(pairs, triples)


def verify_cocycle_condition(data: CocycleData, cover: Cover, cm: CrossedModule,
                             budget: int = DEFAULT_BUDGET,
                             streams: Streams = seed_zero) -> LawReport:
    """h_ijk·h_ik = h_ij·h_jk at every triple-overlap point."""
    report = LawReport(suite="cocycle", budget=budget, streams=streams)
    cases = [
        (i, j, k, pt)
        for i, j, k in itertools.product(cover.index_set, repeat=3)
        for pt in sorted(cover.intersection((i, j, k)))
    ]

    report.law(
        "cocycle-condition", "Eq 5.26", CaseSpace.finite(cases),
        lambda case: cm.H.eq(*data.condition_sides(cm, *case)),
        lambda case: {**dict(zip(("i", "j", "k", "point"), case)),
                      **sides_witness(cm.H.fmt, data.condition_sides(cm, *case))},
    )
    return report


def build_theta(data: CocycleData, cm: CrossedModule, overlap: OverlapCategory) -> FunctorUG:
    """theta on objects is tau(h_tag); on a morphism it is
    (h_upper(target)·h_lower(source)^-1, g_lower(source))."""
    if len(overlap.lower) != 2:
        raise StructuralError("theta functors need double-overlap categories")
    i, k = overlap.lower
    j, l = overlap.upper

    def g_of(tag: Tag, pt: str):
        return cm.tau(data.h_pair(tag[0], tag[1], pt))

    g_table = {x: g_of(x[0], x[1]) for x in overlap.objects}
    h_gen: dict = {}
    for m in overlap.morphisms:
        if m.is_identity:
            h_gen[m] = cm.H.identity
        else:
            h_gen[m] = cm.H.mul(
                data.h_pair(j, l, m.target[1]),
                cm.H.inv(data.h_pair(i, k, m.source[1])),
            )
    return FunctorUG(overlap, cm, g_table, h_gen)


def _position_pair(theta_lower: Tag, theta_upper: Tag, triple: OverlapCategory) -> tuple[int, int]:
    for p, q in itertools.combinations(range(len(triple.lower)), 2):
        if ((triple.lower[p], triple.lower[q]) == theta_lower
                and (triple.upper[p], triple.upper[q]) == theta_upper):
            return p, q
    raise StructuralError(
        f"{theta_lower}/{theta_upper} is not a restriction pattern of "
        f"{triple.lower}/{triple.upper}")


def restrict_overlap_functor(F: FunctorUG, triple: OverlapCategory) -> FunctorUG:
    """Values unchanged, objects retagged from the pair overlap to the triple."""
    _position_pair(F.base.lower, F.base.upper, triple)
    src_lower, src_upper = F.base.lower, F.base.upper

    def retag(x: OverlapObject) -> OverlapObject:
        return (src_lower, x[1]) if x[0] == triple.lower else (src_upper, x[1])

    g_table = {x: F.g_table[retag(x)] for x in triple.objects}
    h_gen: dict = {}
    for m in triple.morphisms:
        # an identity word between equal pair tags is stored as the identity
        # morphism in the pair overlap, even when its triple tags differ
        key_identity = m.base.is_identity and retag(m.source) == retag(m.target)
        key = OverlapMorphism(retag(m.source), retag(m.target), m.base, key_identity)
        h_gen[m] = F.h_gen[key]
    return FunctorUG(triple, F.cm, g_table, h_gen)


def triple_transformation(data: CocycleData, cm: CrossedModule,
                          triple: OverlapCategory) -> NatTransf:
    """The transformation theta_im| => (theta_ik|)(theta_km|) whose h-map is
    h_ikm on lower objects and h_jln on upper objects.

    Refuses when the cocycle condition fails at a point it needs."""
    return _transformation_and_thetas(data, cm, triple)[0]


def _transformation_and_thetas(data: CocycleData, cm: CrossedModule,
                               triple: OverlapCategory) -> tuple[NatTransf, list[FunctorUG]]:
    """`triple_transformation`, and the [theta_ik, theta_km, theta_im] it is built from."""
    i, k, m_ = triple.lower
    j, l, n = triple.upper
    for (a, b, c), pts in (((i, k, m_), triple.lower_set), ((j, l, n), triple.upper_set)):
        for pt in sorted(pts):
            if not cm.H.eq(*data.condition_sides(cm, a, b, c, pt)):
                raise CocycleConditionError(
                    f"cocycle condition fails for ({a},{b},{c}) at {pt!r}; "
                    "run verify_cocycle_condition for the full report")
    thetas = [build_theta(data, cm, OverlapCategory(triple.base, triple.cover, lo, up))
              for lo, up in (((i, k), (j, l)), ((k, m_), (l, n)), ((i, m_), (j, n)))]
    th_ik, th_km, th_im = thetas
    product = restrict_overlap_functor(th_ik, triple).mul(restrict_overlap_functor(th_km, triple))
    hT = {}
    for x in triple.objects:
        if x[0] == triple.lower:
            hT[x] = data.h_triple(i, k, m_, x[1])
        else:
            hT[x] = data.h_triple(j, l, n, x[1])
    return NatTransf(restrict_overlap_functor(th_im, triple), product, hT), thetas


def verify_prop51(data: CocycleData, cm: CrossedModule, triple: OverlapCategory,
                  budget: int = DEFAULT_BUDGET, streams: Streams = seed_zero) -> LawReport:
    """Certify the triple-overlap transformation: theta functor laws, the
    object-level gauge relation, the gauge-transformed H-component identity,
    and the naturality square."""
    report = LawReport(suite="prop51", budget=budget, streams=streams)
    T, thetas = _transformation_and_thetas(data, cm, triple)
    P, th_im = T.target, T.source
    report.law(
        "theta-functor", "Eqs 5.34-5.36", CaseSpace.finite(thetas),
        functor_ok, functor_invariant_witness)

    report.law(
        "prop51-object-gauge", "Eq 3.11", CaseSpace.finite(triple.objects),
        lambda x: cm.G.eq(P.g(x), cm.G.mul(cm.tau(T.hT[x]), th_im.g(x))),
        lambda x: {"object": str(x)},
    )

    def h_sides(mm: OverlapMorphism):
        return (cm.H.mul(cm.H.mul(cm.H.inv(T.hT[mm.target]), P.h(mm)), T.hT[mm.source]),
                th_im.h(mm))

    report.law(
        "prop51-h-component", "Eq 5.46", CaseSpace.finite(triple.morphisms),
        lambda mm: cm.H.eq(*h_sides(mm)),
        lambda mm: {"morphism": repr(mm), **sides_witness(cm.H.fmt, h_sides(mm))})

    def square(mm: OverlapMorphism):
        return (cm.compose_vertical(P.apply(mm), T.at(mm.source)),
                cm.compose_vertical(T.at(mm.target), th_im.apply(mm)))

    report.law(
        "prop51-naturality", "Eq 3.10", CaseSpace.finite(triple.morphisms),
        lambda mm: cm.m_eq(*square(mm)),
        lambda mm: {"morphism": repr(mm), **sides_witness(cm.fmt_m, square(mm))})
    return report


# -- transitions between local trivializations (Eqs 5.10-5.25) --

class MixedTrivialization:
    """A local trivialization of the product bundle over a source patch
    (lower index) and target patch (upper index), induced by object-level
    H-valued maps on the two patches."""

    def __init__(self, cm: CrossedModule, lower_idx: int, upper_idx: int,
                 h_lower: dict, h_upper: dict):
        self.cm = cm
        self.lower_idx = lower_idx
        self.upper_idx = upper_idx
        self.h_maps = {"lower": h_lower, "upper": h_upper}

    def g(self, side: str, pt: str):
        return self.cm.tau(self.h_maps[side][pt])

    def obj_to_bundle(self, side: str, pt: str, g):
        return (pt, self.cm.G.mul(self.g(side, pt), g))

    def obj_from_bundle(self, side: str, pt: str, p):
        return self.cm.G.mul(self.cm.G.inv(self.g(side, pt)), p)

    def mor_value(self, gamma: QuiverMorphism, src_side: str = "lower",
                  dst_side: str = "upper") -> TwoGroupMorphism:
        """Morphism-level trivialization datum with source g(src_side, s(gamma))
        and target g(dst_side, t(gamma)); identities at patch objects use a
        single side."""
        cm = self.cm
        h = cm.H.mul(self.h_maps[dst_side][gamma.target],
                     cm.H.inv(self.h_maps[src_side][gamma.source]))
        return TwoGroupMorphism(h, self.g(src_side, gamma.source))

    def mor_to_bundle(self, gamma: QuiverMorphism, psi: TwoGroupMorphism,
                      src_side: str = "lower", dst_side: str = "upper") -> TwoGroupMorphism:
        return self.cm.sdp_multiply(self.mor_value(gamma, src_side, dst_side), psi)

    def mor_from_bundle(self, gamma: QuiverMorphism, psi: TwoGroupMorphism,
                        src_side: str = "lower", dst_side: str = "upper") -> TwoGroupMorphism:
        return self.cm.sdp_multiply(
            self.cm.sdp_inverse(self.mor_value(gamma, src_side, dst_side)), psi)


class TrivializationFamily:
    """One object-level H-valued map per cover index; builds mixed
    trivializations for any (lower, upper) index pair."""

    def __init__(self, cm: CrossedModule, cover: Cover, h_maps: dict):
        self.cm = cm
        self.cover = cover
        self.h_maps = h_maps  # index -> {point: H}

    @staticmethod
    def seeded(cm: CrossedModule, cover: Cover, rng: Stream) -> "TrivializationFamily":
        h_maps = {
            i: {pt: cm.H.sample(rng) for pt in sorted(cover.sets[i])}
            for i in cover.index_set
        }
        return TrivializationFamily(cm, cover, h_maps)

    def trivialization(self, lower_idx: int, upper_idx: int) -> MixedTrivialization:
        return MixedTrivialization(self.cm, lower_idx, upper_idx,
                                   self.h_maps[lower_idx], self.h_maps[upper_idx])


def transition_from_trivializations(phi_to: MixedTrivialization,
                                    phi_from: MixedTrivialization,
                                    overlap: OverlapCategory) -> FunctorUG:
    """The transition functor sigma with
    phi_to^-1(phi_from(x, e)) = (x, e)·sigma(x): apply phi_from, then invert
    phi_to, and read off the group component. Checks equivariance of both
    trivializations on the overlap first, with one stack of fixed group
    elements per object."""
    cm = phi_to.cm
    probes = np.array(cm.G.elements[:4]) if cm.G.is_finite else _spread(cm.G, 4, 1)
    for phi in (phi_to, phi_from):
        for x in overlap.objects:
            side = "lower" if x[0] == overlap.lower else "upper"
            pt_acted = phi.obj_to_bundle(side, x[1], probes)
            pt_base = phi.obj_to_bundle(side, x[1], cm.G.identity)
            if not all_cases(cm.G.eq(pt_acted[1], cm.G.mul(pt_base[1], probes))):
                raise StructuralError(f"trivialization not equivariant at {x}")
    g_table = {}
    for x in overlap.objects:
        side = "lower" if x[0] == overlap.lower else "upper"
        p = phi_from.obj_to_bundle(side, x[1], cm.G.identity)
        g_table[x] = phi_to.obj_from_bundle(side, x[1], p[1])
    h_gen = {}
    for m in overlap.morphisms:
        src_side = "lower" if m.source[0] == overlap.lower else "upper"
        dst_side = "lower" if m.target[0] == overlap.lower else "upper"
        psi = phi_from.mor_to_bundle(m.base, cm.unit, src_side, dst_side)
        h_gen[m] = phi_to.mor_from_bundle(m.base, psi, src_side, dst_side).h
    return FunctorUG(overlap, cm, g_table, h_gen)


def verify_transition_cocycle(family: TrivializationFamily, base: QuiverCategory,
                              lower_triple: Tag, upper_triple: Tag, budget: int = DEFAULT_BUDGET,
                              streams: Streams = seed_zero) -> LawReport:
    """sigma_ik^jl · sigma_km^ln = sigma_im^jn on the triple overlap, as an
    exact equality of functors; plus self-transitions are the identity and
    transitions are functors."""
    report = LawReport(suite="transition-cocycle", budget=budget, streams=streams)
    cm, cover = family.cm, family.cover
    i, k, m_ = lower_triple
    j, l, n = upper_triple
    triple = OverlapCategory(base, cover, lower_triple, upper_triple)

    def sigma(lo: tuple[int, int], up: tuple[int, int]) -> FunctorUG:
        return transition_from_trivializations(
            family.trivialization(lo[0], up[0]),
            family.trivialization(lo[1], up[1]),
            OverlapCategory(base, cover, lo, up),
        )

    s_ik = sigma((i, k), (j, l))
    s_km = sigma((k, m_), (l, n))
    s_im = sigma((i, m_), (j, n))

    report.law(
        "transition-functor", "Eq 5.11", CaseSpace.finite([s_ik, s_km, s_im]),
        functor_ok, functor_invariant_witness)

    # the cocycle relation on objects and morphisms; on finite carriers `eq`
    # is strict equality, so it holds on the nose, not merely within tolerance
    prod = restrict_overlap_functor(s_ik, triple).mul(restrict_overlap_functor(s_km, triple))
    target = restrict_overlap_functor(s_im, triple)

    def sides(x):
        """(eq, fmt, lhs, rhs) of the relation at an object or a morphism."""
        if isinstance(x, OverlapMorphism):
            return cm.m_eq, cm.fmt_m, prod.apply(x), target.apply(x)
        return cm.G.eq, cm.G.fmt, prod.g(x), target.g(x)

    def match_ok(x):
        eq, _, lhs, rhs = sides(x)
        return eq(lhs, rhs)

    def match_witness(x):
        _, fmt, lhs, rhs = sides(x)
        where = {"morphism": repr(x)} if isinstance(x, OverlapMorphism) else {"object": str(x)}
        return {**where, **sides_witness(fmt, (lhs, rhs))}

    report.law(
        "transition-cocycle", "Eq 5.21", CaseSpace.finite(triple.objects + triple.morphisms),
        match_ok, match_witness,
    )

    def self_transition_ok(idx_pair):
        lo, up = idx_pair
        s_self = transition_from_trivializations(
            family.trivialization(lo[0], up[0]),
            family.trivialization(lo[0], up[0]),
            OverlapCategory(base, cover, (lo[0], lo[0]), (up[0], up[0])),
        )
        return every(itertools.chain(
            (cm.G.eq(v, cm.G.identity) for v in s_self.g_table.values()),
            (cm.H.eq(h, cm.H.identity) for h in s_self.h_gen.values())))

    report.law(
        "self-transition-identity", "Eq 5.11", CaseSpace.finite([((i, k), (j, l))]),
        self_transition_ok,
        lambda idx_pair: {"pair": str(idx_pair)})
    return report
