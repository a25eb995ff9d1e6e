"""Crossed modules and the 2-group morphism calculus on H ⋊ G.

A crossed module (G, H, alpha, tau) determines a categorical group whose
object group is G and whose morphism group is the semidirect product H ⋊ G:
the pair (h, g) has source g and target tau(h)·g, group multiplication

    (h2, g2)·(h1, g1) = (h2·alpha_{g2}(h1), g2·g1)

and categorical (vertical) composition

    (h2, g2) ∘ (h1, g1) = (h2·h1, g1)   defined only when tau(h1)·g1 = g2.

When G and H are finite, alpha and tau are int tables of codes, checked
whole when the module is built and read by `groups.lookup`, as the group
tables are: a code gives an int, an array of codes a block of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import (
    CompositionUndefined,
    CyclicGroup,
    Element,
    Group,
    SpecialOrthogonalGroup,
    StructuralError,
    SymmetricGroup,
    all_cases,
    lookup,
)
from .report import DEFAULT_BUDGET, CaseSpace, LawReport, sides_witness
from .stream import Stream, Streams, seed_zero


@dataclass(frozen=True)
class TwoGroupMorphism:
    """A morphism (h, g) of the categorical group, in (h, g) coordinates."""
    h: Element
    g: Element


class CrossedModule:
    def __init__(
        self,
        name: str,
        G: Group,
        H: Group,
        alpha: Callable[[Element, Element], Element],
        tau: Callable[[Element], Element],
        broken: bool = False,
        description: str = "",
    ):
        self.name = name
        self.G = G
        self.H = H
        self.alpha_table = self.tau_table = None
        if G.is_finite and H.is_finite:
            self.alpha_table = _code_table([alpha(g, h) for g in G.elements for h in H.elements],
                                           (G.order, H.order), f"alpha of {name}")
            self.tau_table = _code_table([tau(h) for h in H.elements], (H.order,), f"tau of {name}")
            _check_codes(G, H, self.alpha_table, self.tau_table)
            alpha = lookup(self.alpha_table, lambda g, h: (
                f"alpha of {name} is defined on {G.name} x {H.name}, got ({g!r}, {h!r})"))
            tau = lookup(self.tau_table, lambda h: f"tau of {name} is defined on {H.name}, got {h!r}")
        self.alpha = alpha
        self.tau = tau
        self.broken = broken
        self.description = description

    def __repr__(self) -> str:
        return f"<CrossedModule {self.name}>"

    # -- morphism structure maps (source, target, identities) --

    def source(self, m: TwoGroupMorphism) -> Element:
        return m.g

    def target(self, m: TwoGroupMorphism) -> Element:
        return self.G.mul(self.tau(m.h), m.g)

    def identity_morphism(self, g: Element) -> TwoGroupMorphism:
        return TwoGroupMorphism(self.H.identity, g)

    @property
    def unit(self) -> TwoGroupMorphism:
        return TwoGroupMorphism(self.H.identity, self.G.identity)

    def m_eq(self, m1: TwoGroupMorphism, m2: TwoGroupMorphism):
        """Equality of both components: a bool, or a per-case mask."""
        return self.H.eq(m1.h, m2.h) & self.G.eq(m1.g, m2.g)

    def fmt_m(self, m: TwoGroupMorphism) -> str:
        return f"({self.H.fmt(m.h)}, {self.G.fmt(m.g)})"

    # -- the two compositions --

    def sdp_multiply(self, m2: TwoGroupMorphism, m1: TwoGroupMorphism) -> TwoGroupMorphism:
        return TwoGroupMorphism(
            self.H.mul(m2.h, self.alpha(m2.g, m1.h)),
            self.G.mul(m2.g, m1.g),
        )

    def sdp_inverse(self, m: TwoGroupMorphism) -> TwoGroupMorphism:
        ginv = self.G.inv(m.g)
        return TwoGroupMorphism(self.alpha(ginv, self.H.inv(m.h)), ginv)

    def compose_vertical(self, m2: TwoGroupMorphism, m1: TwoGroupMorphism) -> TwoGroupMorphism:
        t1 = self.target(m1)
        meets = self.G.eq(t1, m2.g)
        if not all_cases(meets):  # a block formats none of its cases
            raise CompositionUndefined(
                "a target in the block != the source after it" if isinstance(meets, np.ndarray)
                else f"target {self.G.fmt(t1)} of first morphism != source {self.G.fmt(m2.g)} of second",
                target_value=t1, source_value=m2.g)
        return TwoGroupMorphism(self.H.mul(m2.h, m1.h), m1.g)

    def compositional_inverse(self, m: TwoGroupMorphism) -> TwoGroupMorphism:
        return TwoGroupMorphism(self.H.inv(m.h), self.target(m))

    # -- enumeration / sampling --

    @property
    def is_finite(self) -> bool:
        return self.G.is_finite and self.H.is_finite

    def sample_morphism(self, rng: Stream) -> TwoGroupMorphism:
        return TwoGroupMorphism(self.H.sample(rng), self.G.sample(rng))

    def morphism_space(self, count: int | None = None) -> CaseSpace:
        """Every morphism (h outer, g inner) when finite, else `count`
        seeded samples (or as many as the budget allows), each drawn as
        `sample_morphism` draws it, in blocks."""
        if self.is_finite:
            return CaseSpace.product(self.H.elements, self.G.elements, build=TwoGroupMorphism)
        return CaseSpace.product(CaseSpace.carrier(self.H), CaseSpace.carrier(self.G),
                                 build=TwoGroupMorphism, count=count)


def _code_table(values: list, shape: tuple, what: str) -> np.ndarray:
    """Closed-form values as an int table; `_check_codes` then checks that
    each is a code of its group."""
    if not all(isinstance(v, (int, np.integer)) for v in values):
        raise StructuralError(f"{what} must take int codes as values")
    return np.array(values, dtype=np.int64).reshape(shape)


def _check_codes(G: Group, H: Group, alpha_table: np.ndarray, tau_table: np.ndarray) -> None:
    """Raise StructuralError on the first non-code, searching tau's table,
    then alpha's (g outer, h inner): a finite module holds codes only."""
    tau_bad = np.flatnonzero((tau_table < 0) | (tau_table >= G.order))
    if len(tau_bad):
        raise _carrier_error("tau", G, H, None, int(tau_bad[0]))
    alpha_bad = np.argwhere((alpha_table < 0) | (alpha_table >= H.order))
    if len(alpha_bad):
        raise _carrier_error("alpha", G, H, *alpha_bad[0].tolist())


# -- verification --

def _check_carriers(cm: CrossedModule, rng: Stream, n: int = 64) -> None:
    """Structural probe, distinct from axiom failure: alpha must land in H
    and tau in G, on n sampled (g, h) pairs of SO(n) carriers. A module with
    a finite side draws nothing: a finite module's tables were checked
    whole when it was built. The pairs come as one block of draws, those of
    n (g, h) samples in turn, checked as stacks; the first failing pair
    raises as it would one pair at a time."""
    G, H = cm.G, cm.H
    if G.is_finite or H.is_finite:
        return
    u = rng.random((n, G.width + H.width))
    g, h = G.sample_stack(u[:, :G.width]), H.sample_stack(u[:, G.width:])
    tau_in, alpha_in = G.contains_stack(cm.tau(h)), H.contains_stack(cm.alpha(g, h))
    bad = np.flatnonzero(~(tau_in & alpha_in))
    if len(bad):
        i = bad[0]
        raise _carrier_error("alpha" if tau_in[i] else "tau", G, H, g[i], h[i])


def _carrier_error(which: str, G: Group, H: Group, g: Element, h: Element) -> StructuralError:
    if which == "tau":
        return StructuralError(f"tau({H.fmt(h)}) is not an element of {G.name}")
    return StructuralError(f"alpha_{G.fmt(g)}({H.fmt(h)}) is not an element of {H.name}")


def verify_crossed_module(
    cm: CrossedModule,
    sample_budget: int = DEFAULT_BUDGET,
    streams: Streams = seed_zero,
    rng: Stream | None = None,
) -> LawReport:
    """Certify the crossed-module axioms, with witnesses on failure.

    Checks tau-homomorphism, alpha_g in Aut(H), g -> alpha_g homomorphism,
    the Peiffer law, plus source/target/identity-assignment homomorphism
    properties of the induced maps on H ⋊ G. Each law draws from
    `streams(law)`, the SO(n) carrier probe from `rng`; a finite module's
    tables were checked when it was built."""
    _check_carriers(cm, rng or Stream(0))
    report = LawReport(suite="crossed-module", budget=sample_budget, streams=streams)
    G, H = cm.G, cm.H
    # a coded or stackable space comes in blocks, on which each check is a mask
    gs, hs = CaseSpace.carrier(G), CaseSpace.carrier(H)

    report.law(
        "tau-homomorphism", "§2.1", CaseSpace.product(hs, hs),
        lambda t: G.eq(cm.tau(H.mul(t[0], t[1])), G.mul(cm.tau(t[0]), cm.tau(t[1]))),
        lambda t: {"h": H.fmt(t[0]), "h2": H.fmt(t[1])},
    )

    report.law(
        "alpha-automorphism", "§2.1", CaseSpace.product(gs, hs, hs),
        lambda t: (
            H.eq(cm.alpha(t[0], H.mul(t[1], t[2])), H.mul(cm.alpha(t[0], t[1]), cm.alpha(t[0], t[2])))
            & H.eq(cm.alpha(t[0], cm.alpha(G.inv(t[0]), t[1])), t[1])),
        lambda t: {"g": G.fmt(t[0]), "h": H.fmt(t[1]), "h2": H.fmt(t[2])},
    )

    report.law(
        "alpha-family-homomorphism", "§2.1", CaseSpace.product(gs, gs, hs),
        lambda t: (
            H.eq(cm.alpha(G.mul(t[0], t[1]), t[2]), cm.alpha(t[0], cm.alpha(t[1], t[2])))
            & H.eq(cm.alpha(G.identity, t[2]), t[2])),
        lambda t: {"g": G.fmt(t[0]), "g2": G.fmt(t[1]), "h": H.fmt(t[2])},
    )

    def peiffer(t):
        return cm.alpha(cm.tau(t[0]), t[1]), H.mul(H.mul(t[0], t[1]), H.inv(t[0]))

    report.law(
        "peiffer", "Eq 2.4", CaseSpace.product(hs, hs), lambda t: H.eq(*peiffer(t)),
        lambda t: {"h": H.fmt(t[0]), "h2": H.fmt(t[1]), **sides_witness(H.fmt, peiffer(t))},
    )

    # s and t on H ⋊ G are homomorphisms; t-hom is the equivariance of tau.
    pairs = CaseSpace.product(hs, gs, hs, gs, build=lambda h2, g2, h1, g1: (
        TwoGroupMorphism(h2, g2), TwoGroupMorphism(h1, g1)))

    def pair_witness(p):
        return {"m2": cm.fmt_m(p[0]), "m1": cm.fmt_m(p[1])}

    report.law(
        "source-homomorphism", "Eq 2.2", pairs,
        lambda p: G.eq(cm.source(cm.sdp_multiply(*p)), G.mul(p[0].g, p[1].g)), pair_witness,
    )

    report.law(
        "target-homomorphism", "Eq 2.2", pairs,
        lambda p: G.eq(cm.target(cm.sdp_multiply(*p)), G.mul(cm.target(p[0]), cm.target(p[1]))),
        pair_witness,
    )

    report.law(
        "identity-assignment-homomorphism", "§2.1", CaseSpace.product(gs, gs),
        lambda t: cm.m_eq(
            cm.identity_morphism(G.mul(t[0], t[1])),
            cm.sdp_multiply(cm.identity_morphism(t[0]), cm.identity_morphism(t[1])),
        ),
        lambda t: {"g": G.fmt(t[0]), "g2": G.fmt(t[1])},
    )
    return report


def verify_exchange_law(
    cm: CrossedModule,
    sample_budget: int = DEFAULT_BUDGET,
    streams: Streams = seed_zero,
) -> LawReport:
    """(phi2 psi2) ∘ (phi1 psi1) = (phi2 ∘ phi1)(psi2 ∘ psi1) on composable
    quadruples."""
    report = LawReport(suite="exchange-law", budget=sample_budget, streams=streams)

    def build(h1, g1, h2, k1, u1, k2):
        # phi2 and psi2 start where phi1 and psi1 end
        phi1 = TwoGroupMorphism(h1, g1)
        psi1 = TwoGroupMorphism(k1, u1)
        return (TwoGroupMorphism(h2, cm.target(phi1)), phi1,
                TwoGroupMorphism(k2, cm.target(psi1)), psi1)

    G, H = CaseSpace.carrier(cm.G), CaseSpace.carrier(cm.H)

    def sides(q):
        phi2, phi1, psi2, psi1 = q
        lhs = cm.compose_vertical(cm.sdp_multiply(phi2, psi2), cm.sdp_multiply(phi1, psi1))
        rhs = cm.sdp_multiply(cm.compose_vertical(phi2, phi1), cm.compose_vertical(psi2, psi1))
        return lhs, rhs

    report.law(
        "exchange-law", "Eq 2.3", CaseSpace.product(H, G, H, H, G, H, build=build),
        lambda q: cm.m_eq(*sides(q)),
        lambda q: {**dict(zip(("phi2", "phi1", "psi2", "psi1"), map(cm.fmt_m, q))),
                   **sides_witness(cm.fmt_m, sides(q))},
    )
    return report


# -- built-in catalog --

def _conjugation_module(name: str, grp: Group, description: str) -> CrossedModule:
    return CrossedModule(
        name, grp, grp,
        alpha=lambda g, h: grp.mul(grp.mul(g, h), grp.inv(g)),
        tau=lambda h: h,
        description=description,
    )


def _trivial_module(name: str, G: Group, H: Group, description: str, broken: bool = False) -> CrossedModule:
    return CrossedModule(
        name, G, H,
        alpha=lambda g, h: h,
        tau=lambda h: G.identity,
        broken=broken,
        description=description,
    )


_CATALOG: dict[str, Callable[[str], CrossedModule]] = {
    "z4-conj": lambda name: _conjugation_module(
        name, CyclicGroup(4), "conjugation module on Z4 (abelian, so the action is trivial)"),
    "s3-conj": lambda name: _conjugation_module(name, SymmetricGroup(3), "conjugation module on S3"),
    "so2-conj": lambda name: _conjugation_module(
        name, SpecialOrthogonalGroup(2), "conjugation module on SO(2)"),
    "so3-conj": lambda name: _conjugation_module(
        name, SpecialOrthogonalGroup(3), "conjugation module on SO(3)"),
    "z4-abelian": lambda name: _trivial_module(
        name, CyclicGroup(4), CyclicGroup(4), "trivial action and trivial tau on Z4/Z4"),
    "z4-z2": lambda name: _trivial_module(
        name, CyclicGroup(4), CyclicGroup(2), "trivial action and trivial tau on Z4/Z2"),
    "z2-s3-broken": lambda name: _trivial_module(
        name, CyclicGroup(2), SymmetricGroup(3),
        "deliberately broken: trivial action with nonabelian H violates the Peiffer law",
        broken=True,
    ),
}


def catalog() -> dict[str, CrossedModule]:
    """Built-in crossed modules, addressable by id; stable ordering."""
    return {name: build(name) for name, build in _CATALOG.items()}


def get_module(name: str) -> CrossedModule:
    """A fresh instance of the named catalog module; only that one is built."""
    if name not in _CATALOG:
        raise KeyError(f"unknown crossed module {name!r}; known: {', '.join(_CATALOG)}")
    return _CATALOG[name](name)
