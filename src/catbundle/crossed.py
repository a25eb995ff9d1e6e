"""Crossed modules and the 2-group morphism calculus on H ⋊ G.

A crossed module (G, H, alpha, tau) determines a categorical group whose
object group is G and whose morphism group is the semidirect product H ⋊ G:
the pair (h, g) has source g and target tau(h)·g, group multiplication

    (h2, g2)·(h1, g1) = (h2·alpha_{g2}(h1), g2·g1)

and categorical (vertical) composition

    (h2, g2) ∘ (h1, g1) = (h2·h1, g1)   defined only when tau(h1)·g1 = g2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import (
    CyclicGroup,
    Element,
    Group,
    SpecialOrthogonalGroup,
    StructuralError,
    SymmetricGroup,
    code_rows,
    is_block,
)
from .report import DEFAULT_BUDGET, CaseSpace, LawReport, run_law


@dataclass(frozen=True)
class TwoGroupMorphism:
    """A morphism (h, g) of the categorical group, in (h, g) coordinates."""
    h: Element
    g: Element


class CompositionUndefined(ValueError):
    """Vertical composition attempted on a source/target mismatch."""

    def __init__(self, message: str, target_value=None, source_value=None):
        super().__init__(message)
        self.target_value = target_value
        self.source_value = source_value


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
            alpha, tau = _lookups(name, G, H, self.alpha_table, self.tau_table)
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

    def m_eq(self, m1: TwoGroupMorphism, m2: TwoGroupMorphism) -> bool:
        return self.H.eq(m1.h, m2.h) and self.G.eq(m1.g, m2.g)

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
        if not self.G.eq(t1, m2.g):
            raise CompositionUndefined(
                f"target {self.G.fmt(t1)} of first morphism != source {self.G.fmt(m2.g)} of second",
                target_value=t1,
                source_value=m2.g,
            )
        return TwoGroupMorphism(self.H.mul(m2.h, m1.h), m1.g)

    def compositional_inverse(self, m: TwoGroupMorphism) -> TwoGroupMorphism:
        return TwoGroupMorphism(self.H.inv(m.h), self.target(m))

    # -- enumeration / sampling --

    @property
    def is_finite(self) -> bool:
        return self.G.is_finite and self.H.is_finite

    def sample_morphism(self, rng: np.random.Generator) -> TwoGroupMorphism:
        return TwoGroupMorphism(self.H.sample(rng), self.G.sample(rng))

    def morphism_space(self, count: int | None = None) -> CaseSpace:
        """Every morphism (h outer, g inner) when finite, else `count`
        seeded samples (or as many as the budget allows)."""
        if self.is_finite:
            return CaseSpace.product(self.H.elements, self.G.elements, build=TwoGroupMorphism)
        return CaseSpace.sampled(self.sample_morphism, count)


def _code_table(values: list, shape: tuple, what: str) -> np.ndarray:
    """Closed-form values as an int table; an out-of-range int is kept for
    the carrier probe to report."""
    if not all(isinstance(v, (int, np.integer)) for v in values):
        raise StructuralError(f"{what} must take int codes as values")
    return np.array(values, dtype=np.int64).reshape(shape)


def _lookups(name: str, G: Group, H: Group, alpha_table: np.ndarray, tau_table: np.ndarray):
    """alpha and tau as lookups in their tables, as in the group tables."""
    alpha_rows, tau_rows = code_rows(alpha_table), code_rows(tau_table)

    def alpha_lookup(g: Element, h: Element) -> Element:
        try:
            return alpha_rows[g][h]
        except (KeyError, TypeError):
            if is_block(g, h):
                return alpha_table[g, h]
            raise StructuralError(
                f"alpha of {name} is defined on {G.name} x {H.name}, got ({g!r}, {h!r})") from None

    def tau_lookup(h: Element) -> Element:
        try:
            return tau_rows[h]
        except (KeyError, TypeError):
            if is_block(h):
                return tau_table[h]
            raise StructuralError(f"tau of {name} is defined on {H.name}, got {h!r}") from None

    return alpha_lookup, tau_lookup


# -- verification --

def _check_carriers(cm: CrossedModule, rng: np.random.Generator, n: int = 64) -> None:
    """Structural probe, distinct from axiom failure: alpha must land in H
    and tau in G."""
    for _ in range(n):
        g = cm.G.sample(rng)
        h = cm.H.sample(rng)
        if not cm.G.contains(cm.tau(h)):
            raise StructuralError(f"tau({cm.H.fmt(h)}) is not an element of {cm.G.name}")
        if not cm.H.contains(cm.alpha(g, h)):
            raise StructuralError(
                f"alpha_{cm.G.fmt(g)}({cm.H.fmt(h)}) is not an element of {cm.H.name}"
            )


def verify_crossed_module(
    cm: CrossedModule,
    sample_budget: int = DEFAULT_BUDGET,
    rng: np.random.Generator | None = None,
) -> LawReport:
    """Certify the crossed-module axioms, with witnesses on failure.

    Checks tau-homomorphism, alpha_g in Aut(H), g -> alpha_g homomorphism,
    the Peiffer law, plus source/target/identity-assignment homomorphism
    properties of the induced maps on H ⋊ G."""
    rng = rng or np.random.default_rng(0)
    _check_carriers(cm, rng)
    report = LawReport(suite="crossed-module")
    G, H = cm.G, cm.H
    carriers = {"g": CaseSpace.carrier(G), "h": CaseSpace.carrier(H)}

    # every check below also takes stacked SO(n) cases, so sampled laws run in blocks
    def cases(slots: str):
        return CaseSpace.product(*(carriers[s] for s in slots)).plan(
            sample_budget, rng, blocks=True)

    report.records.append(run_law(
        "tau-homomorphism", "§2.1", cases("hh"),
        lambda t: None if G.eq(cm.tau(H.mul(t[0], t[1])), G.mul(cm.tau(t[0]), cm.tau(t[1])))
        else {"h": H.fmt(t[0]), "h2": H.fmt(t[1])},
    ))

    report.records.append(run_law(
        "alpha-automorphism", "§2.1", cases("ghh"),
        lambda t: None if (
            H.eq(cm.alpha(t[0], H.mul(t[1], t[2])), H.mul(cm.alpha(t[0], t[1]), cm.alpha(t[0], t[2])))
            and H.eq(cm.alpha(t[0], cm.alpha(G.inv(t[0]), t[1])), t[1])
        ) else {"g": G.fmt(t[0]), "h": H.fmt(t[1]), "h2": H.fmt(t[2])},
    ))

    report.records.append(run_law(
        "alpha-family-homomorphism", "§2.1", cases("ggh"),
        lambda t: None if (
            H.eq(cm.alpha(G.mul(t[0], t[1]), t[2]), cm.alpha(t[0], cm.alpha(t[1], t[2])))
            and H.eq(cm.alpha(G.identity, t[2]), t[2])
        ) else {"g": G.fmt(t[0]), "g2": G.fmt(t[1]), "h": H.fmt(t[2])},
    ))

    report.records.append(run_law(
        "peiffer", "Eq 2.4", cases("hh"),
        lambda t: None if H.eq(
            cm.alpha(cm.tau(t[0]), t[1]),
            H.mul(H.mul(t[0], t[1]), H.inv(t[0])),
        ) else {
            "h": H.fmt(t[0]), "h2": H.fmt(t[1]),
            "lhs": H.fmt(cm.alpha(cm.tau(t[0]), t[1])),
            "rhs": H.fmt(H.mul(H.mul(t[0], t[1]), H.inv(t[0]))),
        },
    ))

    # s and t on H ⋊ G are homomorphisms; t-hom is the equivariance of tau.
    report.records.append(run_law(
        "source-homomorphism", "Eq 2.2", cases("hghg"),
        lambda t: None if G.eq(
            cm.source(cm.sdp_multiply(TwoGroupMorphism(t[0], t[1]), TwoGroupMorphism(t[2], t[3]))),
            G.mul(t[1], t[3]),
        ) else {"m2": cm.fmt_m(TwoGroupMorphism(t[0], t[1])), "m1": cm.fmt_m(TwoGroupMorphism(t[2], t[3]))},
    ))

    report.records.append(run_law(
        "target-homomorphism", "Eq 2.2", cases("hghg"),
        lambda t: None if G.eq(
            cm.target(cm.sdp_multiply(TwoGroupMorphism(t[0], t[1]), TwoGroupMorphism(t[2], t[3]))),
            G.mul(cm.target(TwoGroupMorphism(t[0], t[1])), cm.target(TwoGroupMorphism(t[2], t[3]))),
        ) else {"m2": cm.fmt_m(TwoGroupMorphism(t[0], t[1])), "m1": cm.fmt_m(TwoGroupMorphism(t[2], t[3]))},
    ))

    report.records.append(run_law(
        "identity-assignment-homomorphism", "§2.1", cases("gg"),
        lambda t: None if cm.m_eq(
            cm.identity_morphism(G.mul(t[0], t[1])),
            cm.sdp_multiply(cm.identity_morphism(t[0]), cm.identity_morphism(t[1])),
        ) else {"g": G.fmt(t[0]), "g2": G.fmt(t[1])},
    ))
    return report


def verify_exchange_law(
    cm: CrossedModule,
    sample_budget: int = DEFAULT_BUDGET,
    rng: np.random.Generator | None = None,
) -> LawReport:
    """(phi2 psi2) ∘ (phi1 psi1) = (phi2 ∘ phi1)(psi2 ∘ psi1) on composable
    quadruples."""
    rng = rng or np.random.default_rng(0)
    report = LawReport(suite="exchange-law")

    def build(h1, g1, h2, k1, u1, k2):
        # phi2 and psi2 start where phi1 and psi1 end
        phi1 = TwoGroupMorphism(h1, g1)
        psi1 = TwoGroupMorphism(k1, u1)
        return (TwoGroupMorphism(h2, cm.target(phi1)), phi1,
                TwoGroupMorphism(k2, cm.target(psi1)), psi1)

    G, H = CaseSpace.carrier(cm.G), CaseSpace.carrier(cm.H)
    # build and check also take stacked SO(n) cases, so a sampled law runs in blocks
    cases = CaseSpace.product(H, G, H, H, G, H, build=build).plan(
        sample_budget, rng, blocks=True)

    def check(q):
        phi2, phi1, psi2, psi1 = q
        lhs = cm.compose_vertical(cm.sdp_multiply(phi2, psi2), cm.sdp_multiply(phi1, psi1))
        rhs = cm.sdp_multiply(cm.compose_vertical(phi2, phi1), cm.compose_vertical(psi2, psi1))
        if cm.m_eq(lhs, rhs):
            return None
        return {
            "phi2": cm.fmt_m(phi2), "phi1": cm.fmt_m(phi1),
            "psi2": cm.fmt_m(psi2), "psi1": cm.fmt_m(psi1),
            "lhs": cm.fmt_m(lhs), "rhs": cm.fmt_m(rhs),
        }

    report.records.append(run_law("exchange-law", "Eq 2.3", cases, check))
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
