"""Named verification suites: each resolves its inputs from a scenario and
dispatches to the module-level verify operations. Suite names follow the law
registry ("prop31-roundtrip", "prop51", "prop62", "exchange-law", ...)."""
from __future__ import annotations

import zlib
from dataclasses import replace
from typing import Callable

from . import bundle as bundle_mod
from .basecat import QuiverCategory
from . import cocycle as cocycle_mod
from . import decorated as decorated_mod
from . import twisted as twisted_mod
from .cocycle import OverlapCategory
from .crossed import verify_crossed_module, verify_exchange_law
from .report import LawReport
from .scenario import Scenario, ScenarioError
from .stream import Stream
from .twisted import TwistedBundle


def suite_rng(seed: int, suite: str) -> Stream:
    """Deterministic, suite-independent stream: reordering suites does not
    change any suite's samples."""
    return Stream([seed, zlib.crc32(suite.encode())])


def _crossed_module_suite(sc: Scenario) -> LawReport:
    return verify_crossed_module(sc.crossed_module(), sc.budget,
                                 suite_rng(sc.seed, "crossed-module"))


def _exchange_suite(sc: Scenario) -> LawReport:
    return verify_exchange_law(sc.crossed_module(), sc.budget,
                               suite_rng(sc.seed, "exchange-law"))


def _bundle_axioms_suite(sc: Scenario) -> LawReport:
    return bundle_mod.verify_bundle_axioms(sc.quiver(), sc.crossed_module(), sc.budget,
                                           suite_rng(sc.seed, "bundle-axioms"))


def _prop31_suite(sc: Scenario) -> LawReport:
    return bundle_mod.verify_prop31_roundtrip(sc.quiver(), sc.crossed_module(), sc.budget,
                                              suite_rng(sc.seed, "prop31-roundtrip"))


def _prop34_suite(sc: Scenario) -> LawReport:
    return bundle_mod.verify_GU_categorical_group(sc.quiver(), sc.crossed_module(), sc.budget,
                                                  suite_rng(sc.seed, "prop34-gu-group"))


def _prop41_suite(sc: Scenario) -> LawReport:
    cm = sc.crossed_module()
    base = sc.quiver()
    tables = sc.functors(cm, base)
    if not tables:
        raise ScenarioError("prop41-section needs at least one entry under 'functors'")
    report = LawReport(suite="prop41-section")
    rng = suite_rng(sc.seed, "prop41-section")
    for idx, (name, table) in enumerate(sorted(tables.items())):
        F = bundle_mod.functor_from_h(base, cm, table)
        sub = bundle_mod.verify_section_iso(F, budget=sc.budget, rng=rng)
        if idx == 0:
            report.records.extend(sub.records)
        else:
            report.records.extend(replace(r, law=f"{r.law}@{name}") for r in sub.records)
    return report


def _prop42_suite(sc: Scenario) -> LawReport:
    cm = sc.crossed_module()
    base = sc.quiver()
    tables = sorted(sc.functors(cm, base).items())
    if len(tables) < 2:
        raise ScenarioError("prop42-correspondence needs two entries under 'functors'")
    F1 = bundle_mod.functor_from_h(base, cm, tables[0][1])
    F2 = bundle_mod.functor_from_h(base, cm, tables[1][1])
    return bundle_mod.verify_composition_correspondence(
        F2, F1, sc.budget, suite_rng(sc.seed, "prop42-correspondence"))


def _cocycle_suite(sc: Scenario) -> LawReport:
    cm = sc.crossed_module()
    cover = sc.cover()
    data = sc.cocycle_data(cm, cover)
    return cocycle_mod.verify_cocycle_condition(data, cover, cm, sc.budget,
                                                suite_rng(sc.seed, "cocycle"))


def _prop51_suite(sc: Scenario) -> LawReport:
    cm = sc.crossed_module()
    cover = sc.cover()
    data = sc.cocycle_data(cm, cover)
    lower, upper = sc.triple_tags()
    triple = OverlapCategory(sc.quiver(), cover, lower, upper)
    return cocycle_mod.verify_prop51(data, cm, triple, sc.budget, suite_rng(sc.seed, "prop51"))


def _transition_suite(sc: Scenario) -> LawReport:
    cm = sc.crossed_module()
    cover = sc.cover()
    family = sc.trivializations(cm, cover)
    lower, upper = sc.triple_tags()
    return cocycle_mod.verify_transition_cocycle(family, sc.quiver(), lower, upper, sc.budget,
                                                 suite_rng(sc.seed, "transition-cocycle"))


def _twisted_instance(sc: Scenario) -> TwistedBundle:
    cm = sc.crossed_module()
    eta = sc.eta(cm)
    return TwistedBundle(eta.base, cm, eta)  # a block's codes are those of eta's base


def _effective_budget(sc: Scenario, tb: TwistedBundle) -> int:
    return sc.budget if isinstance(tb.base, QuiverCategory) else sc.path_budget


def _twisted_suite(sc: Scenario) -> LawReport:
    tb = _twisted_instance(sc)
    return twisted_mod.verify_twisted_bundle(tb, _effective_budget(sc, tb),
                                             suite_rng(sc.seed, "twisted-bundle"))


def _e_action_suite(sc: Scenario) -> LawReport:
    tb = _twisted_instance(sc)
    budget = _effective_budget(sc, tb)
    report = twisted_mod.verify_E_properties(tb, budget, suite_rng(sc.seed, "e-action"))
    report.suite = "e-action"
    report.extend(twisted_mod.verify_action_functorial(tb, budget,
                                                       suite_rng(sc.seed, "e-action-f")))
    return report


def _prop62_suite(sc: Scenario) -> LawReport:
    cm = sc.crossed_module()
    eta = decorated_mod.eta_from_connection(sc.path_category(), cm, sc.connection(), sc.steps)
    return decorated_mod.verify_prop62(cm, eta, sc.prop62_pairs,
                                       suite_rng(sc.seed, "prop62"),
                                       eps_iso=sc.tolerance("iso", 1e-6))


def _transport_suite(sc: Scenario) -> LawReport:
    return decorated_mod.verify_transport_numerics(sc.path_category(), sc.connection(), sc.steps,
                                                   suite_rng(sc.seed, "transport-convergence"))


SUITES: dict[str, Callable[[Scenario], LawReport]] = {
    "crossed-module": _crossed_module_suite,
    "exchange-law": _exchange_suite,
    "bundle-axioms": _bundle_axioms_suite,
    "prop31-roundtrip": _prop31_suite,
    "prop34-gu-group": _prop34_suite,
    "prop41-section": _prop41_suite,
    "prop42-correspondence": _prop42_suite,
    "cocycle": _cocycle_suite,
    "prop51": _prop51_suite,
    "transition-cocycle": _transition_suite,
    "twisted-bundle": _twisted_suite,
    "e-action": _e_action_suite,
    "prop62": _prop62_suite,
    "transport-convergence": _transport_suite,
}


def run_suite(sc: Scenario, name: str) -> LawReport:
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](sc)
