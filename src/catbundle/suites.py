"""Named verification suites: each resolves its inputs from a scenario and
dispatches to the module-level verify operations. Suite names follow the law
registry ("prop31-roundtrip", "prop51", "prop62", "exchange-law", ...).

A suite's law module is imported by `import_suites`, not here, so a run
compiles only the law modules of the suites it asks for. Each suite reaches
its verify operations as attributes of that module, so rebinding them there
reaches every suite."""
from __future__ import annotations

import importlib
import zlib
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable

from .basecat import QuiverCategory
from .crossed import verify_crossed_module, verify_exchange_law
from .report import LawReport
from .scenario import Scenario, ScenarioError
from .stream import Stream

if TYPE_CHECKING:
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
    from . import bundle

    return bundle.verify_bundle_axioms(sc.quiver(), sc.crossed_module(), sc.budget,
                                       suite_rng(sc.seed, "bundle-axioms"))


def _prop31_suite(sc: Scenario) -> LawReport:
    from . import bundle

    return bundle.verify_prop31_roundtrip(sc.quiver(), sc.crossed_module(), sc.budget,
                                          suite_rng(sc.seed, "prop31-roundtrip"))


def _prop34_suite(sc: Scenario) -> LawReport:
    from . import bundle

    return bundle.verify_GU_categorical_group(sc.quiver(), sc.crossed_module(), sc.budget,
                                              suite_rng(sc.seed, "prop34-gu-group"))


def _prop41_suite(sc: Scenario) -> LawReport:
    from . import bundle

    cm = sc.crossed_module()
    base = sc.quiver()
    tables = sc.functors(cm, base)
    if not tables:
        raise ScenarioError("prop41-section needs at least one entry under 'functors'")
    report = LawReport(suite="prop41-section")
    rng = suite_rng(sc.seed, "prop41-section")
    for idx, (name, table) in enumerate(sorted(tables.items())):
        F = bundle.functor_from_h(base, cm, table)
        sub = bundle.verify_section_iso(F, budget=sc.budget, rng=rng)
        if idx == 0:
            report.records.extend(sub.records)
        else:
            report.records.extend(replace(r, law=f"{r.law}@{name}") for r in sub.records)
    return report


def _prop42_suite(sc: Scenario) -> LawReport:
    from . import bundle

    cm = sc.crossed_module()
    base = sc.quiver()
    tables = sorted(sc.functors(cm, base).items())
    if len(tables) < 2:
        raise ScenarioError("prop42-correspondence needs two entries under 'functors'")
    F1 = bundle.functor_from_h(base, cm, tables[0][1])
    F2 = bundle.functor_from_h(base, cm, tables[1][1])
    return bundle.verify_composition_correspondence(
        F2, F1, sc.budget, suite_rng(sc.seed, "prop42-correspondence"))


def _cocycle_suite(sc: Scenario) -> LawReport:
    from . import cocycle

    cm = sc.crossed_module()
    cover = sc.cover()
    data = sc.cocycle_data(cm, cover)
    return cocycle.verify_cocycle_condition(data, cover, cm, sc.budget,
                                            suite_rng(sc.seed, "cocycle"))


def _prop51_suite(sc: Scenario) -> LawReport:
    from . import cocycle

    cm = sc.crossed_module()
    cover = sc.cover()
    data = sc.cocycle_data(cm, cover)
    lower, upper = sc.triple_tags()
    triple = cocycle.OverlapCategory(sc.quiver(), cover, lower, upper)
    return cocycle.verify_prop51(data, cm, triple, sc.budget, suite_rng(sc.seed, "prop51"))


def _transition_suite(sc: Scenario) -> LawReport:
    from . import cocycle

    cm = sc.crossed_module()
    cover = sc.cover()
    family = sc.trivializations(cm, cover)
    lower, upper = sc.triple_tags()
    return cocycle.verify_transition_cocycle(family, sc.quiver(), lower, upper, sc.budget,
                                             suite_rng(sc.seed, "transition-cocycle"))


def _twisted_instance(sc: Scenario) -> TwistedBundle:
    from . import twisted

    cm = sc.crossed_module()
    eta = sc.eta(cm)
    return twisted.TwistedBundle(eta.base, cm, eta)  # a block's codes are those of eta's base


def _effective_budget(sc: Scenario, tb: TwistedBundle) -> int:
    return sc.budget if isinstance(tb.base, QuiverCategory) else sc.path_budget


def _twisted_suite(sc: Scenario) -> LawReport:
    from . import twisted

    tb = _twisted_instance(sc)
    return twisted.verify_twisted_bundle(tb, _effective_budget(sc, tb),
                                         suite_rng(sc.seed, "twisted-bundle"))


def _e_action_suite(sc: Scenario) -> LawReport:
    from . import twisted

    tb = _twisted_instance(sc)
    budget = _effective_budget(sc, tb)
    report = twisted.verify_E_properties(tb, budget, suite_rng(sc.seed, "e-action"))
    report.suite = "e-action"
    report.extend(twisted.verify_action_functorial(tb, budget,
                                                   suite_rng(sc.seed, "e-action-f")))
    return report


def _prop62_suite(sc: Scenario) -> LawReport:
    from . import decorated

    cm = sc.crossed_module()
    eta = decorated.eta_from_connection(sc.path_category(), cm, sc.connection(), sc.steps)
    return decorated.verify_prop62(cm, eta, sc.prop62_pairs,
                                   suite_rng(sc.seed, "prop62"),
                                   eps_iso=sc.tolerance("iso", 1e-6))


def _transport_suite(sc: Scenario) -> LawReport:
    from . import decorated

    return decorated.verify_transport_numerics(sc.path_category(), sc.connection(), sc.steps,
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


# the law modules each suite calls into, beyond those every start imports
# (crossed, groups, basecat, report, scenario, stream); a new suite names its
# own here, or a run of it compiles them inside its first suite call
LAW_MODULES: dict[str, tuple[str, ...]] = {
    "crossed-module": (),
    "exchange-law": (),
    "bundle-axioms": ("bundle",),
    "prop31-roundtrip": ("bundle",),
    "prop34-gu-group": ("bundle",),
    "prop41-section": ("bundle",),
    "prop42-correspondence": ("bundle",),
    "cocycle": ("cocycle",),
    "prop51": ("cocycle",),
    "transition-cocycle": ("cocycle",),
    "twisted-bundle": ("twisted", "decorated"),  # decorated: an eta from a connection
    "e-action": ("twisted", "decorated"),
    "prop62": ("decorated",),
    "transport-convergence": ("decorated",),
}


def _known(name: str) -> str:
    if name not in SUITES:
        raise ScenarioError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return name


def import_suites(names: Iterable[str]) -> None:
    """Check every name in `names`, then import those suites' law modules, so
    that running the suites afterwards imports nothing."""
    for module in dict.fromkeys(m for name in names for m in LAW_MODULES[_known(name)]):
        importlib.import_module(f"{__package__}.{module}")


def run_suite(sc: Scenario, name: str) -> LawReport:
    return SUITES[_known(name)](sc)
