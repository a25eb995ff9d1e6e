"""Named verification suites: each resolves its inputs from a scenario and
dispatches to the module-level verify operations. Suite names follow the law
registry ("prop31-roundtrip", "prop51", "prop62", "exchange-law", ...).

A suite is one `_suite(name, *law_modules)` line above its function, which
`run_suite` calls with the suite's LawStreams: each law draws from its own
stream, keyed by (seed, suite, law id), which the verify operation's
LawReport asks for by the id the law is recorded under (`LawReport.law`), and
fixtures that several laws share draw from the suite's. The law modules are those it calls into beyond the
core every start imports (crossed, groups, basecat, report, scenario,
stream); `import_suites` imports them, not this module, so a run compiles
only the law modules of the suites it asks for. Each suite reaches its verify
operations as attributes of that module, so rebinding them there reaches
every suite."""
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

SUITES: dict[str, Callable[[Scenario, LawStreams], LawReport]] = {}
LAW_MODULES: dict[str, tuple[str, ...]] = {}


def _suite(name: str, *law_modules: str):
    """Register the function below as suite `name`, calling into `law_modules`."""
    def register(fn):
        SUITES[name], LAW_MODULES[name] = fn, law_modules
        return fn
    return register


class LawStreams:
    """The seeded streams of one suite run: `streams(law)` is law `law`'s own,
    Stream([seed, crc32(suite), crc32(law)]), so a law's samples depend on no
    other law and on no order of laws or suites; `streams.shared` is the
    suite's, Stream([seed, crc32(suite)]), for fixtures that several laws
    share. crc32, unlike `hash`, is the same in every process."""

    def __init__(self, seed: int, suite: str):
        self.key = [seed, zlib.crc32(suite.encode())]
        self.shared = Stream(self.key)

    def __call__(self, law: str) -> Stream:
        return Stream([*self.key, zlib.crc32(law.encode())])


@_suite("crossed-module")
def _crossed_module_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    return verify_crossed_module(sc.crossed_module(), sc.budget, streams, streams.shared)


@_suite("exchange-law")
def _exchange_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    return verify_exchange_law(sc.crossed_module(), sc.budget, streams)


@_suite("bundle-axioms", "bundle")
def _bundle_axioms_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import bundle

    return bundle.verify_bundle_axioms(sc.quiver(), sc.crossed_module(), sc.budget, streams)


@_suite("prop31-roundtrip", "bundle")
def _prop31_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import bundle

    return bundle.verify_prop31_roundtrip(sc.quiver(), sc.crossed_module(), sc.budget,
                                          streams.shared)  # its laws share their functors


@_suite("prop34-gu-group", "bundle")
def _prop34_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import bundle

    return bundle.verify_GU_categorical_group(sc.quiver(), sc.crossed_module(), sc.budget, streams)


@_suite("prop41-section", "bundle")
def _prop41_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import bundle

    cm = sc.crossed_module()
    base = sc.quiver()
    tables = sc.functors(cm, base)
    if not tables:
        raise ScenarioError("the section suite needs at least one entry under 'functors'")
    report = LawReport(suite="prop41-section")
    for i, (name, table) in enumerate(sorted(tables.items())):
        tag = f"@{name}" if i else ""  # the first functor's laws keep their ids
        sub = bundle.verify_section_iso(bundle.functor_from_h(base, cm, table), sc.budget,
                                        lambda law, tag=tag: streams(law + tag))
        report.records.extend(replace(r, law=r.law + tag) for r in sub.records)
    return report


@_suite("prop42-correspondence", "bundle")
def _prop42_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import bundle

    cm = sc.crossed_module()
    base = sc.quiver()
    tables = sorted(sc.functors(cm, base).items())
    if len(tables) < 2:
        raise ScenarioError("the correspondence suite needs two entries under 'functors'")
    F1 = bundle.functor_from_h(base, cm, tables[0][1])
    F2 = bundle.functor_from_h(base, cm, tables[1][1])
    return bundle.verify_composition_correspondence(F2, F1, sc.budget, streams)


@_suite("cocycle", "cocycle")
def _cocycle_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import cocycle

    cm = sc.crossed_module()
    cover = sc.cover()
    data = sc.cocycle_data(cm, cover)
    return cocycle.verify_cocycle_condition(data, cover, cm, sc.budget, streams)


@_suite("prop51", "cocycle")
def _prop51_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import cocycle

    cm = sc.crossed_module()
    cover = sc.cover()
    data = sc.cocycle_data(cm, cover)
    lower, upper = sc.triple_tags()
    triple = cocycle.OverlapCategory(sc.quiver(), cover, lower, upper)
    return cocycle.verify_prop51(data, cm, triple, sc.budget, streams)


@_suite("transition-cocycle", "cocycle")
def _transition_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import cocycle

    cm = sc.crossed_module()
    cover = sc.cover()
    family = sc.trivializations(cm, cover)
    lower, upper = sc.triple_tags()
    return cocycle.verify_transition_cocycle(family, sc.quiver(), lower, upper, sc.budget, streams)


def _twisted_instance(sc: Scenario) -> TwistedBundle:
    from . import twisted

    cm = sc.crossed_module()
    eta = sc.eta(cm)
    return twisted.TwistedBundle(eta.base, cm, eta)  # a block's codes are those of eta's base


def _effective_budget(sc: Scenario, tb: TwistedBundle) -> int:
    return sc.budget if isinstance(tb.base, QuiverCategory) else sc.path_budget


@_suite("twisted-bundle", "twisted", "decorated")  # decorated: an eta from a connection
def _twisted_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import twisted

    tb = _twisted_instance(sc)
    return twisted.verify_twisted_bundle(tb, _effective_budget(sc, tb), streams)


@_suite("e-action", "twisted", "decorated")
def _e_action_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import twisted

    tb = _twisted_instance(sc)
    budget = _effective_budget(sc, tb)
    return twisted.verify_E_properties(tb, budget, streams).extend(
        twisted.verify_action_functorial(tb, budget, streams))


@_suite("prop62", "decorated")
def _prop62_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import decorated

    cm = sc.crossed_module()
    eta = decorated.eta_from_connection(sc.path_category(), cm, sc.connection(), sc.steps)
    return decorated.verify_prop62(cm, eta, sc.prop62_pairs, streams, streams.shared,
                                   eps_iso=sc.tolerance("iso", decorated.DEFAULT_ISO_TOL))


@_suite("transport-convergence", "decorated")
def _transport_suite(sc: Scenario, streams: LawStreams) -> LawReport:
    from . import decorated

    return decorated.verify_transport_numerics(sc.path_category(), sc.connection(), sc.steps,
                                               streams.shared)


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
    return SUITES[_known(name)](sc, LawStreams(sc.seed, name))
