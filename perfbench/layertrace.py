"""Per-layer tracing of catbundle from outside the package.

`install` wraps the public functions and methods of each catbundle module (one
module = one layer) at every import site that binds them by name. Layer
boundaries down to single laws and transports are recorded as spans
(name, start, end, parent, extra); microsecond-scale primitives such as
`G.mul`, `sdp_multiply`, `skew_exp` and `Connection.evaluate` are only
counted (calls, seconds), so memory stays bounded. A span's self time is its
duration minus the time its child spans cover.

`layer_metrics` turns the dumps of one traced pass into the per-layer metrics
listed in PER_LAYER. It needs neither numpy nor catbundle.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

SUITE_NAMES = (
    "crossed-module", "exchange-law", "bundle-axioms", "prop31-roundtrip",
    "prop34-gu-group", "prop41-section", "prop42-correspondence", "cocycle",
    "prop51", "transition-cocycle", "twisted-bundle", "e-action", "prop62",
    "transport-convergence",
)
SCENARIO_BUILDERS = ("crossed_module", "quiver", "path_category", "paths", "cover",
                     "cocycle_data", "functors", "trivializations", "connection", "eta")

# (metric name, unit), in report order; every traced run reports all of them
PER_LAYER = [
    ("groups.finite.mul.calls", "count"), ("groups.finite.mul.s", "s"),
    ("groups.so.mul.calls", "count"), ("groups.so.mul.s", "s"),
    ("groups.so.eq.calls", "count"), ("groups.so.eq.s", "s"),
    ("groups.skew_exp.calls", "count"), ("groups.skew_exp.s", "s"),
    ("crossed.sdp_multiply.calls", "count"), ("crossed.sdp_multiply.s", "s"),
    ("crossed.compose_vertical.calls", "count"), ("crossed.compose_vertical.s", "s"),
    ("crossed.m_eq.calls", "count"), ("crossed.verify.s", "s"),
    ("basecat.morphisms_upto.s", "s"), ("basecat.quiver_compose.calls", "count"),
    ("basecat.random_path.calls", "count"), ("basecat.compose_paths.calls", "count"),
    ("bundle.enumerate_functors.s", "s"), ("bundle.enumerate_functors.items", "count"),
    ("bundle.verify.s", "s"),
    ("cocycle.verify.s", "s"),
    ("twisted.eta.calls", "count"), ("twisted.eta.lookups", "count"),
    ("twisted.eta.transport_calls", "count"), ("twisted.eta.hit_ratio", "ratio"),
    ("twisted.compose.calls", "count"), ("twisted.E.calls", "count"), ("twisted.verify.s", "s"),
    ("decorated.transport.calls", "count"), ("decorated.transport.self_s", "s"),
    ("decorated.transport.wall_share", "ratio"), ("decorated.substeps", "count"),
    ("decorated.evaluate.s", "s"), ("decorated.substeps_per_s", "1/s"),
    ("decorated.verify.s", "s"),
    ("report.run_law.calls", "count"), ("report.checks", "count"),
    ("report.laws_failed", "count"), ("report.to_jsonl.s", "s"), ("report.jsonl_bytes", "bytes"),
    ("scenario.load.s", "s"), ("scenario.build.s", "s"),
    *[(f"suites.{s}.{k}", u) for s in SUITE_NAMES for k, u in (("self_s", "s"), ("checks", "count"))],
    ("cli.main.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
]

perf = time.perf_counter


class Tracer:
    """Spans and counters of one child process, kept in memory until `dump`."""

    def __init__(self, item: str):
        self.item = item
        self.spans: list[list] = []  # [name, start, end, parent index or -1, extra]
        self.stack: list[int] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]

    def span(self, name: str, fn, post=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf()
                stack.pop()
            if post is not None:
                rec[4] = post(out)
            return out

        return wrapper

    def count(self, name: str, fn):
        counter = self.counters.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += perf() - t0

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"item": self.item, "spans": self.spans, "counters": self.counters}, fh)


def _rebind(original, replacement) -> None:
    """Replace `original` at every catbundle import site that binds it by name."""
    for name, mod in list(sys.modules.items()):
        if name == "catbundle" or name.startswith("catbundle."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(tracer: Tracer) -> None:
    from catbundle import (basecat, bundle, cli, cocycle, crossed, decorated, groups,
                           report, scenario, suites, twisted)

    def method(cls, attr, wrap, name):
        setattr(cls, attr, wrap(name, getattr(cls, attr)))

    count, span = tracer.count, tracer.span
    for cls in (groups.CyclicGroup, groups.SymmetricGroup):
        method(cls, "mul", count, "groups.finite.mul")
    method(groups.SpecialOrthogonalGroup, "mul", count, "groups.so.mul")
    method(groups.SpecialOrthogonalGroup, "eq", count, "groups.so.eq")
    _rebind(groups.skew_exp, count("groups.skew_exp", groups.skew_exp))

    for attr in ("sdp_multiply", "compose_vertical", "m_eq"):
        method(crossed.CrossedModule, attr, count, f"crossed.{attr}")

    method(basecat.QuiverCategory, "morphisms_upto", count, "basecat.morphisms_upto")
    method(basecat.QuiverCategory, "compose", count, "basecat.quiver_compose")
    method(basecat.PathCategory, "random_path", count, "basecat.random_path")
    _rebind(basecat.compose_paths, count("basecat.compose_paths", basecat.compose_paths))

    _rebind(bundle.enumerate_functors, span("enumerate_functors", bundle.enumerate_functors, len))

    # eta maps built from a connection are spans, so a transport whose parent
    # is an eta call marks a cache miss; table and raw maps are only counted
    eta_count = count("twisted.eta", twisted.EtaMap.__call__)
    eta_span = span("eta", eta_count)
    twisted.EtaMap.__call__ = lambda self, gamma: (
        eta_span if self.kind == "transport" else eta_count)(self, gamma)
    method(twisted.TwistedBundle, "compose", count, "twisted.compose")
    method(twisted.TwistedBundle, "E", count, "twisted.E")

    method(decorated.Connection, "evaluate", count, "decorated.evaluate")
    _rebind(decorated.parallel_transport, span("transport", decorated.parallel_transport))

    _rebind(report.run_law, span("law", report.run_law, lambda r: [r.checks, r.passed]))
    report.LawReport.to_jsonl = span("to_jsonl", report.LawReport.to_jsonl,
                                     lambda text: len(text.encode()))

    layers = {"crossed": crossed, "bundle": bundle, "cocycle": cocycle,
              "twisted": twisted, "decorated": decorated}
    for layer, mod in layers.items():
        for key, fn in list(vars(mod).items()):
            if key.startswith("verify_") and getattr(fn, "__module__", None) == mod.__name__:
                _rebind(fn, span(f"verify:{layer}", fn))

    def checks(rep):
        return sum(r.checks for r in rep.records)

    for name, fn in list(suites.SUITES.items()):
        suites.SUITES[name] = span(f"suite:{name}", fn, checks)

    scenario.Scenario.load = staticmethod(span("scenario.load", scenario.Scenario.load))
    for attr in SCENARIO_BUILDERS:
        method(scenario.Scenario, attr, span, "scenario.build")
    cli.main = span("cli", cli.main)


def layer_metrics(dumps: list[dict], wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `dumps` holds one Tracer dump per item."""
    m: dict[str, float] = defaultdict(float)
    for d in dumps:
        spans = d["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            self_s = dur - covered[i]
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "law":
                m["report.run_law.calls"] += 1
                m["report.checks"] += extra[0]
                m["report.laws_failed"] += 0 if extra[1] else 1
            elif name == "transport":
                m["decorated.transport.self_s"] += self_s
                if parent_name == "eta":
                    m["twisted.eta.transport_calls"] += 1
                if parent_name != "transport":
                    m["decorated.transport.calls"] += 1
            elif name == "eta":
                m["twisted.eta.lookups"] += 1
            elif name.startswith("verify:"):
                m[f"{name[7:]}.verify.s"] += self_s
            elif name.startswith("suite:"):
                m[f"suites.{name[6:]}.self_s"] += self_s
                m[f"suites.{name[6:]}.checks"] += extra
            elif name == "enumerate_functors":
                m["bundle.enumerate_functors.s"] += dur
                m["bundle.enumerate_functors.items"] += extra
            elif name == "to_jsonl":
                m["report.to_jsonl.s"] += dur
                m["report.jsonl_bytes"] += extra
            elif name == "scenario.load":
                m["scenario.load.s"] += dur
            elif name == "scenario.build":
                m["scenario.build.s"] += self_s
            elif name == "cli":
                m["cli.main.self_s"] += self_s
        for name, (calls, seconds) in d["counters"].items():
            if name == "twisted.eta":
                m["twisted.eta.calls"] += calls
            elif name == "decorated.evaluate":
                m["decorated.substeps"] += calls
                m["decorated.evaluate.s"] += seconds
            else:
                m[f"{name}.calls"] += calls
                m[f"{name}.s"] += seconds
    lookups, misses = m["twisted.eta.lookups"], m["twisted.eta.transport_calls"]
    m["twisted.eta.hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    transport_s = m["decorated.transport.self_s"]
    m["decorated.substeps_per_s"] = m["decorated.substeps"] / transport_s if transport_s else 0.0
    m["decorated.transport.wall_share"] = transport_s / wall_s if wall_s else 0.0
    m["trace.wall_s"] = wall_s
    m["trace.untraced_wall_s"] = untraced_wall_s
    m["trace.overhead_s"] = wall_s - untraced_wall_s
    return {name: m[name] for name, _ in PER_LAYER}
