"""One stream per law: each law of a suite draws from its own stream, keyed by
(seed, suite, law id), so a law that fails at its first case moves no other
law's cases or record, and a suite asks for each law's stream once, by the
law's own id."""
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from catbundle import report
from catbundle.basecat import PathBlock, SampledPath
from catbundle.scenario import Scenario
from catbundle.suites import SUITES, LawStreams, import_suites, run_suite

SCEN = Path(__file__).resolve().parents[1] / "scenarios"
KEYS = ("law", "anchor", "status", "checks", "exhaustive", "witness", "space")

# laws whose cases are a fixture that several laws share, drawn from the
# suite's own stream, so they ask for none of their own
SHARED = {
    "prop31-roundtrip": {"roundtrip-invariants", "telescoping", "object-encoding"},
    "prop62": {"theta-source", "theta-target", "theta-composition",
               "theta-inverse-roundtrip", "theta-identity-objects"},
    "transport-convergence": {"zero-connection", "composite-multiplicativity",
                              "reversal-inverse", "convergence-order"},
}


def shipped():
    for path in sorted(SCEN.glob("*.json")):
        for suite in json.loads(path.read_text()).get("suites", []):
            yield path.stem, suite


def scenario(name: str) -> Scenario:
    return Scenario({**json.loads((SCEN / f"{name}.json").read_text()), "seed": 1})


def _digest(x, h) -> None:
    """Feeds the values of a case, or of a block of cases, to the hash `h`."""
    if isinstance(x, np.ndarray):
        h.update(x.dtype.str.encode() + repr(x.shape).encode() + np.ascontiguousarray(x).tobytes())
    elif isinstance(x, report.Block):
        _digest(x.cases, h)
    elif isinstance(x, (tuple, list, PathBlock)):
        h.update(b"(")
        for item in x:
            _digest(item, h)
        h.update(b")")
    elif isinstance(x, dict):
        for key in sorted(x, key=repr):
            h.update(repr(key).encode())
            _digest(x[key], h)
    elif isinstance(x, SampledPath):
        _digest(x.samples, h)
    elif dataclasses.is_dataclass(x):
        _digest([getattr(x, f.name) for f in dataclasses.fields(x)], h)
    elif isinstance(x, (int, float, str, bool, np.generic)) or x is None:
        h.update(repr(x).encode())
    else:  # functors and transformations: their tables
        h.update(type(x).__name__.encode())
        _digest({k: v for k, v in vars(x).items() if isinstance(v, (dict, np.ndarray))}, h)


def _run(name: str, suite: str, monkeypatch, fail_call: int | None = None):
    """The suite's report, and each run_law call's record and a digest of the
    cases its plan gave, in call order; call number `fail_call` fails at its
    first case, whatever that case is."""
    calls, original = [], report.run_law

    def run_law(law, anchor, plan, ok, witness):
        if len(calls) == fail_call:
            calls.append(None)
            return original(law, anchor, plan, lambda case: False, lambda case: {"forced": 1})
        h = hashlib.sha256()

        def digested():
            for item in plan:
                _digest(item, h)
                yield item

        record = original(law, anchor, report.Plan(digested(), plan.exhaustive, plan.space),
                          ok, witness)
        calls.append((*(getattr(record, k) for k in KEYS), h.hexdigest()))
        return record

    with monkeypatch.context() as m:
        m.setattr(report, "run_law", run_law)  # every law reaches it through LawReport.law
        result = run_suite(scenario(name), suite)
    return result, calls


@pytest.mark.parametrize("name, suite", list(shipped()))
def test_a_law_that_fails_at_its_first_case_moves_no_other_law(name, suite, monkeypatch):
    import_suites([suite])
    whole, calls = _run(name, suite, monkeypatch)
    lines = {r.law: line for r, line in zip(whole.sorted_records(), whole.to_jsonl().splitlines())}
    for i in range(len(calls)):
        failed, failed_calls = _run(name, suite, monkeypatch, fail_call=i)
        chosen = failed.records[i]
        assert not chosen.passed and chosen.checks == 1 and chosen.witness == {"forced": 1}
        kept = [line for r, line in zip(failed.sorted_records(), failed.to_jsonl().splitlines())
                if r is not chosen]
        assert kept == [lines[r.law] for r in failed.sorted_records() if r is not chosen]
        assert [c for j, c in enumerate(failed_calls) if j != i] == [
            c for j, c in enumerate(calls) if j != i]


class Recording(LawStreams):
    """LawStreams that records the names it is asked for."""

    def __init__(self, seed: int, suite: str):
        super().__init__(seed, suite)
        self.asked = []

    def __call__(self, law: str):
        self.asked.append(law)
        return super().__call__(law)


@pytest.mark.parametrize("name, suite", list(shipped()))
def test_a_suite_asks_for_each_law_stream_once_by_its_law_id(name, suite):
    import_suites([suite])
    streams = Recording(1, suite)
    result = SUITES[suite](scenario(name), streams)
    laws = {r.law for r in result.records}
    assert len(streams.asked) == len(set(streams.asked))
    assert set(streams.asked) == laws - SHARED.get(suite, set())
