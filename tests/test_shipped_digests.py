"""Every shipped scenario × declared suite, at seeds 1-3 and at budgets 5, 12
and the scenario's own, gives the JSONL whose sha256 is pinned in
golden/shipped_digests.json. A budget sets `budget` and `path_budget`
together, as `catbundle run --budget` does.

The default-seed goldens pin one run of each input; these pin the planner's
exhaustive-or-sampled choice, its picks and its draws at more seeds and
budgets. `PYTHONPATH=src python tests/test_shipped_digests.py` rewrites the
table."""
import hashlib
import json
from pathlib import Path

import pytest

from catbundle.scenario import Scenario
from catbundle.suites import run_suite

ROOT = Path(__file__).resolve().parents[1]
TABLE = ROOT / "tests" / "golden" / "shipped_digests.json"
SEEDS = (1, 2, 3)
BUDGETS = (5, 12, None)  # None: the scenario's own


def shipped():
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        for suite in json.loads(path.read_text()).get("suites", []):
            yield path.stem, suite


def runs(name: str, suite: str):
    """(key, seed, budget) of each pinned run of one scenario × suite."""
    for seed in SEEDS:
        for budget in BUDGETS:
            yield f"{name}/{suite}/seed={seed}/budget={budget or 'own'}", seed, budget


def digests(name: str, suite: str) -> dict:
    raw = json.loads((ROOT / "scenarios" / f"{name}.json").read_text())
    out = {}
    for key, seed, budget in runs(name, suite):
        spec = {**raw, "seed": seed}
        if budget is not None:
            spec["budget"] = spec["path_budget"] = budget
        jsonl = run_suite(Scenario(spec), suite).to_jsonl()
        out[key] = hashlib.sha256(jsonl.encode()).hexdigest()
    return out


@pytest.mark.parametrize("name,suite", list(shipped()))
def test_shipped_jsonl_matches_its_pinned_digests(name, suite):
    table = json.loads(TABLE.read_text())
    got = digests(name, suite)
    assert got == {key: table[key] for key in got}


def test_the_table_pins_every_run_and_no_other():
    want = {key for name, suite in shipped() for key, _, _ in runs(name, suite)}
    assert set(json.loads(TABLE.read_text())) == want


if __name__ == "__main__":
    table = {}
    for name, suite in shipped():
        table.update(digests(name, suite))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{len(table)} digests written to {TABLE.relative_to(ROOT)}")
