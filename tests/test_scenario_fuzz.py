"""Mutation fuzz of the shipped scenarios through `cli.main`, in process.

One JSON node of a shipped scenario is replaced by a wrong type, a bool, a
float, +-inf, NaN, a huge int or an empty container, or deleted. Whatever the
mutation, `catbundle run --budget 3` (and, on a path base, `transport` along a
declared path) exits 0, 1 or 2, and no exception leaves `main`. A bool, a float
or a string in an integer field that `run` reads exits 2, naming the field.
"""
import contextlib
import copy
import io
import json
import math
import re
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from catbundle.cli import main

SCEN = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = {f.name: json.loads(f.read_text()) for f in sorted(SCEN.glob("*.json"))}

DELETE = object()
MUTATIONS = {
    "string": lambda v: str(v) if isinstance(v, int) else 7,
    "bool": lambda v: True,
    "float": lambda v: float(v) if isinstance(v, int) and not isinstance(v, bool) else 2.5,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "nan": lambda v: math.nan,
    "huge": lambda v: 10**30,
    "empty-list": lambda v: [],
    "empty-object": lambda v: {},
    "delete": lambda v: DELETE,
}
# counts of work the user asked for: bounding them is the budget's business
UNBOUNDED = {"budget", "path_budget", "prop62_pairs"}
# the scenario's integer fields, as `_site_path` writes them, but budget and
# path_budget: `--budget 3` overrides them, so `run` never reads the file's values
INT_FIELDS = re.compile(r"seed|steps|prop62_pairs|base\.(word_bound|dim)|(cocycle|trivializations)\.seed"
                        r"|triple\.(lower|upper)\[\d\]|connection\.(group|base)_dim"
                        r"|eta\.(table\.\w+|raw\.[\w ]+|default)")
# fields that no suite of the scenario reads: these suites check the crossed module alone
UNREAD = {"negative_broken_module.json": "base."}


def _sites(node, path=()):
    """The path of every node below `node`, as a tuple of keys and indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _sites(child, path + (key,))


def _site_path(site) -> str:
    """The dotted path the scenario's errors name: triple.lower[2], eta.table.f."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in site).lstrip(".")


SITES = [(name, site) for name, raw in SHIPPED.items() for site in _sites(raw)]
INT_SITES = [(name, site) for name, site in SITES if INT_FIELDS.fullmatch(_site_path(site))]


def _mutated(name, site, mutation):
    raw = copy.deepcopy(SHIPPED[name])
    parent = raw
    for key in site[:-1]:
        parent = parent[key]
    value = MUTATIONS[mutation](parent[site[-1]])
    if value is DELETE:
        del parent[site[-1]]
    else:
        parent[site[-1]] = value
    return raw


def _run(raw, *argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mutant.json"
        path.write_text(json.dumps(raw))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], "--scenario", str(path), *argv[1:]])
    return code, err.getvalue()


@settings(derandomize=True, database=None, max_examples=600, deadline=timedelta(seconds=20))
@given(st.one_of(st.sampled_from(INT_SITES), st.sampled_from(SITES)), st.sampled_from(sorted(MUTATIONS)))
def test_a_mutated_scenario_exits_0_1_or_2(case, mutation):
    name, site = case
    field = _site_path(site)
    assume(mutation != "huge" or field not in UNBOUNDED)
    raw = _mutated(name, site, mutation)
    code, err = _run(raw, "run", "--budget", "3")
    assert code in (0, 1, 2), err
    unread = name in UNREAD and field.startswith(UNREAD[name])
    # a cyclic group's code may be written as its printed residue, "3"
    residue = mutation == "string" and field.startswith("eta.")
    if mutation in ("string", "bool", "float") and INT_FIELDS.fullmatch(field) and not (unread or residue):
        assert code == 2 and err.startswith("error:") and f"'{field}'" in err, (field, err)
    if SHIPPED[name].get("base", {}).get("kind") == "paths":
        path_id = next(iter(SHIPPED[name]["base"]["paths"]))
        code, err = _run(raw, "transport", "--path", path_id)
        assert code in (0, 2), err
