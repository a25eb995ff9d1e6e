import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from catbundle import cli as cli_mod
from catbundle import suites as suites_mod
from catbundle.cli import main
from catbundle.crossed import catalog
from catbundle.scenario import ScenarioError

REPO = Path(__file__).resolve().parents[1]
SCEN = REPO / "scenarios"


def run_cli(*argv):
    return main(list(argv))


def test_catalog_listing(capsys):
    assert run_cli("catalog") == 0
    out = capsys.readouterr().out
    assert "s3-conj" in out
    assert "[negative]" in out
    # doc-sync: the printed count matches the catalog size
    assert f"{len(catalog())} crossed modules" in out


def test_transport_zero_connection_prints_identity(capsys, tmp_path):
    scenario = {
        "crossed_module": "so2-conj",
        "base": {"kind": "paths", "dim": 1, "paths": {"seg": [[0.0], [1.0]]}},
        "connection": {"family": "constant", "group_dim": 2, "base_dim": 1,
                       "matrices": [[[0.0, 0.0], [0.0, 0.0]]]},
    }
    f = tmp_path / "zero.json"
    f.write_text(json.dumps(scenario))
    assert run_cli("transport", "--scenario", str(f), "--path", "seg") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["1 0", "0 1"]


def test_transport_quarter_turn(capsys):
    assert run_cli("transport", "--scenario", str(SCEN / "so2_transport.json"),
                   "--path", "unit", "--steps", "10000") == 0
    rows = capsys.readouterr().out.strip().splitlines()
    vals = [[float(x) for x in row.split()] for row in rows]
    want = [[0.0, 1.0], [-1.0, 0.0]]  # rotation by -pi/2
    for r, w in zip(vals, want):
        for a, b in zip(r, w):
            assert abs(a - b) < 1e-9


def test_transport_split_equals_whole_bitwise(capsys):
    # "split" declares the junction sample directly; "joined" composes the two
    # halves. With aligned substeps the outputs are byte-identical.
    assert run_cli("transport", "--scenario", str(SCEN / "so2_transport.json"),
                   "--path", "split", "--steps", "50") == 0
    whole = capsys.readouterr().out
    assert run_cli("transport", "--scenario", str(SCEN / "so2_transport.json"),
                   "--path", "joined", "--steps", "50") == 0
    joined = capsys.readouterr().out
    assert whole == joined


# the exact text `transport` prints for every declared path of the shipped
# scenarios, roundoff-sized entries and their signs included
SHIPPED_TRANSPORTS = {
    ("so2_transport", "unit"): "-2.22044604925e-16 1\n-1 -2.22044604925e-16\n",
    ("so2_transport", "split"): "-1.79380389039e-16 1\n-1 -1.99673461754e-16\n",
    ("so2_transport", "double"): "-1 -3.21624529935e-16\n3.21624529935e-16 -1\n",
    ("so2_transport", "half1"): "0.707106781187 0.707106781187\n-0.707106781187 0.707106781187\n",
    ("so2_transport", "half2"): "0.707106781187 0.707106781187\n-0.707106781187 0.707106781187\n",
    ("so2_transport", "joined"): "-1.79380389039e-16 1\n-1 -1.99673461754e-16\n",
    ("so3_decorated", "diag"): "0.922487027646 0.310969833599 -0.228725701258\n"
                               "-0.206661136141 0.898283209491 0.387786604147\n"
                               "0.326050392782 -0.310459398534 0.892919987025\n",
}


def test_shipped_transports_are_pinned():
    declared = {(path.stem, pid) for path in SCEN.glob("*.json")
                for pid in json.loads(path.read_text()).get("base", {}).get("paths", {})}
    assert declared == set(SHIPPED_TRANSPORTS)


@pytest.mark.parametrize("scenario, path", SHIPPED_TRANSPORTS, ids="/".join)
def test_shipped_transport_prints_its_pinned_text(scenario, path, capsys):
    assert run_cli("transport", "--scenario", str(SCEN / f"{scenario}.json"), "--path", path) == 0
    assert capsys.readouterr().out == SHIPPED_TRANSPORTS[scenario, path]


def test_run_exit_codes(capsys, tmp_path):
    assert run_cli("run", "--scenario", str(SCEN / "s3_cocycle.json")) == 0
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(SCEN / "negative_broken_module.json")) == 1
    capsys.readouterr()
    assert run_cli("run", "--scenario", str(tmp_path / "nope.json")) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_run_unknown_suite_is_input_error(capsys):
    assert run_cli("run", "--scenario", str(SCEN / "s3_cocycle.json"),
                   "--suite", "no-such-suite") == 2
    assert "unknown suite" in capsys.readouterr().err


def test_missing_scenario_field_is_input_error(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps({"crossed_module": "z4-conj", "suites": ["cocycle"]}))
    assert run_cli("run", "--scenario", str(f)) == 2
    assert "missing" in capsys.readouterr().err


def test_jsonl_schema_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for out in (out1, out2):
        code = run_cli("run", "--scenario", str(SCEN / "s3_cocycle.json"),
                       "--format", "jsonl", "--out", str(out))
        capsys.readouterr()
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(line) for line in out1.read_text().splitlines()]
    records = [l for l in lines if "law" in l]
    summaries = [l for l in lines if "overall" in l]
    assert records and summaries
    for r in records:
        assert set(r) == {"suite", "law", "anchor", "status", "checks", "exhaustive", "witness"}
    for s in summaries:
        assert set(s) == {"suite", "laws", "overall"}


def test_seed_override_changes_nothing_for_exhaustive_suite(tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out, seed in ((a, "1"), (b, "2")):
        run_cli("run", "--scenario", str(SCEN / "z4_gu.json"), "--format", "jsonl",
                "--seed", seed, "--out", str(out))
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()  # fully exhaustive suite ignores sampling


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "catbundle.cli", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "s3-conj" in proc.stdout


def _shipped_cli_runs():
    for path in sorted(SCEN.glob("*.json")):
        raw = json.loads(path.read_text())
        for suite in raw.get("suites", []):
            yield pytest.param(["run", "--scenario", str(path), "--suite", suite, "--format", "jsonl"],
                               id=f"{path.stem}/{suite}")
        for pid in raw.get("base", {}).get("paths", {}):
            yield pytest.param(["transport", "--scenario", str(path), "--path", pid],
                               id=f"{path.stem}/transport/{pid}")


LAW_MODULE_NAMES = ("bundle", "cocycle", "decorated", "twisted")

# one shipped run in a fresh interpreter: the exit code, whether numpy.random
# was imported, and the catbundle modules loaded at the first suite call (null
# for `transport`) and at exit
_IMPORT_PROBE = """
import contextlib, io, json, sys
import catbundle.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "catbundle")

at_first, run_suite = [], cli.run_suite

def probed_run_suite(sc, name):
    if not at_first:
        at_first.append(loaded())
    return run_suite(sc, name)

cli.run_suite = probed_run_suite
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "numpy_random": "numpy.random" in sys.modules,
                  "at_first": at_first[0] if at_first else None, "at_exit": loaded()}))
"""


@pytest.mark.parametrize("argv", _shipped_cli_runs())
def test_no_cli_run_imports_numpy_random(argv):
    # catbundle.stream draws numpy's PCG64 stream itself, so no run pays the
    # 10-15 ms import of numpy.random; its bitwise parity with default_rng is
    # test_stream's, since a passing report cannot tell a wrong stream.
    # The same run guards the import set: a run imports its suites' law
    # modules before the first suite call (a module compiled after it is
    # timed as checking), and only those
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    out = json.loads(proc.stdout)
    assert out["rc"] in (0, 1) and out["numpy_random"] is False, proc.stderr
    law_modules = {m.split(".")[-1] for m in out["at_exit"]} & set(LAW_MODULE_NAMES)
    if argv[0] == "transport":
        assert out["at_first"] is None
        assert not law_modules & {"bundle", "cocycle"}, out["at_exit"]
        return
    assert out["at_exit"] == out["at_first"], set(out["at_exit"]) - set(out["at_first"])
    if argv[argv.index("--suite") + 1] in ("crossed-module", "exchange-law"):
        assert not law_modules, out["at_exit"]


def test_suites_table_names_every_suite_and_rejects_unknown_names():
    assert set(suites_mod.LAW_MODULES) == set(suites_mod.SUITES)
    for modules in suites_mod.LAW_MODULES.values():
        assert set(modules) <= set(LAW_MODULE_NAMES)
    with pytest.raises(ScenarioError, match="unknown suite 'nope'"):
        suites_mod.import_suites(["bundle-axioms", "nope"])


@pytest.mark.parametrize("where", ["flag", "scenario"])
def test_unknown_suite_fails_before_any_suite_runs(where, monkeypatch, capsys, tmp_path):
    entered = []
    monkeypatch.setattr(cli_mod, "run_suite", lambda sc, name: entered.append(name))
    scenario = SCEN / "s3_quiver.json"
    argv = ["run", "--scenario", str(scenario), "--suite", "bundle-axioms", "--suite", "nope"]
    if where == "scenario":
        raw = {**json.loads(scenario.read_text()), "suites": ["bundle-axioms", "nope"]}
        scenario = tmp_path / "unknown_suite.json"
        scenario.write_text(json.dumps(raw))
        argv = ["run", "--scenario", str(scenario)]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown suite 'nope'") and entered == []


@pytest.mark.parametrize("suites", [5, "cocycle", [["cocycle"]]])
def test_malformed_suites_list_is_input_error(suites, capsys, tmp_path):
    f = tmp_path / "bad_suites.json"
    f.write_text(json.dumps({**json.loads((SCEN / "s3_cocycle.json").read_text()), "suites": suites}))
    assert run_cli("run", "--scenario", str(f)) == 2
    assert "'suites' must be a list of suite names" in capsys.readouterr().err


def test_package_namespace_is_lazy():
    # importing the package or the CLI compiles none of the law modules; the
    # exported names resolve on first access
    code = ("import json, sys\n"
            "def law_modules():\n"
            "    return [m for m in %r if 'catbundle.' + m in sys.modules]\n"
            "import catbundle\n"
            "after_package = law_modules()\n"
            "import catbundle.cli\n"
            "print(json.dumps([after_package, law_modules(), dir(catbundle), catbundle.__all__]))\n"
            % (LAW_MODULE_NAMES,))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    after_package, after_cli, listed, exported = json.loads(proc.stdout)
    assert after_package == [] and after_cli == [], proc.stderr
    assert set(exported) <= set(listed)


def test_every_verify_operation_is_reachable_from_a_suite(monkeypatch):
    import catbundle.bundle
    import catbundle.cocycle
    import catbundle.crossed
    import catbundle.decorated
    import catbundle.twisted
    from catbundle.scenario import Scenario

    found = {}
    for mod in (catbundle.crossed, catbundle.bundle, catbundle.cocycle,
                catbundle.twisted, catbundle.decorated):
        for name in dir(mod):
            if name.startswith("verify_") and callable(getattr(mod, name)):
                if getattr(getattr(mod, name), "__module__", "") == mod.__name__:
                    found[name] = getattr(mod, name)
    assert found

    # wrap every verify_* operation wherever catbundle binds it by name, run
    # every suite on the first shipped scenario that declares it, and require
    # every operation to be entered by some suite
    entered = set()

    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            entered.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in found.items():
        wrapper = wrap(name, fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "catbundle" or mod_name.startswith("catbundle."):
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        monkeypatch.setattr(mod, key, wrapper)

    shipped = [Scenario.load(path) for path in sorted(SCEN.glob("*.json"))]
    for suite in suites_mod.SUITES:
        sc = next((sc for sc in shipped if suite in sc.suites), None)
        assert sc is not None, f"no shipped scenario declares {suite}"
        suites_mod.run_suite(sc, suite)
    assert entered == set(found), set(found) - entered


def test_every_exported_name_resolves():
    import catbundle

    for name in catbundle.__all__:
        assert hasattr(catbundle, name), name


def test_human_table_contains_anchors(capsys):
    assert run_cli("run", "--scenario", str(SCEN / "s3_cocycle.json"),
                   "--suite", "cocycle") == 0
    out = capsys.readouterr().out
    assert "Eq 5.26" in out and "PASS" in out


def test_tolerance_override_reaches_the_group(capsys):
    # an absurdly tight group tolerance makes the sampled matrix checks fail
    code = run_cli("run", "--scenario", str(SCEN / "so2_transport.json"),
                   "--suite", "exchange-law", "--eps-grp", "1e-18", "--budget", "500")
    capsys.readouterr()
    assert code == 1
    code = run_cli("run", "--scenario", str(SCEN / "so2_transport.json"),
                   "--suite", "exchange-law", "--budget", "500")
    capsys.readouterr()
    assert code == 0


def test_endpoint_tolerance_reaches_the_path_base(tmp_path, capsys):
    from catbundle.cli import _apply_overrides, build_parser
    from catbundle.scenario import Scenario

    raw = json.loads((SCEN / "so2_transport.json").read_text())
    raw["base"]["paths"]["half2"] = [[0.5 + 1e-5], [1.0]]  # 1e-5 from where half1 ends
    f = tmp_path / "gap.json"
    f.write_text(json.dumps(raw))
    assert run_cli("transport", "--scenario", str(f), "--path", "joined") == 2
    capsys.readouterr()
    f.write_text(json.dumps({**raw, "tolerances": {"pt": 1e-3}}))
    assert run_cli("transport", "--scenario", str(f), "--path", "joined") == 0
    assert len(capsys.readouterr().out.splitlines()) == 2

    assert suites_mod._twisted_instance(Scenario.load(f)).base.eps_pt == 1e-3
    args = build_parser().parse_args(["run", "--scenario", str(f), "--eps-pt", "0.5"])
    assert suites_mod._twisted_instance(_apply_overrides(Scenario.load(f), args)).base.eps_pt == 0.5


def test_scenario_cocycle_tables_mode(tmp_path, capsys):
    scenario = {
        "crossed_module": "z4-abelian",
        "base": {"kind": "quiver", "objects": ["x", "y"],
                 "arrows": [["f", "x", "y"]], "word_bound": 2},
        "cover": {"0": ["x", "y"], "1": ["x", "y"], "2": ["x", "y"]},
        "cocycle": {
            "mode": "tables",
            "pairs": {f"{i},{j}": {"x": (j - i) % 4, "y": (2 * (j - i)) % 4}
                      for i in range(3) for j in range(3)},
            "triples": {f"{i},{j},{k}": {"x": 0, "y": 0}
                        for i in range(3) for j in range(3) for k in range(3)},
        },
        "suites": ["cocycle"],
    }
    f = tmp_path / "tables.json"
    f.write_text(json.dumps(scenario))
    assert run_cli("run", "--scenario", str(f)) == 0
    capsys.readouterr()


def test_scenario_trivialization_tables(tmp_path, capsys):
    scenario = {
        "crossed_module": "s3-conj",
        "base": {"kind": "quiver", "objects": ["x", "y"],
                 "arrows": [["f", "x", "y"]], "word_bound": 2},
        "cover": {"0": ["x", "y"], "1": ["x", "y"], "2": ["x", "y"],
                  "3": ["x", "y"], "4": ["x", "y"], "5": ["x", "y"]},
        "trivializations": {
            "0": {"x": "(0 1)", "y": "(1 2)"}, "1": {"x": "e", "y": "(0 2)"},
            "2": {"x": "(0 1 2)", "y": "e"}, "3": {"x": "(0 2 1)", "y": "(0 1)"},
            "4": {"x": "(1 2)", "y": "(0 1 2)"}, "5": {"x": "(0 2)", "y": "(0 2 1)"},
        },
        "triple": {"lower": [0, 1, 2], "upper": [3, 4, 5]},
        "suites": ["transition-cocycle"],
    }
    f = tmp_path / "trivs.json"
    f.write_text(json.dumps(scenario))
    assert run_cli("run", "--scenario", str(f)) == 0
    capsys.readouterr()


def test_scenario_element_parsing_errors(tmp_path, capsys):
    scenario = {
        "crossed_module": "z4-conj",
        "base": {"kind": "quiver", "objects": ["x", "y"],
                 "arrows": [["f", "x", "y"]], "word_bound": 2},
        "eta": {"table": {"f": 9}},  # out of range for Z4
        "suites": ["twisted-bundle"],
    }
    f = tmp_path / "bad_elem.json"
    f.write_text(json.dumps(scenario))
    assert run_cli("run", "--scenario", str(f)) == 2
    assert "element" in capsys.readouterr().err


def test_format_both_writes_table_and_jsonl(capsys):
    code = run_cli("run", "--scenario", str(SCEN / "s3_cocycle.json"),
                   "--suite", "cocycle", "--format", "both")
    out = capsys.readouterr().out
    assert code == 0
    assert "LAW" in out and '"law":"cocycle-condition"' in out


def test_every_shipped_scenario_runs_with_expected_exit_code(capsys, tmp_path):
    expected = {
        "s3_quiver.json": 0,
        "z4_gu.json": 0,
        "s3_cocycle.json": 0,
        "z4_twist.json": 0,
        "so2_transport.json": 0,
        "so3_decorated.json": 0,
        "negative_broken_module.json": 1,
        "negative_eta.json": 1,
    }
    shipped = {p.name for p in SCEN.glob("*.json")}
    assert shipped == set(expected)
    for name, want in sorted(expected.items()):
        out = tmp_path / f"{name}.jsonl"
        code = run_cli("run", "--scenario", str(SCEN / name), "--format", "jsonl",
                       "--out", str(out))
        capsys.readouterr()
        assert code == want, name
        # canonical report, byte for byte (tests/golden/<scenario>.jsonl)
        golden = REPO / "tests" / "golden" / name.replace(".json", ".jsonl")
        assert out.read_bytes() == golden.read_bytes(), name


MATRIX_QUIVER = {
    "crossed_module": "so2-conj", "seed": 1, "budget": 50,
    "base": {"kind": "quiver", "objects": ["a", "b", "c"],
             "arrows": [["f", "a", "b"], ["g", "b", "c"]], "word_bound": 3},
    "functors": {name: {o: {"angle": 0.1 * i + k} for i, o in enumerate("abc")}
                 for k, name in enumerate(("sigma1", "sigma2"))},
    "eta": {"table": {"f": {"angle": 0.3}, "g": {"angle": 0.2}}},
}


@pytest.mark.parametrize("suite", ["bundle-axioms", "prop34-gu-group", "prop41-section",
                                   "twisted-bundle", "e-action"])
def test_suite_that_needs_a_finite_module_is_input_error(suite, tmp_path, capsys):
    # these suites enumerate G, its functors or composable chains over the
    # quiver; on SO(2) they cannot run, which is an input error (2), not a
    # failed law (1)
    f = tmp_path / "so2_quiver.json"
    f.write_text(json.dumps(MATRIX_QUIVER))
    assert run_cli("run", "--scenario", str(f), "--suite", suite) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_budget_override_reaches_path_base_suites(capsys):
    code = run_cli("run", "--scenario", str(SCEN / "so2_transport.json"),
                   "--suite", "twisted-bundle", "--budget", "5", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    checks = {r["law"]: r["checks"] for r in records if "law" in r}
    # laws drawn straight from the budget take 5 cases (200 from path_budget before)
    for law in ("associativity", "b1-surjectivity", "boundary-coherence",
                "eta-homomorphism", "unit-laws"):
        assert checks[law] == 5, law
    assert max(checks.values()) < 200


BAD_SO_SPECS = [
    ("so3-conj", '{"axis": [1, 0, 0]}'),
    ("so3-conj", '{"axis": [1, 0, 0], "angle": "x"}'),
    ("so3-conj", '{"axis": [1, 0], "angle": 1.0}'),
    ("so3-conj", '{"axis": "ab", "angle": 1}'),
    ("so3-conj", '{"axis": [1, 0, 0], "angle": NaN}'),
    ("so3-conj", '{"axis": [NaN, 0, 0], "angle": 1.0}'),
    ("so2-conj", '{"angle": "x"}'),
    ("so2-conj", '{"angle": null}'),
    ("so2-conj", '{"angle": [1, 2]}'),
    ("so2-conj", '{"angle": NaN}'),
    ("so2-conj", '{"angle": Infinity}'),
    ("so2-conj", '[[1, 0], [0]]'),
    ("so2-conj", '"abc"'),
]


@pytest.mark.parametrize("module, spec", BAD_SO_SPECS)
def test_malformed_so_element_spec_is_input_error(module, spec, tmp_path, capsys):
    # a functor entry that is no SO(n) element is an input error (2), not a
    # traceback: through the Prop 4.1 section check and the Prop 4.2 extraction
    good = {"axis": [1, 0, 0], "angle": 0.5} if module == "so3-conj" else {"angle": 0.5}
    functors = {name: {"a": "BAD", "b": good} for name in ("sigma1", "sigma2")}
    scenario = {**MATRIX_QUIVER, "crossed_module": module, "functors": functors,
                "base": {"kind": "quiver", "objects": ["a", "b"], "arrows": [["f", "a", "b"]],
                         "word_bound": 2}}
    f = tmp_path / "bad_so_spec.json"
    f.write_text(json.dumps(scenario).replace('"BAD"', spec))
    for suite in ("prop41-section", "prop42-correspondence"):
        assert run_cli("run", "--scenario", str(f), "--suite", suite) == 2, suite
        assert capsys.readouterr().err.startswith("error:"), suite


@pytest.mark.parametrize("value", ["-1e-3", "-inf", "-0.5"])
@pytest.mark.parametrize("key", ["grp", "pt", "iso"])
def test_a_negative_tolerance_reaches_the_tolerance_check(key, value, capsys):
    # a negative value after the option, as after an `=`, is a malformed
    # tolerance: exit 2 naming it, not an argparse complaint about the option
    for argv in ([f"--eps-{key}", value], [f"--eps-{key}={value}"]):
        assert run_cli("run", "--scenario", str(SCEN / "so3_decorated.json"), *argv) == 2
        err = capsys.readouterr().err
        assert f"tolerance '{key}' must be finite and > 0" in err and "expected one argument" not in err
