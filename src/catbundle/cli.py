"""Command-line entry point.

    catbundle run --scenario FILE [--suite NAME]... [--seed N] [--out FILE]
    catbundle transport --scenario FILE --path ID [--steps N]
    catbundle catalog

Exit codes: 0 all laws pass, 1 at least one law fails, 2 input error (a
malformed scenario, an unreadable file, or a suite that cannot run on the
declared module, such as functor enumeration over an infinite group).
The JSONL report stream is canonical: same scenario and seed give identical
bytes (see README for the schema).

Each command imports the law modules it needs itself: `run` those of its
suites, all of them before the first suite runs; `transport` the integrator.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from .groups import StructuralError
from .report import LawReport
from .scenario import TOLERANCES, Scenario, ScenarioError
from .suites import SUITES, import_suites, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catbundle",
        description="Verify the algebraic laws of categorical bundles over "
                    "finite groups and SO(2)/SO(3).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run verification suites from a scenario file")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    run.add_argument("--suite", action="append", default=None,
                     help="suite name (repeatable); defaults to the scenario's list")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--budget", type=int, default=None,
                     help="override the case budget of every suite: sets both 'budget' "
                          "(quiver and finite suites) and 'path_budget' (path-base suites)")
    run.add_argument("--steps", type=int, default=None, help="override integrator substeps")
    run.add_argument("--eps-grp", type=float, default=None, help="override the group tolerance")
    run.add_argument("--eps-pt", type=float, default=None, help="override the endpoint tolerance")
    run.add_argument("--eps-iso", type=float, default=None, help="override the isomorphism tolerance")
    run.add_argument("--format", choices=("human", "jsonl", "both"), default="human")
    run.add_argument("--out", default=None, help="write the JSONL report to this file")

    tr = sub.add_parser("transport", help="print parallel transport along a declared path")
    tr.add_argument("--scenario", required=True)
    tr.add_argument("--path", required=True, help="path id declared in the scenario")
    tr.add_argument("--steps", type=int, default=None)

    sub.add_parser("catalog", help="list the built-in crossed modules")
    return parser


def _apply_overrides(sc: Scenario, args) -> Scenario:
    raw = dict(sc.raw)
    if getattr(args, "seed", None) is not None:
        raw["seed"] = args.seed
    if getattr(args, "budget", None) is not None:
        raw["budget"] = raw["path_budget"] = args.budget
    if getattr(args, "steps", None) is not None:
        raw["steps"] = args.steps
    tols = dict(sc.tolerances)
    for key in TOLERANCES:
        value = getattr(args, f"eps_{key}", None)
        if value is not None:
            tols[key] = value
    if tols:
        raw["tolerances"] = tols
    return Scenario(raw, origin=sc.origin)


def cmd_run(args) -> int:
    sc = _apply_overrides(Scenario.load(args.scenario), args)
    names = args.suite if args.suite else sc.suites
    if not names:
        raise ScenarioError("no suites requested: pass --suite or declare 'suites'")
    import_suites(names)
    reports: list[LawReport] = [run_suite(sc, name) for name in names]
    jsonl = "".join(r.to_jsonl() for r in reports)
    if args.format in ("human", "both"):
        for r in reports:
            sys.stdout.write(r.to_table() + "\n")
    if args.format in ("jsonl", "both") and args.out is None:
        sys.stdout.write(jsonl)
    if args.out is not None:
        with open(args.out, "w") as fh:
            fh.write(jsonl)
    return 0 if all(r.passed for r in reports) else 1


def cmd_transport(args) -> int:
    from .decorated import parallel_transport

    sc = _apply_overrides(Scenario.load(args.scenario), args)
    g = parallel_transport(sc.connection(), sc.path(args.path), sc.steps)
    for row in np.asarray(g):
        sys.stdout.write(" ".join(f"{x:.12g}" for x in row) + "\n")
    return 0


def cmd_catalog(args) -> int:
    from .crossed import catalog

    cat = catalog()
    for name, cm in cat.items():
        flag = "  [negative]" if cm.broken else ""
        sys.stdout.write(f"{name:14s} G={cm.G.name:4s} H={cm.H.name:4s} {cm.description}{flag}\n")
    sys.stdout.write(f"{len(cat)} crossed modules; suites: {', '.join(sorted(SUITES))}\n")
    return 0


def _signed_values(argv: list[str]) -> list[str]:
    """argv with a value that starts with one `-` after a tolerance option,
    such as -1e-3 or -inf, joined to it (--eps-grp=-1e-3): argparse would
    read it as an option, and the tolerance check would not name it."""
    out: list[str] = []
    flags = [f"--eps-{key}" for key in TOLERANCES]
    for arg in argv:
        if out and out[-1] in flags and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "transport":
            return cmd_transport(args)
        return cmd_catalog(args)
    except (ScenarioError, StructuralError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
