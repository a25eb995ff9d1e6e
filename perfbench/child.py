"""One benchmark item in a fresh interpreter, through catbundle's CLI entry point.

    python3 perfbench/child.py run --scenario F --suite S --out JSONL [--trace-out F --item ID]
    python3 perfbench/child.py transport --scenario F --path ID [--path ID ...]

Run from the repository root with PYTHONPATH=src. The last line of standard
output is one JSON object: for `run`, the CLI exit code, the monotonic clock at
the first suite call and after the JSONL report is written, and this process's
peak resident memory (ru_maxrss, KiB); for `transport`, the matrix that
`catbundle transport` printed for each path.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cli():
    import catbundle.cli as cli
    src = (Path.cwd() / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"catbundle was imported from {cli.__file__}, not from {src}")
    return cli


def run(args) -> dict:
    cli = _cli()
    first_suite: list[float] = []
    run_suite = cli.run_suite

    def timed_run_suite(sc, name):
        if not first_suite:
            first_suite.append(time.monotonic())
        return run_suite(sc, name)

    cli.run_suite = timed_run_suite
    tracer = None
    if args.trace_out:
        import layertrace
        tracer = layertrace.Tracer(args.item)
        layertrace.install(tracer)
    rc = cli.main(["run", "--scenario", args.scenario, "--suite", args.suite,
                   "--format", "jsonl", "--out", args.out])
    done = time.monotonic()
    if tracer is not None:
        tracer.dump(args.trace_out)
    return {"rc": rc, "first_suite": first_suite[0] if first_suite else done, "done": done,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


def transport(args) -> dict:
    cli = _cli()
    out = {}
    for path in args.path:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["transport", "--scenario", args.scenario, "--path", path])
        out[path] = {"rc": rc, "matrix": [[float(x) for x in row.split()]
                                          for row in buf.getvalue().splitlines()]}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run")
    r.add_argument("--scenario", required=True)
    r.add_argument("--suite", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--trace-out", default=None)
    r.add_argument("--item", default="")
    t = sub.add_parser("transport")
    t.add_argument("--scenario", required=True)
    t.add_argument("--path", action="append", required=True)
    args = parser.parse_args()
    result = run(args) if args.command == "run" else transport(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
