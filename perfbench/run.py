#!/usr/bin/env python3
"""catbundle benchmark: time to a certified verdict on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; catbundle is imported from ./src. The workload
(see workloads.py) is generated from the seed and written as scenario files
into a temporary directory before anything is timed. Every item runs in a
fresh single-threaded child process through `catbundle.cli.main(["run", ...])`,
one at a time, because a CLI user pays the cold start on every invocation.

--trace 0 repeats passes over all items for about S seconds (at least three,
so every item has a median and its JSONL can be compared byte for byte) and
reports the end-to-end metrics:

  wall_s        sum over items of the median time from the first suite call
                to the written JSONL report
  checks_per_s  law cases certified (sum of `checks` in the JSONL) / wall_s
  peak_rss_mb   largest per-item median of the child's ru_maxrss
  setup_s       median time from child start to the first suite call

A fixed job (reference.py) is timed in a fresh child before every item and
at the end of every pass. Each item run's times are scaled by REFERENCE_S /
(the mean of the reference times just before and just after it), so they
read as on a host where that job takes REFERENCE_S; this cancels the shared
host's drift in speed. The unscaled values are printed on the line before
the items.

--trace 1 runs one untraced pass and one traced pass (layertrace.py) and
reports the per-layer metrics, with the tracing overhead.

An item fails if its child raises, exits with the wrong code, gives the wrong
verdict (a law that should pass fails, a law passes on zero cases, or a
negative item's failing laws or witnesses differ from the expected ones), or
writes JSONL that differs between two runs. On path-transport each SO(2)
declared path is also checked against the exact transport. The last line of
standard output is the JSON result; `failed` / `attempted` is the op-fail
ratio.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
HARD_LIMIT_S = 165.0  # every run must end within 180 s
MIN_PASSES = 3  # per-item medians over at least three passes
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
EPS_GRP = 1e-9  # catbundle's default group tolerance; generated scenarios keep it
END_TO_END_UNITS = {"wall_s": "s", "checks_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s"}
REFERENCE_S = 0.12  # nominal time of perfbench/reference.py; timings are scaled to it


@dataclass
class ItemRun:
    error: str | None = None
    setup_s: float = 0.0
    wall_s: float = 0.0
    rss_kb: int = 0
    digest: str = ""
    checks: int = 0
    reference_s: float = 0.0  # reference.py, timed just before this item's child
    scale: float = 1.0  # REFERENCE_S / mean reference time around this run


def run_child(root: Path, argv: list[str], deadline: float) -> tuple[float, dict | None, str | None]:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), **SINGLE_THREAD}
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *argv], cwd=root, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        return start, None, "timed out"
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return start, None, f"child exited {proc.returncode}: {tail}"
    return start, json.loads(lines[-1]), None


def run_reference(root: Path, deadline: float) -> float:
    env = {**os.environ, **SINGLE_THREAD}
    proc = subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=root, env=env,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=True)
    return float(proc.stdout)


def verdict_error(item: workloads.Item, rc: int, jsonl: bytes) -> tuple[str | None, int]:
    """Check the exit code and the JSONL verdict; return (error or None, checks)."""
    if rc != item.exit_code:
        return f"exit code {rc}, expected {item.exit_code}", 0
    try:
        rows = [json.loads(line) for line in jsonl.decode().splitlines()]
        laws = [r for r in rows if "law" in r]
        summary = [r for r in rows if "overall" in r]
        checks = sum(int(r["checks"]) for r in laws)
        empty = sorted(r["law"] for r in laws if r["status"] == "pass" and r["checks"] < 1)
        failing = {r["law"]: r["witness"] for r in laws if r["status"] != "pass"}
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed JSONL report: {exc!r}", 0
    if not laws or len(summary) != 1 or summary[0].get("laws") != len(laws) \
            or any(r.get("suite") != item.suite for r in rows):
        return "malformed JSONL report", 0
    if empty:
        return f"laws pass on zero cases: {empty}", checks
    if failing != item.failing:
        return (f"failing laws {sorted(failing)}, expected {sorted(item.failing)}"
                if set(failing) != set(item.failing) else "witnesses differ from expected"), checks
    if summary[0]["overall"] != ("fail" if item.failing else "pass"):
        return "overall status contradicts the law records", checks
    return None, checks


def run_item(root: Path, tmp: Path, item: workloads.Item, deadline: float,
             trace_out: Path | None = None) -> ItemRun:
    out = tmp / "report.jsonl"
    out.unlink(missing_ok=True)
    argv = ["run", "--scenario", str(tmp / f"{item.scenario}.json"), "--suite", item.suite,
            "--out", str(out)]
    if trace_out is not None:
        argv += ["--trace-out", str(trace_out), "--item", item.id]
    reference_s = run_reference(root, deadline)
    start, res, err = run_child(root, argv, deadline)
    if res is None:
        return ItemRun(error=err, reference_s=reference_s)
    jsonl = out.read_bytes() if out.exists() else b""
    err, checks = verdict_error(item, res["rc"], jsonl)
    return ItemRun(err, res["first_suite"] - start, res["done"] - res["first_suite"],
                   res["maxrss_kb"], hashlib.sha256(jsonl).hexdigest(), checks, reference_s)


def run_pass(root, tmp, wl, deadline, runs, trace_dir: Path | None = None,
             reverse: bool = False) -> None:
    """Run every item once. The shared host's speed drifts by a fifth and more
    within seconds, and a cold interpreter running reference.py slows down with
    the items; each run is scaled by the reference times on both sides of it,
    so runs made minutes apart, or on two commits, compare."""
    order = list(enumerate(wl.items))
    done = []
    for i, item in reversed(order) if reverse else order:
        trace_out = None if trace_dir is None else trace_dir / f"{i}.json"
        done.append(run_item(root, tmp, item, deadline, trace_out))
        runs[item.id].append(done[-1])
    after = [r.reference_s for r in done[1:]] + [run_reference(root, deadline)]
    for r, ref_after in zip(done, after):
        r.scale = 2 * REFERENCE_S / (r.reference_s + ref_after)


def mark_nondeterministic(runs: dict[str, list[ItemRun]]) -> None:
    for item_runs in runs.values():
        ok = [r for r in item_runs if r.error is None]
        for r in ok[1:]:
            if r.digest != ok[0].digest:
                r.error = "JSONL bytes differ from the first run of the same seed"


def check_oracle(root: Path, tmp: Path, wl: workloads.Workload, deadline: float) -> list[str]:
    """SO(2) transport printed by `catbundle transport` against rotation2(-integral A)."""
    errors = []
    for name, paths in wl.oracle_paths.items():
        argv = ["transport", "--scenario", str(tmp / f"{name}.json")]
        for p in paths:
            argv += ["--path", p]
        _, res, err = run_child(root, argv, deadline)
        for p in paths:
            if res is None:
                errors.append(f"{name}/{p}: {err}")
                continue
            got = np.asarray(res[p]["matrix"])
            want = workloads.so2_transport_oracle(wl.scenarios[name], p)
            diff = float(np.max(np.abs(got - want))) if got.shape == want.shape else float("inf")
            if res[p]["rc"] != 0 or not diff <= EPS_GRP:
                errors.append(f"{name}/{p}: transport differs from the exact SO(2) value by {diff:.3g}")
    return errors


def summarize(runs: dict[str, list[ItemRun]], scaled: bool = False) -> dict[str, float]:
    """End-to-end metrics from the successful runs, per-item medians over passes,
    with each run's times scaled to the reference speed if `scaled`."""
    ok = {k: [r for r in v if r.error is None] for k, v in runs.items()}
    ok = {k: v for k, v in ok.items() if v}

    def scale(r: ItemRun) -> float:
        return r.scale if scaled else 1.0

    wall = sum(statistics.median(r.wall_s * scale(r) for r in v) for v in ok.values())
    checks = sum(v[0].checks for v in ok.values())
    setups = [r.setup_s * scale(r) for v in ok.values() for r in v]
    rss = [statistics.median(r.rss_kb for r in v) for v in ok.values()]
    return {
        "wall_s": wall,
        "checks_per_s": checks / wall if wall else 0.0,
        "peak_rss_mb": max(rss, default=0) / 1024.0,
        "setup_s": statistics.median(setups) if setups else 0.0,
    }


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
            "cpus": os.cpu_count(), "platform": platform.platform()}


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description="catbundle time-to-verdict benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", required=True, type=non_negative)
    parser.add_argument("--seconds", required=True, type=non_negative)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run kills and reaps a running child, and
    # the temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "catbundle" / "cli.py").is_file():
        print(f"error: no catbundle sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    # One CPU for this process and its children, so that reference.py runs on
    # the same CPU as the items: the CPUs of a shared host drift apart.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t_start = time.monotonic()
    deadline = t_start + HARD_LIMIT_S
    wl = workloads.generate(args.workload, args.seed)
    print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed,
                      "items": len(wl.items)}))

    runs: dict[str, list[ItemRun]] = {item.id: [] for item in wl.items}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp_name:
        tmp = Path(tmp_name)
        for name, raw in wl.scenarios.items():
            (tmp / f"{name}.json").write_text(json.dumps(raw, indent=1))
        if args.trace:
            run_pass(root, tmp, wl, deadline, runs)
            untraced_wall = summarize(runs)["wall_s"]
            traced = {item.id: [] for item in wl.items}
            trace_dir = tmp / "trace"
            trace_dir.mkdir()
            run_pass(root, tmp, wl, deadline, traced, trace_dir)
            traced_wall = summarize(traced)["wall_s"]
            for item in wl.items:
                runs[item.id] += traced[item.id]
            dumps = [json.loads(p.read_text()) for p in sorted(trace_dir.glob("*.json"))]
            values = layertrace.layer_metrics(dumps, traced_wall, untraced_wall)
            units = dict(layertrace.PER_LAYER)
        else:
            passes = 0
            while True:
                t_pass = time.monotonic()
                run_pass(root, tmp, wl, deadline, runs, reverse=passes % 2 == 1)
                passes += 1
                now = time.monotonic()
                if passes >= MIN_PASSES and (now - t_start) + (now - t_pass) > args.seconds:
                    break
                if now + (now - t_pass) > deadline:
                    break
            reference_s = statistics.median(r.reference_s for v in runs.values() for r in v)
            print(json.dumps({"unscaled": summarize(runs), "reference_s": reference_s,
                              "passes": passes}))
            values = summarize(runs, scaled=True)
            units = END_TO_END_UNITS
        oracle_errors = check_oracle(root, tmp, wl, deadline)

    mark_nondeterministic(runs)
    for item in wl.items:
        item_runs = runs[item.id]
        ok = [r for r in item_runs if r.error is None]
        print(json.dumps({
            "item": item.id, "runs": len(item_runs),
            "sha256": ok[0].digest if ok else None,
            "checks": ok[0].checks if ok else None,
            "wall_s_median": statistics.median(r.wall_s for r in ok) if ok else None,
            "errors": sorted({r.error for r in item_runs if r.error}),
        }))
    for err in oracle_errors:
        print(json.dumps({"oracle_error": err}))
    attempted = sum(len(v) for v in runs.values()) + sum(map(len, wl.oracle_paths.values()))
    failed = sum(r.error is not None for v in runs.values() for r in v) + len(oracle_errors)
    print(json.dumps({"op_fail_ratio": failed / attempted, "failed": failed,
                      "attempted": attempted, "elapsed_s": time.monotonic() - t_start}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
