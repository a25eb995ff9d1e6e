"""Pass/fail law reports shared by every verification suite.

A suite produces a LawReport: one LawRecord per algebraic law, each carrying
the law's anchor string (its identifier in the library's law registry, e.g.
"Eq 2.4"), a pass/fail status, the number of cases checked, whether the check
was exhaustive, and a witness payload on failure.

The machine-readable serialization (JSONL) is canonical: records sorted by
law id, keys sorted, no timing fields, so identical inputs give identical
bytes. Timing appears only in the human-readable table.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable


@dataclass(frozen=True)
class LawRecord:
    law: str
    anchor: str
    status: str  # "pass" | "fail"
    checks: int
    exhaustive: bool
    witness: dict | None = None
    elapsed_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class LawReport:
    suite: str
    records: list[LawRecord] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        # overall status is fail iff any record fails
        return all(r.passed for r in self.records)

    def sorted_records(self) -> list[LawRecord]:
        return sorted(self.records, key=lambda r: r.law)

    def extend(self, other: "LawReport") -> "LawReport":
        self.records.extend(other.records)
        return self

    def find(self, law: str) -> LawRecord:
        for r in self.records:
            if r.law == law:
                return r
        raise KeyError(law)

    def to_jsonl(self) -> str:
        lines = []
        for r in self.sorted_records():
            lines.append(json.dumps(
                {
                    "suite": self.suite,
                    "law": r.law,
                    "anchor": r.anchor,
                    "status": r.status,
                    "checks": r.checks,
                    "exhaustive": r.exhaustive,
                    "witness": r.witness,
                },
                sort_keys=True,
                separators=(",", ":"),
            ))
        lines.append(json.dumps(
            {
                "suite": self.suite,
                "laws": len(self.records),
                "overall": "pass" if self.passed else "fail",
            },
            sort_keys=True,
            separators=(",", ":"),
        ))
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        rows = [("LAW", "ANCHOR", "STATUS", "CHECKS", "MODE", "MS")]
        for r in self.sorted_records():
            rows.append((
                r.law,
                r.anchor,
                "PASS" if r.passed else "FAIL",
                str(r.checks),
                "exhaustive" if r.exhaustive else "sampled",
                f"{r.elapsed_ms:.1f}",
            ))
        widths = [max(len(row[i]) for row in rows) for i in range(6)]
        out = []
        for row in rows:
            out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        status = "PASS" if self.passed else "FAIL"
        out.append(f"suite {self.suite}: {status} ({len(self.records)} laws)")
        failing = [r for r in self.sorted_records() if not r.passed]
        for r in failing:
            out.append(f"  witness [{r.law}]: {json.dumps(r.witness, sort_keys=True)}")
        return "\n".join(out) + "\n"


def run_law(
    law: str,
    anchor: str,
    cases: Iterable,
    check: Callable,
    exhaustive: bool,
) -> LawRecord:
    """Run `check` over `cases`; stop at the first witness.

    `check(case)` returns None on success or a witness dict on failure.
    """
    from .crossed import CompositionUndefined
    from .groups import StructuralError

    t0 = time.perf_counter()
    n = 0
    witness = None
    for case in cases:
        n += 1
        try:
            witness = check(case)
        except (CompositionUndefined, StructuralError) as exc:
            # a law whose check cannot even be formed has failed
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        if witness is not None:
            break
    elapsed = (time.perf_counter() - t0) * 1000.0
    return LawRecord(
        law=law,
        anchor=anchor,
        status="pass" if witness is None else "fail",
        checks=n,
        exhaustive=exhaustive,
        witness=witness,
        elapsed_ms=elapsed,
    )
