"""Verification report records and their deterministic serialization.

JSON is the canonical format (sorted keys, fixed layout, no volatile
metadata such as wall time, so identical configurations serialize
byte-for-byte identically); CSV flattens the check records; Markdown is
the human-readable summary and the only place wall time appears.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IoError

CSV_COLUMNS = ("name", "stage", "value", "target", "tolerance", "passed", "note")


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [_jsonable(u) for u in v.tolist()]
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return f if np.isfinite(f) else repr(f)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, dict):
        return {str(k): _jsonable(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(u) for u in v]
    return v


@dataclass
class CheckRecord:
    """One verification check: a measured value against a target."""

    name: str
    stage: str
    passed: bool
    value: float | None = None
    target: float | None = None
    tolerance: float | None = None
    note: str = ""
    details: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "stage": self.stage,
            "passed": bool(self.passed),
            "value": _jsonable(self.value),
            "target": _jsonable(self.target),
            "tolerance": _jsonable(self.tolerance),
            "note": self.note,
            "details": _jsonable(self.details),
        }


@dataclass
class VerificationReport:
    """Outcome of a verification suite run."""

    suite: str
    seed: int
    config: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    wall_time_s: float = 0.0  # markdown only; never serialized to JSON

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, record: CheckRecord) -> CheckRecord:
        self.checks.append(record)
        return record

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": int(self.seed),
            "config": _jsonable(self.config),
            "checks": [c.to_json() for c in self.checks],
            "overall_pass": self.overall_pass,
        }


def report_json_text(report: VerificationReport) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(report.to_json(), sort_keys=True, indent=2) + "\n"


def report_csv_text(report: VerificationReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for c in report.checks:
        w.writerow(
            [
                c.name,
                c.stage,
                "" if c.value is None else f"{float(c.value):.12g}",
                "" if c.target is None else f"{float(c.target):.12g}",
                "" if c.tolerance is None else f"{float(c.tolerance):.12g}",
                str(bool(c.passed)).lower(),
                c.note,
            ]
        )
    return buf.getvalue()


def report_markdown_text(report: VerificationReport) -> str:
    lines = [
        f"# Verification report: {report.suite}",
        "",
        f"- seed: {report.seed}",
        f"- checks: {len(report.checks)}",
        f"- wall time: {report.wall_time_s:.2f} s",
        f"- overall: {'PASS' if report.overall_pass else 'FAIL'}",
        "",
        "| check | stage | value | target | tol | result |",
        "|---|---|---|---|---|---|",
    ]
    for c in report.checks:
        fmt = lambda v: "" if v is None else f"{float(v):.6g}"
        lines.append(
            f"| {c.name} | {c.stage} | {fmt(c.value)} | {fmt(c.target)} "
            f"| {fmt(c.tolerance)} | {'pass' if c.passed else 'FAIL'} |"
        )
    if any(c.note for c in report.checks):
        lines += ["", "Notes:", ""]
        lines += [f"- {c.name}: {c.note}" for c in report.checks if c.note]
    return "\n".join(lines) + "\n"


def emit_report(report: VerificationReport, out_dir) -> dict:
    """Write report.json / tables.csv / report.md under out_dir.

    Returns {format: path} for the formats json, csv and markdown. JSON is
    byte-deterministic for identical suite outcomes.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create output directory {out}: {e}") from e
    renders = {
        "json": ("report.json", report_json_text),
        "csv": ("tables.csv", report_csv_text),
        "markdown": ("report.md", report_markdown_text),
    }
    paths = {}
    for f, (fname, render) in renders.items():
        p = out / fname
        try:
            p.write_text(render(report))
        except OSError as e:
            raise IoError(f"cannot write {p}: {e}") from e
        paths[f] = p
    return paths
