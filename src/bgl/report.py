"""Structured verification reports.

The structured-text format is a flat key-value tree with a fixed field
order, UTF-8, floats rendered by repr (shortest round-trip), so a rerun
with the same seed produces byte-identical output and two reports diff
cleanly.  The table format is for humans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Record", "Report", "to_text", "to_table"]


@dataclass
class Record:
    """One verification record: a named check with its evidence fields.

    ``passed`` may be None for purely informational records.
    """

    name: str
    passed: bool | None
    fields: dict = field(default_factory=dict)


@dataclass
class Report:
    meta: dict
    records: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records if r.passed is not None)

    @property
    def counts(self) -> tuple[int, int, int]:
        done = [r.passed for r in self.records if r.passed is not None]
        return sum(done), len(done) - sum(done), len(self.records) - len(done)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + " ".join(_fmt(v) for v in value) + "]"
    return str(value)


def to_text(report: Report) -> str:
    lines = ["bgl.report.version = 1"]
    for key, value in report.meta.items():
        lines.append(f"meta.{key} = {_fmt(value)}")
    for i, rec in enumerate(report.records):
        prefix = f"record.{i:03d}"
        lines.append(f"{prefix}.name = {rec.name}")
        lines.append(f"{prefix}.pass = "
                     + ("n/a" if rec.passed is None else _fmt(rec.passed)))
        for key, value in rec.fields.items():
            lines.append(f"{prefix}.{key} = {_fmt(value)}")
    ok, bad, info = report.counts
    lines.append(f"summary.passed = {ok}")
    lines.append(f"summary.failed = {bad}")
    lines.append(f"summary.info = {info}")
    lines.append(f"summary.verdict = {'ok' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


def to_table(report: Report) -> str:
    rows = []
    for rec in report.records:
        status = "PASS" if rec.passed else ("info" if rec.passed is None else "FAIL")
        detail = ", ".join(f"{k}={_fmt(v)}" for k, v in rec.fields.items())
        rows.append((rec.name, status, detail))
    name_w = max((len(r[0]) for r in rows), default=4)
    lines = [f"{'check'.ljust(name_w)}  status  detail"]
    lines.append("-" * (name_w + 60))
    for name, status, detail in rows:
        lines.append(f"{name.ljust(name_w)}  {status:6s}  {detail}")
    ok, bad, info = report.counts
    lines.append("-" * (name_w + 60))
    lines.append(f"passed {ok}, failed {bad}, info {info}")
    return "\n".join(lines) + "\n"
