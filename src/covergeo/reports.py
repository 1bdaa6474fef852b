"""Deterministic command reports.

A report carries the echoed command, a digest of its canonical input, data
records and pass/fail checks.  Rendering is exact: a Fraction prints as
str gives it, "num" or "num/den".  The timestamp is chosen at render time;
without it the same input always renders to identical bytes.

Two renderings exist: "records" is line oriented and tab separated (one
record per line, first column the record kind), "table" is the reader
friendly variant of the same content.
"""

from __future__ import annotations

import hashlib


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if v is None:
        return "-"
    return str(v)


class Report:
    def __init__(self, command: str, input_key: str):
        self.command = command
        self.digest = hashlib.sha256(input_key.encode("utf-8")).hexdigest()[:16]
        self.rows: list[tuple[str, ...]] = []
        self.checks: list[tuple[str, bool, str]] = []

    def add(self, kind: str, *fields) -> None:
        self.rows.append((kind,) + tuple(fmt_value(f) for f in fields))

    def check(self, name: str, passed: bool, value="") -> None:
        self.checks.append((name, bool(passed), fmt_value(value)))

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    def render(self, fmt: str, timestamp: bool) -> str:
        """The report as text; with timestamp, a line stamps the render time."""
        stamp = None
        if timestamp:
            # imported here: a run without a timestamp never needs datetime
            from datetime import datetime, timezone

            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        if fmt == "records":
            return self._render_records(stamp)
        if fmt == "table":
            return self._render_table(stamp)
        raise ValueError(f"unknown report format {fmt!r}")

    def _render_records(self, stamp: str | None) -> str:
        meta = [("meta", "command", self.command), ("meta", "input", self.digest)]
        if stamp:
            meta.append(("meta", "timestamp", stamp))
        lines = ["\t".join(row) for row in meta]
        lines += ["\t".join(row) for row in self.rows]
        for name, ok, value in self.checks:
            lines.append("\t".join(("check", name, "PASS" if ok else "FAIL", value)))
        if self.checks:
            lines.append(
                "\t".join(
                    ("summary", "PASS" if self.all_passed else "FAIL",
                     f"{sum(ok for _, ok, _ in self.checks)}/{len(self.checks)}")
                )
            )
        return "\n".join(lines) + "\n"

    def _render_table(self, stamp: str | None) -> str:
        lines = [f"# {self.command}", f"# input {self.digest}"]
        if stamp:
            lines.append(f"# time {stamp}")
        if self.rows:
            widths: dict[int, int] = {}
            for row in self.rows:
                for i, cell in enumerate(row):
                    widths[i] = max(widths.get(i, 0), len(cell))
            for row in self.rows:
                lines.append(
                    "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
                )
        for name, ok, value in self.checks:
            status = "PASS" if ok else "FAIL"
            suffix = f"  {value}" if value else ""
            lines.append(f"check {name}: {status}{suffix}")
        if self.checks:
            lines.append(
                f"summary: {'PASS' if self.all_passed else 'FAIL'} "
                f"({sum(ok for _, ok, _ in self.checks)}/{len(self.checks)} checks)"
            )
        return "\n".join(lines) + "\n"
