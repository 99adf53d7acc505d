"""Structured verification reports with exact expected/actual values."""

from __future__ import annotations

import json

from . import __version__
from .record import Record


class Check(Record):
    """One named comparison; status is derived from exact equality."""

    __slots__ = ("id", "description", "paper_ref", "expected", "actual", "status")

    def __init__(self, id: str, description: str, paper_ref: str, expected, actual):
        self.id, self.description, self.paper_ref = id, description, paper_ref
        self.expected, self.actual = expected, actual
        self.status = "pass" if expected == actual else "fail"

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "description": self.description,
            "paper_ref": self.paper_ref,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
        }


class VerificationReport(Record):
    __slots__ = ("scenario", "config", "checks", "timing_ms", "version")

    def __init__(self, scenario: str, config: dict, checks: list[Check], timing_ms: int = 0,
                 version: str = __version__):
        self.scenario, self.config, self.checks = scenario, config, checks
        self.timing_ms, self.version = timing_ms, version
        ids = [c.id for c in checks]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate check ids: {dupes}")

    def passed(self) -> bool:
        return bool(self.checks) and all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status != "pass"]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "checks": [c.to_dict() for c in self.checks],
            "timing_ms": self.timing_ms,
            "version": self.version,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)

    def to_table(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for key, value in self.config.items():
            lines.append(f"config.{key}: {value}")
        width = max((len(c.id) for c in self.checks), default=10)
        for c in self.checks:
            lines.append(
                f"{c.status.upper():<5} {c.id:<{width}}  "
                f"expected={_compact(c.expected)}  actual={_compact(c.actual)}"
            )
        n_fail = len(self.failures())
        lines.append(
            f"{len(self.checks)} checks, {len(self.checks) - n_fail} passed, "
            f"{n_fail} failed ({self.timing_ms} ms)"
        )
        return "\n".join(lines)


def _compact(value, limit: int = 120) -> str:
    text = json.dumps(value, default=str) if not isinstance(value, str) else value
    if len(text) > limit:
        return text[: limit - 3] + "..."
    return text


def merge_reports(reports: list[VerificationReport], config: dict) -> VerificationReport:
    """Concatenate suite reports into a single `all` report; ids stay unique
    because every suite prefixes its scenario id on each check.  Each
    suite's own config (its parameters, samples and truncation) is kept
    under config["suites"][scenario]."""
    checks: list[Check] = []
    for rep in reports:
        checks.extend(rep.checks)
    total_ms = sum(r.timing_ms for r in reports)
    suites = {rep.scenario: rep.config for rep in reports}
    merged = VerificationReport("all", {**config, "suites": suites}, checks)
    merged.timing_ms = total_ms
    return merged
