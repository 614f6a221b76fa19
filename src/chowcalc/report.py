"""Check-result bookkeeping shared by the verification suites and the CLI."""

from __future__ import annotations

import json
import time

from .errors import ConsistencyError, bounded


class CheckResult:
    def __init__(self, name: str, anchor: str, status: str,
                 witness: str | None = None, millis: float = 0.0):
        self.name, self.anchor, self.witness, self.millis = name, anchor, witness, millis
        self.status = status  # "pass" | "fail"

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "millis": round(self.millis, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


class Report:
    def __init__(self):
        self.checks: list[CheckResult] = []

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def extend(self, other: "Report", prefix: str = ""):
        """Append the checks of ``other``, each name prefixed by ``prefix``."""
        self.checks.extend(
            CheckResult(prefix + c.name, c.anchor, c.status, c.witness, c.millis)
            for c in other.checks
        )

    def run(self, name: str, anchor: str, fn):
        """Run a check function, record it in ``checks``, return its value.

        Any exception it raises fails the check, and ``run`` returns None.
        A ConsistencyError keeps its witness; any other exception is recorded
        as ``"<Type>: <msg>"``, bounded like a witness, so a bug in one check
        cannot crash a suite.
        """
        start = time.perf_counter()
        value = witness = None
        try:
            value = fn()
        except ConsistencyError as exc:
            witness = exc.witness or str(exc)
        except Exception as exc:
            witness = bounded(f"{type(exc).__name__}: {exc}")
        status = "pass" if witness is None else "fail"
        millis = (time.perf_counter() - start) * 1000.0
        self.checks.append(CheckResult(name, anchor, status, witness, millis))
        return value

    def to_json(self, **extra) -> str:
        checks = sorted(self.checks, key=lambda c: c.name)
        out = {"ok": self.ok, "checks": [c.to_dict() for c in checks], **extra}
        return json.dumps(out, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = []
        for c in sorted(self.checks, key=lambda c: c.name):
            lines.append(f"{c.status.upper():4s} {c.name} ({c.millis:.1f} ms)")
            if c.witness:
                lines.append(f"     witness: {c.witness}")
        lines.append("all checks passed" if self.ok else "FAILURES present")
        return "\n".join(lines)
