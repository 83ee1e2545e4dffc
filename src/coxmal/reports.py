"""Check results and experiment reports (JSON/CSV serialization)."""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field, asdict


@dataclass
class CheckResult:
    """Outcome of one numerical check.

    ``passed`` is None for informational results (a hypothesis of the
    statement does not hold, so nothing is asserted).  ``observed`` and
    ``bound`` carry the two sides of the comparison when there is one.
    """

    name: str
    target: str
    passed: bool | None
    observed: float | None = None
    bound: float | None = None
    tolerance: float | None = None
    note: str = ""
    detail: dict = field(default_factory=dict)

    def status(self) -> str:
        if self.passed is None:
            return "INFO"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        bits = [self.status(), self.name, self.target]
        if self.observed is not None:
            bits.append(f"observed={self.observed:.6g}")
        if self.bound is not None:
            bits.append(f"bound={self.bound:.6g}")
        if self.tolerance is not None:
            bits.append(f"tol={self.tolerance:.3g}")
        if self.note:
            bits.append(f"({self.note})")
        return " ".join(bits)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentReport:
    command: str
    settings: dict
    results: list = field(default_factory=list)
    started: float = field(default_factory=time.time)

    def add(self, result: CheckResult) -> CheckResult:
        self.results.append(result)
        return result

    @property
    def all_passed(self) -> bool:
        return all(r.passed is not False for r in self.results)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "settings": self.settings,
            "platform": platform.python_version(),
            "wall_seconds": round(time.time() - self.started, 3),
            "num_checks": len(self.results),
            "all_passed": self.all_passed,
            "results": [r.as_dict() for r in self.results],
        }

    def to_json(self, fh) -> None:
        """Write the report as JSON to the open text file fh."""
        json.dump(self.as_dict(), fh, indent=2, sort_keys=False, default=_scalarize)
        fh.write("\n")


def _scalarize(obj):
    """Collapse numpy scalars/arrays so reports stay plain JSON."""
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        return obj.item()
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)
