"""Smoke test of the benchmark itself, at tiny scale (about half a minute).

    python3 perfbench/smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit, on
every workload, traced and untraced, and that the output gate can fail: a
wrong check count, a shifted mean, a changed digest and a crashed pass each
raise fail_frac.  Finally runs the benchmark in a directory holding only
BENCHMARK.json and perfbench/, where it must exit non-zero without a result.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

SEED = 5


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def printed_metrics(workload: str, trace: bool, spec: dict):
    """Measure at tiny scale; check the printed table and JSON; return the passes."""
    plan, passes, setup_runs = run.measure(workload, SEED, 1, trace, scale="tiny")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        result = run.report(workload, SEED, "tiny", trace, plan, passes, setup_runs)
    lines = out.getvalue().splitlines()
    check(json.loads(lines[-1]) == json.loads(json.dumps(result)), "last line is not the result")
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{workload}: tiny run failed its checks: {lines}")
    names = spec["per_layer"] if trace else spec["end_to_end"]
    check(set(result["metrics"]) == {m["name"] for m in names},
          f"{workload}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    table = {line.split()[0]: line.split()[1:] for line in lines if line.startswith("  ")}
    for metric in names:
        name, unit = metric["name"], metric["unit"]
        check(result["metrics"][name]["unit"] == unit, f"{workload}: {name} has the wrong unit")
        check(table.get(name, [None, None])[1] == unit, f"{workload}: {name} not printed with {unit}")
    check(table["fail_frac"] == ["0", "fraction"], f"{workload}: fail_frac line {table.get('fail_frac')}")
    return plan, passes


def wrong_expectations_fail(plan: dict, passes: list) -> None:
    """Each deliberate error must raise failed above 0."""
    attempted, failed, _ = run.gate(plan, passes)
    check(failed == 0, "the gate fails correct passes")
    cases = {"wrong check count": (dict(plan, checks=plan["checks"] + 1), passes)}
    if plan["kind"] == "sample":
        shifted = copy.deepcopy(passes)
        cell = shifted[0]["outputs"]["cells"][0]
        cell["target"] = cell["mean"] + 6 * cell["se"]
        cases["shifted mean"] = (plan, shifted)
    else:
        failing = copy.deepcopy(passes)
        failing[0]["outputs"].update(exit_code=1, failed_checks=1)
        cases["a FAIL line"] = (plan, failing)
    changed = copy.deepcopy(passes) + copy.deepcopy(passes[:1])
    changed[-1]["outputs"]["digest"] = "0" * 16
    cases["changed digest"] = (plan, changed)
    crashed = copy.deepcopy(passes)
    crashed[0] = {"error": "Traceback ...\nRuntimeError: boom", "traced": False}
    cases["crashed pass"] = (plan, crashed)
    for label, (bad_plan, bad_passes) in cases.items():
        attempted, failed, reasons = run.gate(bad_plan, bad_passes)
        check(0 < failed <= attempted and reasons, f"{label} did not raise fail_frac")


def bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "clt-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    check(proc.returncode != 0, "the benchmark succeeded without the program")
    check('"correct"' not in proc.stdout, "the benchmark printed a result without the program")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        printed_metrics(workload, True, spec)
        wrong_expectations_fail(*printed_metrics(workload, False, spec))
        print(f"smoke: {workload} ok")
    bare_directory_fails()
    print("smoke: bare directory ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
