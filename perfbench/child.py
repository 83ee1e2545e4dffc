"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED SCALE TRACE SPAWNED

SPAWNED is the parent's time.monotonic() just before it started this
interpreter, so setup_s covers interpreter start-up plus `import coxmal.cli`,
which every CLI user pays.  WORKLOAD "setup" only imports.  The last line of
standard output is one JSON object: setup_s, wall_s (after import until the
workload returns), peak_rss_mb, versions, the workload's outputs for the
gate in run.py, and, with TRACE 1, the per-layer table.  wall_start is the
time.monotonic() at which wall_s starts, for the host-speed scaling in
run.py.  Exit code 3 means coxmal could not be imported from this checkout's
src/.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import resource
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _mean_length_b(n: int, q: float) -> float:
    """E[length] under Mallows on B_n: stage m adds c in 0..2m-1 with weight q^c."""
    total = 0.0
    for m in range(1, n + 1):
        weights = [q**c for c in range(2 * m)]
        total += sum(c * w for c, w in enumerate(weights)) / sum(weights)
    return total


def run_cli(plan: dict, seed: int) -> dict:
    from coxmal.cli import main

    out = io.StringIO()
    argv = plan["argv"] + ["--seed", str(seed), "--threads", str(plan["threads"])]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    lines = text.splitlines()
    summary = re.match(r"\S+: (\d+) checks", lines[-1]) if lines else None
    return {
        "exit_code": code,
        "checks": int(summary.group(1)) if summary else None,
        "failed_checks": sum(line.startswith("FAIL ") for line in lines),
        "digest": hashlib.sha256(text.encode()).hexdigest()[:16],
    }


def run_sample(plan: dict, seed: int) -> dict:
    from coxmal import MallowsSpec, mean_two_sided, sample_statistic

    digest = hashlib.sha256()
    cells = []
    for j, (group, q, statistic, draws) in enumerate(plan["cells"]):
        spec = MallowsSpec.make(group, q)
        xs = sample_statistic(spec, statistic, draws, 1000 * seed + j, plan["threads"])
        digest.update(xs.tobytes())
        if statistic == "t":
            target = mean_two_sided(spec.group, q)
        else:
            target = _mean_length_b(spec.group.rank, q)
        cells.append({
            "cell": f"{statistic} {spec}",
            "draws": int(len(xs)),
            "mean": float(xs.mean()),
            "se": float(xs.std(ddof=1)) / math.sqrt(len(xs)),
            "target": target,
        })
    return {"cells": cells, "digest": digest.hexdigest()[:16]}


RUNNERS = {"cli": run_cli, "sample": run_sample}


def emit(result: dict) -> None:
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()


def main(argv) -> int:
    workload, seed, scale, trace, spawned = argv
    seed, trace, spawned = int(seed), trace == "1", float(spawned)
    sys.path.insert(0, str(SRC))
    try:
        import coxmal.cli
    except Exception as exc:  # a checkout without a working src/coxmal
        emit({"setup_error": f"import coxmal.cli failed: {type(exc).__name__}: {exc}"})
        return 3
    setup_s = time.monotonic() - spawned
    if not Path(coxmal.cli.__file__).resolve().is_relative_to(SRC):
        emit({"setup_error": f"coxmal imported from {coxmal.cli.__file__}, not from {SRC}"})
        return 3
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if workload != "setup":
        plan = workloads.plan(workload, scale)
        spans = None
        if trace:
            spans = tracer.Tracer()
            tracer.install(spans)
        error = outputs = None
        wall_start = time.monotonic()
        t0 = time.perf_counter()
        try:
            outputs = RUNNERS[plan["kind"]](plan, seed)
        except Exception:  # counted as a failed pass by the gate in run.py
            error = traceback.format_exc()
        wall_s = time.perf_counter() - t0
        result.update(wall_s=wall_s, wall_start=wall_start, outputs=outputs, error=error)
        if spans is not None:
            result["layers"] = spans.layer_metrics(wall_s)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
