"""coxmal benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
verify-grid (`coxmal verify`, default grid), clt-suite (`coxmal clt
--samples 100000`) and sample-rank200 (library sample_statistic at rank 200).

Load model: a closed loop with one caller.  Each pass runs in a fresh child
interpreter (child.py), because a CLI user pays the import and the cache
set-up on every run; the next pass starts after the previous one ends.  Passes
repeat while the next one fits in S seconds, and at least MIN_PASSES run.
Then, untraced, set-up-only children run until there are SETUP_SAMPLES set-up
times or the S seconds are used up, but at least MIN_SETUP_SAMPLES.

Host speed: the shared host this benchmark was defined on changes the speed
of each of its CPUs, independently and by up to half, from one second to the
next, so raw pass times of one commit spread past any useful bound between
runs.  A probe process (hostprobe.py) times a fixed pure-Python loop of about
5 ms every 80 ms for the whole run.  A one-thread workload's children and the
probe are pinned to one CPU, so the probe samples the CPU the pass runs on;
the two-thread workload and the probe float over all CPUs.  Each pass's wall
time and set-up time are scaled by PROBE_NOMINAL_S over the mean probe sample
taken during that interval: wall_s and setup_s are seconds at the nominal
probe speed.  The probe runs no coxmal code, so a change to coxmal moves them
in full.  Raw times and scale factors go into the provenance line.

--trace 0 prints the end-to-end metrics: medians over the passes, except
peak_rss_mb, the highest over the passes.  --trace 1 alternates untraced and
traced passes and prints the per-layer metrics (medians over the traced
passes, raw times) plus trace.overhead_s, the traced minus the untraced
median scaled wall time.  Every pass goes through gate(); failed checks
count into fail_frac = failed / attempted, and the last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
If coxmal cannot be imported from this checkout's src/, the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
PROBE = HERE / "hostprobe.py"

END_TO_END_UNITS = {
    "wall_s": "s",
    "checks_per_s": "1/s",
    "draws_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {**tracer.LAYER_UNITS, "trace.overhead_s": "s"}
MIN_PASSES = 2  # a median needs two; --trace 1 needs an untraced and a traced one
SETUP_SAMPLES = 5  # set-up times wanted per run, as far as the S seconds allow
MIN_SETUP_SAMPLES = 3  # taken even when the passes used up the S seconds
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever S is
MEAN_SE_LIMIT = 5.0  # sample-rank200: |mean - exact mean| <= 5 standard errors
# Mean hostprobe.py sample on the 2-vCPU Xeon VM (2.1 GHz, Python 3.11.7)
# this benchmark was defined on; it only sets the scale of the scaled times.
PROBE_NOMINAL_S = 0.005
PROBE_STOP_S = 10.0  # how long the probe may take to print its samples


class SetupError(RuntimeError):
    """coxmal could not be imported from this checkout."""


class HostProbe:
    """hostprobe.py running beside the passes; .samples once the block ends.

    With cpu set, the probe runs on that CPU only, the one the pass children
    are pinned to.  The probe is stopped and waited for on every way out.
    """

    def __init__(self, cpu: int | None):
        self.cpu = cpu
        self.samples = []

    def __enter__(self):
        argv = [sys.executable, str(PROBE), "-1" if self.cpu is None else str(self.cpu)]
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("the host-speed probe did not start")
        return self

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=PROBE_STOP_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.samples = json.loads(out) if out.strip() else []
        if exc[0] is None and not self.samples:
            raise RuntimeError("the host-speed probe returned no samples")
        return False


def speed_scale(samples: list, begin: float, end: float) -> float:
    """PROBE_NOMINAL_S over the mean probe sample that started in [begin, end].

    The mean drops the highest and lowest tenth (a sample the scheduler cut
    into, a timer tick).  An interval shorter than the probe period takes the
    nearest sample.
    """
    inside = sorted(d for t, d in samples if begin <= t <= end)
    if not inside:
        middle = (begin + end) / 2
        inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
    cut = len(inside) // 10
    return PROBE_NOMINAL_S / statistics.fmean(inside[cut:len(inside) - cut])


def add_scaled_times(runs: list, samples: list) -> None:
    """scaled_wall_s and scaled_setup_s: the times at the probe's nominal speed."""
    for r in runs:
        if "setup_s" in r:
            r["setup_scale"] = speed_scale(samples, r["spawned"], r["spawned"] + r["setup_s"])
            r["scaled_setup_s"] = r["setup_s"] * r["setup_scale"]
        if "wall_s" in r:
            r["wall_scale"] = speed_scale(samples, r["wall_start"], r["wall_start"] + r["wall_s"])
            r["scaled_wall_s"] = r["wall_s"] * r["wall_scale"]


def run_child(workload: str, seed: int, scale: str, traced: bool, threads: int, timeout: float,
              cpu: int | None = None) -> dict:
    """One pass in a fresh interpreter, pinned to cpu when it is set."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    spawned = time.monotonic()
    argv = [sys.executable, str(CHILD), workload, str(seed), scale, "1" if traced else "0", repr(spawned)]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT, env=env,
                              preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {timeout:.0f} s", "duration_s": time.monotonic() - spawned}
    duration_s = time.monotonic() - spawned
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"child exited {proc.returncode} without a result: {proc.stderr[-2000:]}"}
    if "setup_error" in result:
        raise SetupError(result["setup_error"])
    if proc.returncode != 0 and not result.get("error"):
        result["error"] = f"child exited {proc.returncode}: {proc.stderr[-2000:]}"
    result["spawned"] = spawned
    result["duration_s"] = duration_s
    return result


def pass_cpu(plan: dict) -> int | None:
    """The CPU a one-thread workload's passes and the probe share, else None."""
    if plan["threads"] != 1 or not hasattr(os, "sched_setaffinity"):
        return None
    return min(os.sched_getaffinity(0))


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full"):
    """Run passes for `seconds`; returns (plan, passes, setup-only runs).

    The set-up-only runs and the untraced passes give the set-up samples.
    """
    plan = workloads.plan(workload, scale)
    cpu = pass_cpu(plan)
    start = time.monotonic()
    passes, setup_runs = [], []
    with HostProbe(cpu) as probe:
        while True:
            traced = trace and len(passes) % 2 == 1
            timeout = RUN_LIMIT_S - (time.monotonic() - start)
            result = run_child(workload, seed, scale, traced, plan["threads"], timeout, cpu)
            result["traced"] = traced
            passes.append(result)
            now = time.monotonic()
            longest = max(p["duration_s"] for p in passes)
            if now + longest > start + RUN_LIMIT_S or "timed out" in (result.get("error") or ""):
                break
            if len(passes) >= MIN_PASSES and now + longest > start + seconds:
                break
        samples = sum("setup_s" in p for p in passes if not p["traced"])
        setup_run_s = max([p["duration_s"] - p["wall_s"] for p in passes if "wall_s" in p], default=0.0)
        while not trace and samples < SETUP_SAMPLES:
            now = time.monotonic()
            if now + setup_run_s > start + (RUN_LIMIT_S if samples < MIN_SETUP_SAMPLES else seconds):
                break
            setup_run = run_child("setup", seed, scale, False, plan["threads"], start + RUN_LIMIT_S - now, cpu)
            if "setup_s" not in setup_run:
                break
            setup_runs.append(setup_run)
            samples += 1
            setup_run_s = max(setup_run_s, setup_run["duration_s"])
    add_scaled_times(passes + setup_runs, probe.samples)
    return plan, passes, setup_runs


def _pass_failures(plan: dict, result: dict) -> tuple[int, str]:
    """(failed checks, reason) for one pass; an errored pass fails all its checks."""
    expected = plan["checks"]
    out = result.get("outputs")
    if result.get("error") or out is None:
        return expected, (result.get("error") or "no outputs").strip().splitlines()[-1]
    if plan["kind"] == "cli":
        if out["checks"] != expected:
            return expected, f"reported {out['checks']} checks, expected {expected}"
        if out["exit_code"] not in (0, 1):
            return expected, f"exit code {out['exit_code']}"
        failed = max(out["failed_checks"], int(out["exit_code"] != 0))
        return failed, f"{failed} check(s) FAIL, exit code {out['exit_code']}" if failed else ""
    cells = out["cells"]
    if len(cells) != expected:
        return expected, f"returned {len(cells)} cells, expected {expected}"
    bad = [
        f"{c['cell']}: mean {c['mean']:.6g} vs exact {c['target']:.6g} (se {c['se']:.3g})"
        for c in cells
        if not abs(c["mean"] - c["target"]) <= MEAN_SE_LIMIT * c["se"]
    ]
    return len(bad), "; ".join(bad)


def gate(plan: dict, passes: list) -> tuple[int, int, list]:
    """(attempted, failed, reasons) over all passes.

    Each pass must report the expected checks and pass them, and every
    completed pass on one seed must produce the same output digest.
    """
    attempted = failed = 0
    reasons = []
    digest = None
    for i, result in enumerate(passes):
        attempted += plan["checks"]
        bad, reason = _pass_failures(plan, result)
        out = result.get("outputs")
        if out is not None and not result.get("error"):
            digest = digest or out["digest"]
            if out["digest"] != digest:
                bad, reason = plan["checks"], f"output digest {out['digest']} differs from {digest}"
        failed += bad
        if reason:
            reasons.append(f"pass {i}: {reason}")
    return attempted, failed, reasons


def setup_samples(passes: list, setup_runs: list) -> list:
    """Scaled set-up times of the untraced passes and the set-up-only runs."""
    return [p["scaled_setup_s"] for p in passes + setup_runs
            if not p.get("traced") and "scaled_setup_s" in p]


def end_to_end_metrics(plan: dict, passes: list, setup_runs: list) -> dict:
    untraced = [p for p in passes if not p["traced"] and "wall_s" in p]
    wall = statistics.median(p["scaled_wall_s"] for p in untraced)
    return {
        "wall_s": wall,
        "checks_per_s": plan["checks"] / wall,
        "draws_per_s": plan["draws"] / wall,
        "setup_s": statistics.median(setup_samples(passes, setup_runs)),
        # a pass's peak depends on how its sampler threads overlap; the user
        # needs the highest one
        "peak_rss_mb": max(p["peak_rss_mb"] for p in untraced),
    }


def layer_metrics(passes: list) -> dict:
    traced = [p for p in passes if p["traced"] and "layers" in p]
    out = {m: statistics.median(p["layers"][m] for p in traced) for m in tracer.LAYER_UNITS}
    traced_wall = statistics.median(p["scaled_wall_s"] for p in traced)
    untraced_wall = statistics.median(p["scaled_wall_s"] for p in passes if not p["traced"] and "wall_s" in p)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def git_describe() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None if proc.returncode == 0 else None


def provenance(workload, seed, scale, trace, plan, passes, setup_runs) -> dict:
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    digests = sorted({p["outputs"]["digest"] for p in passes if p.get("outputs")})
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "commit": git_describe(),
        "nproc": os.cpu_count(),
        **versions,
        "threads": plan["threads"],
        "draws_per_pass": plan["draws"],
        "checks_per_pass": plan["checks"],
        "cells": plan.get("cells"),
        "passes": len(passes),
        "traced_passes": sum(p["traced"] for p in passes),
        "pass_cpu": pass_cpu(plan),
        "probe_nominal_s": PROBE_NOMINAL_S,
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes if "wall_s" in p],
        "pass_wall_scale": [round(p["wall_scale"], 4) for p in passes if "wall_s" in p],
        "setup_s": [round(p["setup_s"], 4) for p in passes + setup_runs if "setup_s" in p],
        "setup_scale": [round(p["setup_scale"], 4) for p in passes + setup_runs if "setup_s" in p],
        "scaled_setup_s": [round(s, 4) for s in setup_samples(passes, setup_runs)],
        "output_digest": digests,
    }


def report(workload, seed, scale, trace, plan, passes, setup_runs) -> dict:
    attempted, failed, reasons = gate(plan, passes)
    if trace:
        metrics, units = layer_metrics(passes), LAYER_UNITS
    else:
        metrics, units = end_to_end_metrics(plan, passes, setup_runs), END_TO_END_UNITS
    for reason in reasons:
        print(f"FAIL {workload} {reason}")
    print(f"{workload}: {len(passes)} passes, {failed} of {attempted} checks failed")
    for name, value in metrics.items():
        print(f"  {name:<50} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':<50} {failed / attempted:>14.6g} fraction")
    print("provenance " + json.dumps(provenance(workload, seed, scale, trace, plan, passes, setup_runs)))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, "full", bool(args.trace), *measured)
    return 0


if __name__ == "__main__":
    sys.exit(main())
