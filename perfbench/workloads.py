"""Workload plans shared by run.py and the pass child (child.py).

Each plan says what one pass runs, how many checks it must report, how many
draws of the statistic it returns, and with how many threads.  The "tiny"
scale runs the same code paths in a second or so; only the smoke test uses it.
"""

from __future__ import annotations

import os

# coxmal.mallows.SAMPLE_CHUNK: sample_windows hands out chunks of this many
# rows, so a cell needs THREADS chunks for every thread to get one.
SAMPLE_CHUNK = 16384
# The machine this benchmark was defined on has two cores.  Capping the
# threads (and fixing the draws) keeps the work and memory of a pass the
# same on a wider machine.
THREADS = min(os.cpu_count() or 1, 2)
T_DRAWS = 2 * SAMPLE_CHUNK

# sample-rank200 cells: (group, q, statistic, draws at full scale)
RANK200_CELLS = (
    ("A200", 0.5, "t", T_DRAWS),  # type-A geometric fast path
    ("A200", 2.0, "t", T_DRAWS),  # generic tower, q > 1 weights
    ("B200", 2.0, "t", T_DRAWS),  # generic tower, signed stages
    ("D200", 0.5, "t", T_DRAWS),  # tower with the D negation rule
    ("B200", 1.0, "t", T_DRAWS),  # uniform path: the decode-bypass control
    # O(n^2) windows_lengths, about 1.8 s per 1e4 rows: fewer draws
    ("B200", 0.5, "length", 4096),
)
TINY_T_DRAWS, TINY_LENGTH_DRAWS = 512, 128

GOF_DRAWS = 20_000  # coxmal.cli.cmd_verify draws per goodness-of-fit cell


def plan(workload: str, scale: str = "full") -> dict:
    """What one pass of the workload runs, at "full" or "tiny" scale."""
    tiny = scale == "tiny"
    if scale not in ("full", "tiny"):
        raise ValueError(f"unknown scale {scale!r}")
    if workload == "verify-grid":
        if tiny:
            # B3 and I2(4) are goodness-of-fit groups: 4 sampler cells
            return {"kind": "cli", "threads": 1, "checks": 70, "draws": 4 * GOF_DRAWS,
                    "argv": ["verify", "--group", "A2,B3,I2(4)", "--q", "0.5,1"]}
        # default grid: 12 groups x 5 q; 20 goodness-of-fit cells
        return {"kind": "cli", "threads": 1, "checks": 706, "draws": 20 * GOF_DRAWS,
                "argv": ["verify"]}
    if workload == "clt-suite":
        samples = 2000 if tiny else 100_000
        # default suite: B200 bound, product vs single (two samples), I2(5)^2
        return {"kind": "cli", "threads": 1, "checks": 3, "draws": 4 * samples,
                "argv": ["clt", "--samples", str(samples)]}
    if workload == "sample-rank200":
        cells = [
            (g, q, stat, (TINY_T_DRAWS if stat == "t" else TINY_LENGTH_DRAWS) if tiny else n)
            for g, q, stat, n in RANK200_CELLS
        ]
        return {"kind": "sample", "threads": THREADS, "checks": len(cells),
                "draws": sum(c[3] for c in cells), "cells": cells}
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-grid", "clt-suite", "sample-rank200")
