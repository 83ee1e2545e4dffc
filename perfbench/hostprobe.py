"""Host-speed probe: times a fixed pure-Python loop at a steady low rate.

    python3 perfbench/hostprobe.py CPU

With CPU >= 0 the probe runs on that CPU only; with -1 on any.  Every
PERIOD_S it times LOOPS iterations (about 5 ms, so about 6% of one CPU) and
keeps [time.monotonic() at the start, seconds taken].  It prints "ready"
once it can be stopped; on SIGTERM it prints the samples as one JSON list
and exits.  run.py scales each pass's times by
the samples taken during it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

LOOPS = 45_000
PERIOD_S = 0.08

stopping = False


def stop(*_):
    global stopping
    stopping = True


def main(argv) -> int:
    signal.signal(signal.SIGTERM, stop)
    cpu = int(argv[0])
    if cpu >= 0:
        os.sched_setaffinity(0, {cpu})
    print("ready", flush=True)
    samples = []
    while not stopping:
        t0 = time.monotonic()
        acc = 0
        for i in range(LOOPS):
            acc += i * i % 7
        samples.append([t0, time.monotonic() - t0])
        time.sleep(PERIOD_S)
    sys.stdout.write(json.dumps(samples))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
