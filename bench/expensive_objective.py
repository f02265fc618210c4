"""External objective for the expensive-cli workload.

Speaks the rbfcors line protocol: reads one point per line on stdin and
answers with one float per line.  Each call sleeps a fixed latency to stand
for an expensive simulation, then evaluates objectives.tilt.

With --log-dir, the process appends one "start end" line per call to
<log-dir>/calls-<pid>.txt, both taken from time.monotonic(), which is the
system-wide monotonic clock, so the benchmark can line them up with its own
timestamps.

Usage: python3 expensive_objective.py --latency 0.025 [--log-dir DIR]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from objectives import tilt


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--latency", type=float, required=True)
    parser.add_argument("--log-dir", default=None)
    args = parser.parse_args()
    calls = []
    for line in sys.stdin:
        start = time.monotonic()
        time.sleep(args.latency)
        value = tilt([float(v) for v in line.split()])
        calls.append((start, time.monotonic()))
        print(repr(value), flush=True)
    if args.log_dir is not None:
        path = os.path.join(args.log_dir, f"calls-{os.getpid()}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(f"{start!r} {end!r}\n" for start, end in calls)
    return 0


if __name__ == "__main__":
    sys.exit(main())
