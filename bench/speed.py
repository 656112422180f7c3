"""Host speed, sampled in a separate interpreter while the benchmark measures.

The benchmark runs on shared cores whose speed drifts: on a 2-vCPU Linux VM
(Python 3.11) the same pass on the same seed took from 8.4 to 12.1 s, and the
drift lasts tens of seconds, so no amount of work inside one run averages it
out.  Every time the benchmark reports is therefore scaled to a fixed
reference speed: measured seconds times ``REFERENCE_S`` over the median time
of a fixed loop, sampled throughout the measurement by this script in a
process of its own, on the core the single-threaded benchmark leaves free.
Nothing runs inside the process under test, so its threads, hooks and spans
cannot touch the samples, and the samples cannot land in its spans.

The loop is arithmetic on a few small integers, so what the benchmarked code
does to the shared caches does not change it; only the host does.  It takes
about 2 ms and runs every 0.1 s, 2% of the other core.

    python3 bench/speed.py

samples until a line (or end of file) arrives on standard input, then prints
the loop times, one per line.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time

LOOP = 20_000
REFERENCE_S = 0.002     # the loop's time at the reference speed
INTERVAL_S = 0.1


def loop_time():
    """Seconds for a fixed pure-Python loop; proportional to host slowness."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return time.perf_counter() - start


class SpeedSampler:
    """The sampler process, for the duration of a ``with`` block."""

    def __enter__(self):
        self.samples: list[float] = []
        self.process = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        out, _ = self.process.communicate("stop\n", timeout=30)
        self.samples = [float(line) for line in out.split()]

    def factor(self):
        """Reference seconds per measured second over the samples taken."""
        return REFERENCE_S / statistics.median(self.samples)


def main():
    samples = [loop_time()]
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        samples.append(loop_time())
    print("\n".join(repr(s) for s in samples))


if __name__ == "__main__":
    main()
