"""Host-speed probe of the crawl benchmark (see ``bench_workloads.Clock``).

Run as a program it probes the CPU a server runs on: pinned to the CPUs
given, it times :func:`probe` every :data:`INTERVAL_S` seconds and appends
one ``start duration`` line per probe to a file (``time.perf_counter``
seconds, a clock the processes of a host share) until it is terminated::

    python3 crawlbench/host_probe.py PATH CPU[,CPU...]
"""

from __future__ import annotations

import os
import sys
import time

INTERVAL_S = 0.1


def probe() -> int:
    """A fixed stretch of interpreted arithmetic on a handful of objects."""
    x = 0
    for i in range(10_000):
        x = (x * 31 + i) % 1_000_003
    return x


def main(path: str, cpus: set[int]) -> None:
    os.sched_setaffinity(0, cpus)
    with open(path, "a", encoding="ascii") as sink:
        while True:
            time.sleep(INTERVAL_S)
            start = time.perf_counter()
            probe()
            sink.write(f"{start} {time.perf_counter() - start}\n")
            sink.flush()


if __name__ == "__main__":
    main(sys.argv[1], {int(cpu) for cpu in sys.argv[2].split(",")})
