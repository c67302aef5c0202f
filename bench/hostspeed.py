"""Host speed, measured by a fixed kernel that uses nothing of the package.

On a shared virtual machine the speed of the host changes by up to a
factor of two over minutes, as other tenants come and go, and a run of
the benchmark cannot average that away. Timing this kernel between the
passes of a run measures the host's speed around them; a pass's times are
scaled by REFERENCE_S / (the kernel time around it), so that they read in
seconds of the reference host.

The kernel does the kind of work the package does, at the scale of a
large run: it builds a live set of about 120,000 small slotted objects,
some queued in a list and some parked in a dict under tuple keys, with
the garbage collector on, looks them up in a scattered order and drains
the queue. A kernel that fits in the processor's caches tracks the clock
speed but not the memory contention that slows the engine's loop and its
collections, and scaled the large runs' times wrongly. The kernel runs in
a child process of its own, started by Probe, so that its memory does not
count in the benchmark's peak RSS and nothing the package does to its own
process changes the kernel's time:

    with Probe() as probe:
        seconds = probe.sample()
"""

from __future__ import annotations

import subprocess
import sys
import time

# About the median kernel time on the reference host: 2 vCPUs at 2.0 GHz
# in a shared virtual machine, Linux, CPython 3.11.7.
REFERENCE_S = 0.4
LIVE = 120_000


class _Node:
    __slots__ = ("key", "slot", "operands")

    def __init__(self, key, slot, operands) -> None:
        self.key = key
        self.slot = slot
        self.operands = operands


def _kernel() -> int:
    queue = []
    parked = {}
    for i in range(LIVE):
        node = _Node(i, (i >> 6, i & 63), [i])
        if i % 3:
            queue.append(node)
        else:
            parked[node.slot] = node
    total = 0
    r = 12345
    for _ in range(LIVE):
        r = (r * 1103515245 + 12345) & 0x7FFFFFFF
        k = r % LIVE
        node = parked.get((k >> 6, k & 63))
        if node is not None:
            total += node.key
    while queue:
        total += queue.pop().key
    return total


class Probe:
    """A child process that times the kernel once per sample() call."""

    def __enter__(self) -> "Probe":
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        return self

    def sample(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host speed probe ended")
        return float(line)

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def serve() -> None:
    """Time the kernel once for each line read, and print the seconds it took."""
    first = None
    for _ in sys.stdin:
        start = time.perf_counter()
        total = _kernel()
        elapsed = time.perf_counter() - start
        first = total if first is None else first
        if total != first:
            raise RuntimeError("host speed kernel gave a different result")
        print(repr(elapsed), flush=True)


if __name__ == "__main__":
    serve()
