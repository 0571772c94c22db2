"""The host's CPU speed during each measured interval, from a probe process.

On a shared virtual machine the speed of a virtual CPU changes under the
benchmark, from second to second and by up to three times over tens of
minutes, and process CPU time changes with it. A probe process runs a fixed
kernel at the lowest scheduling priority, pinned to the benchmark's own CPU,
so that it gets about 1.5% of that CPU in many short slices spread over every
interval. It logs the CPU time of each pass of the kernel. A wall time
measured over an interval is scaled by NOMINAL_PASS_S over the median pass
time in that interval, which gives seconds at a fixed reference speed.

Run as a script, this file is the probe: `python3 hostspeed.py CPU`.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# CPU seconds of one kernel pass at the reference speed
NOMINAL_PASS_S = 2.5e-4
MIN_SAMPLES = 5


def _pin(cpus) -> None:
    """Run this process on `cpus` only. Where that is refused, the probe
    still samples the host, only less closely."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


def _probe(cpu: int) -> None:
    _pin({cpu})
    os.nice(19)
    out = sys.stdout
    parent = os.getppid()
    while os.getppid() == parent:  # a killed benchmark leaves no probe behind
        start_cpu, start = time.thread_time(), time.perf_counter()
        # The kernel is a plain interpreter loop. Beside the three workloads
        # in a slow host period, its pass times tracked their round times
        # better than a loop of small numpy dot products or of numpy sums:
        # scaled round times varied by 3.7 to 5.1% rather than 5.8 to 7.3%.
        acc = 0
        for i in range(6000):
            acc += (i * 7) % 13
        out.write(f"{start!r} {time.thread_time() - start_cpu!r}\n")
        out.flush()


class HostSpeed:
    """Start the probe on entry, stop it on exit; then `scale` intervals."""

    def __init__(self, log_path: Path):
        self.log_path = log_path
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        cpu = min(self._affinity)
        _pin({cpu})
        self._log = open(self.log_path, "w", encoding="utf-8")
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(cpu)], stdout=self._log
        )
        deadline = time.monotonic() + 30
        while self.log_path.stat().st_size == 0:
            if self._proc.poll() is not None or time.monotonic() > deadline:
                self._stop()
                raise RuntimeError("host speed probe did not start")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc) -> None:
        self._stop()
        _pin(self._affinity)
        with open(self.log_path, encoding="utf-8") as fh:
            rows = [line.split() for line in fh]
        self.samples = [(float(r[0]), float(r[1])) for r in rows if len(r) == 2]

    def _stop(self) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._log.close()

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_PASS_S over the median pass time of the probe passes that
        began in [start, end), widened to the nearest MIN_SAMPLES passes."""
        inside = [c for t, c in self.samples if start <= t < end]
        if len(inside) < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
            inside = [c for _, c in nearest]
        return NOMINAL_PASS_S / statistics.median(inside)


if __name__ == "__main__":
    _probe(int(sys.argv[1]))
