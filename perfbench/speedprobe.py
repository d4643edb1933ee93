"""Speed probe: fixed Python work timed every 50 ms of CPU time during a request.

The host this benchmark was defined on is a shared VM whose cores change
speed by up to a factor of two, for seconds or minutes at a time, as other
guests load them.  CPU time leaves out the time the hypervisor takes the
vCPU away, but not that slowdown.  The probe samples the speed of the core
a request runs on while it runs: a SIGPROF timer interrupts the request
every PROBE_INTERVAL seconds of process CPU time, and the handler times a
fixed loop of Python bytecode.  A request's CPU time multiplied by
REFERENCE_S over the median probe time during the request is its CPU time
at the speed the host had when REFERENCE_S was recorded.  The probe runs
only standard-library Python, so no change to the package moves it.

Run as a script, it prints ``[CPU seconds, wall seconds, probe samples]``
of ``import laguerre.cli`` as JSON.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL = 0.05   # seconds of process CPU time between probes
PROBE_LOOPS = 6000      # about 0.5 ms of work on the defining host
# Median probe time on the defining host (2-vCPU VM, Intel Xeon, Python 3.11).
REFERENCE_S = 5.5e-4
MIN_SAMPLES = 5         # fewer probes in a request: use the run's median


def probe_work() -> float:
    t = time.perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i
    return time.perf_counter() - t


class SpeedProbe:
    """Context manager that samples the probe while its block runs."""

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(probe_work())

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def take(self) -> list:
        """The samples so far, which are then cleared."""
        samples, self.samples = self.samples, []
        return samples


def scaled(cpu: float, samples: list, fallback: list) -> float:
    """CPU seconds at the reference speed.  ``cpu`` includes the probes
    themselves, which are taken out; with fewer than MIN_SAMPLES probes,
    the speed comes from ``fallback`` (all probes of the run)."""
    speed = samples if len(samples) >= MIN_SAMPLES else fallback
    return (cpu - sum(samples)) * REFERENCE_S / statistics.median(speed)


if __name__ == "__main__":
    import json

    with SpeedProbe() as probe:
        w, c = time.perf_counter(), time.process_time()
        import laguerre.cli  # noqa: F401
        cpu, wall = time.process_time() - c, time.perf_counter() - w
    print(json.dumps([cpu, wall, probe.take()]))
