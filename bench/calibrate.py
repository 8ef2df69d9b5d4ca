"""Machine-speed calibration: a fixed probe timed around and during every operation.

On a shared host the same code runs up to 2x faster or slower, and the
speed switches every few seconds, which repetition inside one run does not
average out. The benchmark therefore times a small probe, its own code
that does not change with the program, on the same CPU: a burst of
EDGE_PROBES runs right before and right after every operation and every
set-up probe, and one run every PERIOD_S during an operation, from a
SIGALRM timer. An operation's slowness is its mean probe time over
NOMINAL_S; its time is reported divided by that slowness, that is, in
seconds at the speed where the probe takes NOMINAL_S. The probes that ran
inside an operation (about 1% of it) are subtracted from its time; in a
traced run they stay inside the layer that was running.

Sampling inside the operation matters for the long ones: a 5 s grid case
often spans a change of speed that probes at its edges alone miss (over 12
grid calls on the host below, the spread left after dividing fell from
0.15 with edge probes to 0.04 with probes inside). The raw times and the
slowness are kept in the results file.

The probe mixes what the workloads do: scalar complex-math calls (as in
the residual loop of the root finder) and 12-digit float formatting.
"""

import cmath
import signal
import statistics
import time

# a typical probe time on an Intel Xeon VM (2 vCPUs, Python 3.11.7);
# only the scale of the reported times depends on it
NOMINAL_S = 5e-4
PERIOD_S = 0.05
EDGE_PROBES = 16
# Set-up (exec, imports, page faults) follows the host's speed only about
# half as much as the probe does: over 70 fresh processes on the host above,
# set-up times divided by slowness ** 0.5 spread least (log sd 0.10, against
# 0.15 raw and 0.14 divided by slowness itself).
SETUP_EXPONENT = 0.5


def probe() -> float:
    s = 0.0
    for i in range(1, 301):
        z = cmath.sqrt(complex(0.004 * i, 0.0))
        s += (cmath.tanh(z) / z * cmath.tan(z)).real
    return s + len(",".join(format(0.001 * i * 1.0001, ".12g") for i in range(300)))


class Sampler:
    """Probe times of one operation; ``inside_s`` is what ran inside it."""

    def __init__(self):
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _timed_probe(self) -> float:
        t0 = time.perf_counter()
        probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def _on_alarm(self, signum, frame):
        self.inside_s += self._timed_probe()

    def edge(self) -> None:
        for _ in range(EDGE_PROBES):
            self._timed_probe()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def slowness(self) -> float:
        return statistics.fmean(self.samples) / NOMINAL_S
