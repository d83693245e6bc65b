"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants, the speed of a core drifts by 1.4x
and more, in states that last from a fraction of a second to minutes. A
timing alone then measures the host as much as the program. While a
Calibrator is active, an interval timer interrupts the process every
PERIOD_S and runs a fixed pure-Python kernel, shaped like the fold-in loop
that dominates cosd's scoring, for BURST_S. The bursts sample the host's
speed during the timed work itself. A timed interval then counts

    scaled seconds = (seconds - bursts inside it) * rate / REFERENCE_RATE

where rate is the mean kernel speed of the bursts from WINDOW_S before the
interval to WINDOW_S after it: the seconds the interval would have taken
at the reference speed. The kernel does not touch cosd's data, so a change
to cosd moves scaled times as it moves raw ones.

The handler runs between Python bytecodes of the main thread, so a burst
lies wholly inside or wholly outside any interval timed around a call.
"""

from __future__ import annotations

import signal
import statistics
import time

# Kernel rounds per second in bursts on the reference machine, a 2-vCPU
# Xeon VM (median of 968 bursts over 13 runs). Scaled times read as
# seconds there.
REFERENCE_RATE = 1220.0
PERIOD_S = 0.5      # one burst per this many seconds of wall time
BURST_S = 0.02      # length of one burst
WINDOW_S = 1.0      # bursts this close to an interval scale it

_FACTORS = [[0.31, 0.22, 0.47], [0.12, 0.55, 0.33], [0.40, 0.40, 0.20],
            [0.25, 0.15, 0.60]] * 8
_UNIFORMS = [((7 * i) % 31) / 31.0 for i in range(len(_FACTORS))]


def _round() -> int:
    """One kernel round: collapsed-Gibbs-style sweeps over a short doc."""
    h = 3
    z = [i % h for i in range(len(_FACTORS))]
    local = [0.0] * h
    for k in z:
        local[k] += 1.0
    probs = [0.0] * h
    for _ in range(24):
        for j, fw in enumerate(_FACTORS):
            local[z[j]] -= 1.0
            total = 0.0
            for t in range(h):
                p = (local[t] + 0.1) * fw[t]
                probs[t] = p
                total += p
            u = _UNIFORMS[j] * total
            acc = 0.0
            for k in range(h):
                acc += probs[k]
                if u <= acc:
                    break
            z[j] = k
            local[k] += 1.0
    return z[0]


class Calibrator:
    """Samples the host's speed in bursts while it is active (a context
    manager), and scales intervals timed meanwhile."""

    def __init__(self):
        self.bursts: list[tuple[float, float, float]] = []  # start, s, rate
        self._previous = None

    def __enter__(self) -> Calibrator:
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _burst(self, signum, frame) -> None:
        start = time.perf_counter()
        rounds = 0
        while True:
            _round()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= BURST_S:
                break
        self.bursts.append((start, elapsed, rounds / elapsed))

    @property
    def rates(self) -> list[float]:
        return [rate for _, _, rate in self.bursts]

    def own(self, start: float, seconds: float) -> float:
        """The interval's seconds less the bursts that ran inside it."""
        end = start + seconds
        return seconds - sum(s for t, s, _ in self.bursts if start <= t <= end)

    def scaled(self, start: float, seconds: float) -> float:
        """The interval's own seconds at the reference speed."""
        end = start + seconds
        near = [rate for t, _, rate in self.bursts
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            raise RuntimeError(f"no burst within {WINDOW_S} s of the "
                               f"interval [{start}, {end}]")
        return (self.own(start, seconds) * statistics.fmean(near)
                / REFERENCE_RATE)
