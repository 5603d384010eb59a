"""Host-speed probe, sampled while the benchmark's commands run.

The benchmark runs on a few cores of a shared host.  Measured on a 2-core
Intel Xeon VM, the host switches every few seconds between a fast and a
slow state, 1.5 to 2 times apart, and can stay in one state for minutes; a
10-second command's wall time moves with it by up to 40% from one run to
the next.  A fixed probe, timed every ``INTERVAL_S`` while a command runs
(from a ``SIGALRM`` handler, so on the same thread and core as the
command), shows the state the command ran in.  The probe does interpreted
``Fraction`` and dict work (as term sets and exact targets do), small FFTs
and element-wise numpy (as synthesis and moments do), a pass over an array
larger than the private caches, and first touches of freshly mapped pages
(as every new large array takes), in fixed amounts on fixed inputs.  It
never imports ``srm3``, so a program change cannot change what it does.

The host speed over a window is the mean over its samples of
``NOMINAL_S / probe seconds``.  A time multiplied by it is the time the
work would have taken on a host that runs the probe in ``NOMINAL_S``
seconds.  On the VM above, an earlier probe without the memory work took
the spread of repeated commands from 17% to 4% of their mean (a ``verify``
set-up) and from 13% to 8% (a second-order record); the memory work was
added after a ``wind-ensemble`` run slowed by 20% while that probe showed
5%.
"""

from __future__ import annotations

import mmap
import signal
import time
from fractions import Fraction

import numpy as np

#: Probe time that counts as speed 1.0.  It only sets the scale of the
#: reported times: inside commands, with cold caches, the probe takes about
#: twice as long on the VM above, so scaled times are about 0.6 of raw ones.
NOMINAL_S = 1.2e-3
#: Seconds between probe samples while a command runs; the probe takes about
#: 3% of that.
INTERVAL_S = 0.05

_RECORD = np.random.default_rng(0x5EED).standard_normal(512)
_PHASE = np.linspace(0.0, 50.0, 4096)
_OUT = np.empty_like(_PHASE)
_STREAM = np.ones(1 << 18)  # 2 MB, past the private caches
_STREAM_OUT = np.empty_like(_STREAM)
_FRESH_BYTES = 1 << 18


def probe() -> int:
    """A fixed amount of interpreted, FFT, element-wise and memory work."""
    groups: dict[Fraction, int] = {}
    for i in range(1, 120):
        f = Fraction(i, 7)
        groups[f] = groups.get(f, 0) + i
    for _ in range(4):
        np.fft.rfft(_RECORD)
    np.cos(_PHASE, out=_OUT)
    np.multiply(_STREAM, 1.5, out=_STREAM_OUT)
    with mmap.mmap(-1, _FRESH_BYTES) as fresh:  # 64 page faults
        np.frombuffer(fresh, dtype=np.uint8)[:: mmap.PAGESIZE] = 1
    return len(groups)


class HostSpeed:
    """Samples of the probe taken before, during and after a ``with`` block.

    Each sample is ``(wall-clock time.time(), probe seconds)``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        at = time.time()
        start = time.perf_counter()
        probe()
        self.samples.append((at, time.perf_counter() - start))

    def __enter__(self) -> "HostSpeed":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def speed(self, start: float | None = None, end: float | None = None) -> float | None:
        """Mean host speed of the samples taken between two wall-clock times.

        ``None`` when no sample falls in the window.
        """
        window = [
            NOMINAL_S / seconds
            for at, seconds in self.samples
            if (start is None or at >= start) and (end is None or at <= end)
        ]
        return sum(window) / len(window) if window else None


if __name__ == "__main__":
    for _ in range(3):
        probe()
    with HostSpeed() as host:
        time.sleep(1.0)
    times = sorted(seconds for _, seconds in host.samples)
    print(f"{len(times)} samples, median {1e3 * times[len(times) // 2]:.3f} ms, "
          f"speed {host.speed():.3f}")
