"""Fixed reference kernels used to normalise every timing of the benchmark.

The machines this benchmark runs on change CPU speed in phases of several
seconds, which moves raw per-op times by tens of percent between identical
runs.  A reference kernel does a fixed amount of work and never imports the
program, so its time tracks the speed the CPU had while an op ran.  A
normalised time is

    raw_ms * kernel.nominal_ms / kernel_ms

which keeps the unit: it is the time the op would have taken had the kernel
taken its nominal time.  The nominal times are fixed once and never
re-measured, so normalised values from different commits compare directly.

Slow phases slow interpreted Python more than numpy's compiled loops, so
there are two kernels and each workload names the one matching its work:

* ``interp``: Python object churn around small numpy gathers, products and
  scatter-adds, the mix of the jet pipeline and the CLI;
* ``einsum``: the small three-operand einsum that octonion matrix products
  are made of, for the Jordan-algebra self-test.

An op can last longer than a speed phase, so ``Meter`` also times the
kernel from a SIGALRM handler every ``INTERVAL_S`` while an op runs (in the
one thread there is), takes that time off the op and averages it in.
"""

from __future__ import annotations

import signal
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

INTERVAL_S = 0.05

_GATHER = np.arange(15) % 7
_OCT_A = np.linspace(-1.0, 1.0, 72).reshape(3, 3, 8)
_OCT_T = np.linspace(-1.0, 1.0, 512).reshape(8, 8, 8)


class _Cell:
    __slots__ = ("key", "coeffs")

    def __init__(self, key, coeffs):
        self.key = key
        self.coeffs = coeffs


def _interp() -> float:
    acc = 0.0
    base = np.linspace(0.0, 1.0, 15)
    out = np.zeros(7)
    for r in range(14):
        cells = [_Cell((r, i), base * (1.0 + 1e-3 * i)) for i in range(12)]
        for cell in cells:
            prod = cell.coeffs[_GATHER] * base[_GATHER[::-1]]
            out[:] = 0.0
            np.add.at(out, _GATHER, prod)
            acc += float(out[cell.key[1] % 7])
        table = {cell.key: len(cell.coeffs) for cell in cells}
        acc += sum(table.values())
    return acc


def _einsum() -> float:
    acc = 0.0
    for _ in range(24):
        acc += float(np.einsum("abi,bcj,ijk->ack", _OCT_A, _OCT_A, _OCT_T)[0, 0, 0])
    return acc


@dataclass(frozen=True)
class Kernel:
    work: Callable[[], float]  # one fixed unit of work; returns a checksum
    nominal_ms: float  # its time on a 2-core x86-64 VM in the fast clock phase (Python 3.11, numpy 2.4)

    def time_ms(self) -> float:
        t0 = time.perf_counter()
        self.work()
        return (time.perf_counter() - t0) * 1e3


KERNELS = {
    "interp": Kernel(_interp, 0.65),
    "einsum": Kernel(_einsum, 0.93),
}


@dataclass(frozen=True)
class Timing:
    raw_ms: float  # wall time of the call, interior kernels taken off
    kernel_ms: float  # mean of the kernels just before, inside and just after the call
    factor: float  # nominal_ms / kernel_ms

    @property
    def ms(self) -> float:
        """The normalised time."""
        return self.raw_ms * self.factor


class Meter:
    """Times calls against one kernel; a context manager that owns SIGALRM.

    Each call is bracketed by kernels (the one after a call is the one
    before the next) and sampled by interior kernels while it runs.
    """

    def __init__(self, kernel: str):
        self.kernel = KERNELS[kernel]
        self._active = False
        self._inside: list[float] = []
        self._inside_s = 0.0  # all interior kernel time so far
        self._last = None  # the kernel timed after the previous call
        self._saved = None

    def _tick(self, signum, frame):
        if self._active:
            ms = self.kernel.time_ms()
            self._inside.append(ms)
            self._inside_s += ms / 1e3

    def clock(self) -> float:
        """A perf_counter that stops while interior kernels run, in s."""
        return time.perf_counter() - self._inside_s

    def __enter__(self):
        for _ in range(5):
            self.kernel.work()
        self._last = self.kernel.time_ms()
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    def measure(self, fn):
        """Call ``fn()``; returns (result, error, Timing).  ``error`` is the
        traceback if ``fn`` raised, and the result is then None."""
        result = error = None
        self._inside = []
        self._active = True
        t0 = self.clock()
        try:
            result = fn()
        except Exception:  # reported to the caller as a failed op
            error = traceback.format_exc()
        finally:
            raw_ms = (self.clock() - t0) * 1e3
            self._active = False
        after = self.kernel.time_ms()
        kernels = [self._last, *self._inside, after]
        self._last = after
        kernel_ms = sum(kernels) / len(kernels)
        return result, error, Timing(raw_ms, kernel_ms, self.kernel.nominal_ms / kernel_ms)
