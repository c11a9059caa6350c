"""How fast the host runs Python right now, sampled while the ops run.

The benchmark was defined on a shared 2-vCPU host whose speed for pure
Python moves by a quarter and more, within seconds and over minutes, with
the load of other tenants; CPU time moves with it, so it is no way out.
``Sampler`` measures that speed while the ops run: every ``INTERVAL_S`` a
``SIGALRM`` handler, running in the benchmark's one thread between two
bytecodes of the program, times ``probe()``, a fixed piece of exact
elimination over the rationals and modulo a prime, the kind of work
lieindex does.  An op's latency excludes the probes that ran inside it, and
its *normalised* latency is that latency times ``PROBE_REF_S`` over the mean
probe time during the op: the op's time on a host that runs the probe in
``PROBE_REF_S``.  A change to lieindex moves its ops but not the probe, which
never touches lieindex, so it shows in the normalised figures in full.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

# Time between two probes, and the probe time that normalised figures are
# scaled to: about the median probe time on the 2-vCPU Xeon the benchmark
# was defined on.
INTERVAL_S = 0.05
PROBE_REF_S = 0.00125

_P = 1_000_003
_N = 16


def _lcg(seed: int):
    x = seed
    while True:
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        yield x >> 33


_gen = _lcg(12345)
_MOD = [[next(_gen) % _P for _ in range(_N)] for _ in range(_N)]
_FRAC = [[Fraction(next(_gen) % 19 - 9, next(_gen) % 7 + 1) for _ in range(8)] for _ in range(8)]


def probe() -> tuple[int, Fraction]:
    """Rank of a fixed 16x16 matrix mod p and determinant of a fixed 8x8
    rational matrix, by elimination; the same work on every call."""
    m = [row[:] for row in _MOD]
    rank = 0
    for c in range(_N):
        pivot = next((i for i in range(rank, _N) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][c], _P - 2, _P)
        top = m[rank]
        for i in range(rank + 1, _N):
            f = m[i][c] * inv % _P
            if f:
                row = m[i]
                for j in range(c, _N):
                    row[j] = (row[j] - f * top[j]) % _P
        rank += 1
    q = [row[:] for row in _FRAC]
    det = Fraction(1)
    for c in range(8):
        pivot = next((i for i in range(c, 8) if q[i][c]), None)
        if pivot is None:
            return rank, Fraction(0)
        if pivot != c:
            q[c], q[pivot] = q[pivot], q[c]
            det = -det
        det *= q[c][c]
        for i in range(c + 1, 8):
            f = q[i][c] / q[c][c]
            if f:
                for j in range(c, 8):
                    q[i][j] -= f * q[c][j]
    return rank, det


class Sampler:
    """Times ``probe()`` every ``INTERVAL_S`` seconds while active.

    ``samples`` holds every probe time and ``spent`` their sum; an op reads
    both before and after it runs (``mark`` / ``since``).  The handler it
    replaces is put back on exit.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        probe()
        took = perf_counter() - t0
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Sampler":
        self._tick(None, None)  # one sample before the first op
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(probe seconds spent since ``mark``, mean probe time over them;
        the last probe before ``mark`` when none has run since)."""
        count, spent = mark
        taken = self.samples[count:] or self.samples[count - 1 : count]
        return self.spent - spent, sum(taken) / len(taken)
