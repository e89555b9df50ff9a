"""Host-speed probe: scales measured host seconds to a reference host speed.

The benchmark's host is a few cores of a shared machine.  Its speed drifts
by 10-50% over seconds and minutes, with the load of other tenants, and
that drift is wider than any bound a later change could be held to.  The
probe measures it where it happens: while a :class:`Section` is timed, an
interval timer interrupts the program every ``INTERVAL_S`` seconds of
wall time and runs :func:`snippet`, a fixed piece of interpreter work of
the kinds the simulator does (small-int arithmetic, big-int multiply and
reduce, bytes slicing, dict and list traffic, calls).  A timed section
then reports its wall seconds, minus the probe's own, scaled by
``REFERENCE_S / median(snippet seconds)``: the seconds it would have taken
on a host that runs the snippet in ``REFERENCE_S``.

The snippet lives in the benchmark, not in the program, so a change to
the program moves the scaled time and never the scale.  Samples are taken
inside the section they scale, so a slow spell of the host slows both.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: Wall seconds between probe samples.
INTERVAL_S = 0.04
#: Snippet seconds at the reference host speed: about the snippet's median
#: on 2 vCPUs of a shared x86-64 machine under CPython 3.11, so scaled
#: seconds come out close to that host's wall seconds.
REFERENCE_S = 0.8e-3

_MODULUS = (1 << 521) - 1
_BLOB = bytes(range(256)) * 4


def snippet() -> int:
    """Fixed interpreter work; returns a checksum so none of it is idle."""
    acc = 0
    for i in range(4000):
        acc = (acc + i * i) % 65521
    x = 0x1234567890ABCDEF ** 8
    for _ in range(120):
        x = x * x % _MODULUS
    table = {}
    for i in range(600):
        table[i & 63] = _BLOB[i:i + 16]
    chunks = [bytes(a ^ b for a, b in zip(v, v[1:])) for v in table.values()]
    return acc ^ (x & 0xFFFF) ^ len(b"".join(chunks))


class Section:
    """Times one section of code at the reference host speed.

    ``with Section() as timing: ...``; afterwards ``timing.wall_s`` is its
    wall seconds, ``timing.probe_s`` the snippet's share of them and
    ``timing.scaled_s`` its seconds at the reference host speed.  Sections
    do not nest: each owns ``SIGALRM`` and the real-time interval timer
    while it runs.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self._samples = []
        self.wall_s = 0.0
        self.probe_s = 0.0
        self.samples = 0
        self.scale = 1.0

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        snippet()
        self._samples.append(perf_counter() - start)

    def __enter__(self) -> "Section":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                         self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall_s = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)
        self.probe_s = sum(self._samples)
        # A section shorter than one interval is scaled by one sample
        # taken after it.
        if not self._samples:
            self._sample()
        self.samples = len(self._samples)
        self.scale = REFERENCE_S / statistics.median(self._samples)

    @property
    def scaled_s(self) -> float:
        return (self.wall_s - self.probe_s) * self.scale
