"""Host-speed probe: fixed work that does not touch stairpow.

The host this benchmark was built on shares its cores with other tenants,
and its speed changes for seconds to minutes at a time: the same op took
20-35% longer in one run than in the next.  The probe measures that speed
right before every timed op, so that the op's latency can be stated at the
reference speed.  Its parts mimic the library's mix of work: an integer
loop, sorting small tuples, a numpy lexsort, and building a list of
tuples a few MB in size, which other tenants' cache use slows the most.
"""

from __future__ import annotations

import random
import time

import numpy as np

#: Each part runs this many times; its best time counts.
REPEATS = 3

#: Best time of each part on the reference host, a 2-vCPU Intel Xeon VM
#: (Python 3.11.7, numpy 2.4.6), in its quiet periods.
REFERENCE_S = {"loop": 0.24e-3, "tuples": 0.20e-3, "lexsort": 0.23e-3, "alloc": 1.1e-3}


class HostProbe:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._pairs = [(rng.randrange(1000), rng.randrange(1000)) for _ in range(750)]
        self._keys = np.random.default_rng(0).integers(0, 1 << 30, size=(2, 2000))
        self.parts = {"loop": self._loop, "tuples": self._tuples, "lexsort": self._lexsort,
                      "alloc": self._alloc}

    @staticmethod
    def _loop() -> int:
        total = 0
        for i in range(4000):
            total += i * i
        return total

    def _tuples(self) -> list:
        return sorted((b, a) for a, b in self._pairs)

    def _lexsort(self) -> np.ndarray:
        return np.lexsort(self._keys)

    @staticmethod
    def _alloc() -> int:
        return len([(i, i + 1) for i in range(10000)])

    def best_times(self) -> dict[str, float]:
        best = {}
        for name, part in self.parts.items():
            times = []
            for _ in range(REPEATS):
                start = time.perf_counter()
                part()
                times.append(time.perf_counter() - start)
            best[name] = min(times)
        return best

    def slowdown(self) -> float:
        """How many times slower than the reference host this host runs now:
        the mean over the parts of best time over reference time."""
        best = self.best_times()
        return sum(best[name] / ref for name, ref in REFERENCE_S.items()) / len(REFERENCE_S)
