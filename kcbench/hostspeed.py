"""The host-speed reference that host times are reported in.

On a shared 4-vCPU virtual machine (nominal 2.0 GHz) the same pass took
from 1.0 s to 2.0 s depending on the minute, with no steal time visible
in the guest and no other process in it; medians over 10- to 60-second
windows spread alike (16%, IQR over median). ``HostSpeed`` times a
fixed kernel that is not part of the program before every set-up and
after every pass, and host times are reported in reference seconds:
measured seconds times ``NOMINAL_S`` over the kernel's measured
duration. Raw seconds and every kernel sample are saved with the
results.
"""
from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np


class HostSpeed:
    """Times a fixed reference kernel to scale host times to a nominal
    host speed. The kernel is timed before every set-up and after every
    pass. Set-up times are scaled by the median of the samples taken
    around them, each pass's time by the mean of the two samples that
    bracket it.

    The kernel mixes, in about equal parts of its time, the three kinds
    of host work the simulator does: a pure-Python breadth-first search,
    a Python loop of small numpy calls per vertex (like VGC's local
    search), and numpy sorts of a large array (like the vectorised peel
    and hash-bag batches). Over four minutes of passes, equal parts
    tracked ``sparse-cascade``'s speed better than a sort-heavy mix
    (spread of 20-second window medians 3.0% against 4.6%) and
    ``dense-hubs``' about as well (5.6% against 5.1%)."""

    NOMINAL_S = 0.08  # the kernel's typical duration on the machine above
    _N, _EDGES, _STEP, _SORTED = 36_000, 108_000, 7, 180_000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        a, b = rng.integers(0, self._N, (2, self._EDGES))
        src, dst = np.concatenate([a, b]), np.concatenate([b, a])
        order = np.argsort(src, kind="stable")
        self._adj_np = dst[order]
        self._indptr_np = np.searchsorted(src[order], np.arange(self._N + 1))
        self._adj = self._adj_np.tolist()
        self._indptr = self._indptr_np.tolist()
        self._keys = rng.integers(0, 1 << 20, self._SORTED)
        self.samples: list[float] = []

    def _kernel(self) -> int:
        indptr, adj = self._indptr, self._adj
        seen = [False] * self._N
        seen[0] = True
        queue = deque([0])
        reached = 0
        while queue:
            v = queue.popleft()
            reached += 1
            for u in adj[indptr[v] : indptr[v + 1]]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
        indptr_np, adj_np = self._indptr_np, self._adj_np
        deg = np.diff(indptr_np)
        state = np.zeros(self._N, dtype=np.int8)
        for v in range(0, self._N, self._STEP):
            nbrs = adj_np[indptr_np[v] : indptr_np[v + 1]]
            act = nbrs[state[nbrs] == 0]
            if len(act):
                deg[act] -= 1
                state[act[deg[act] <= 1]] = 1
        uniq = np.unique(self._keys)
        order = np.argsort(self._keys, kind="stable")
        return reached + int(state.sum()) + len(uniq) + int(order[0])

    def measure(self) -> None:
        """Time the kernel once."""
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def factor(self) -> float:
        """Reference seconds per measured second, from the median of all
        samples so far."""
        return self.NOMINAL_S / statistics.median(self.samples)

    def bracket_factor(self) -> float:
        """Reference seconds per measured second for the block timed
        between the last two samples."""
        return self.NOMINAL_S / statistics.mean(self.samples[-2:])
