"""Hierarchical bucketing structure (paper Sec. 5.2–5.3).

Buckets partition the key range [k, d_max] into the binary
decomposition the paper uses: eight single-key buckets for
k, k+1, ..., k+7, then ranges of size 8, 16, 32, ... (the "first eight
buckets are single-key" optimization of Sec. 5.2). In the paper each
bucket is a parallel hash bag; here a bucket is a list of id arrays
priced as one: an extraction of t ids costs LAMBDA + t, and each move
costs MOVE_WEIGHT. DECREASEKEY inserts the vertex into its new bucket
without deleting the old copy (lazy deletion); stale copies are
filtered at extraction. GETNEXTBUCKET extracts the first bucket
covering the current k and, if it spans more than one key, splits it
and redistributes its members — each vertex is redistributed at most
O(log d(v)) times, the structure's cost bound.

``AdaptiveHBS`` is the paper's final design (Sec. 5.3): the plain
single-bucket active-set scan until the theta-core (theta = 16) is
reached, then HBS.
"""
from __future__ import annotations

import numpy as np

from repro.bucket.interface import ACTIVE, MOVE_WEIGHT, FrontierStructure
from repro.bucket.single import SingleBucket

# Hash-bag chunk size: extracting t elements from a bucket costs
# O(LAMBDA + t) (paper Sec. 2).
LAMBDA = 64


class _Bucket:
    __slots__ = ("lo", "hi", "parts", "serial")

    def __init__(self, lo: int, hi: int, serial: int):
        self.lo = lo
        self.hi = hi
        self.parts: list[np.ndarray] = []
        self.serial = serial


def _split_sizes(length: int) -> list[int]:
    """Binary decomposition of a range: 1x8, then 8, 16, 32, ..."""
    sizes: list[int] = []
    covered = 0
    while covered < length and len(sizes) < 8:
        sizes.append(1)
        covered += 1
    step = 8
    while covered < length:
        take = min(step, length - covered)
        sizes.append(take)
        covered += take
        step *= 2
    return sizes


class HBS(FrontierStructure):
    """Hierarchical bucketing structure."""

    def __init__(self, n: int):
        super().__init__(n)
        self.buckets: list[_Bucket] = []
        self.los = np.empty(0, dtype=np.int64)
        self.vertex_serial = np.full(n, -1, dtype=np.int64)
        self._next_serial = 0

    # -- internals ---------------------------------------------------------

    def _new_bucket(self, lo: int, hi: int) -> _Bucket:
        b = _Bucket(lo, hi, self._next_serial)
        self._next_serial += 1
        return b

    def _refresh_los(self) -> None:
        self.los = np.array([b.lo for b in self.buckets], dtype=np.int64)

    def _make_ranges(self, lo: int, hi: int) -> list[_Bucket]:
        out = []
        cur = lo
        for size in _split_sizes(hi - lo + 1):
            out.append(self._new_bucket(cur, cur + size - 1))
            cur += size
        return out

    def _insert(self, bucket: _Bucket, ids: np.ndarray) -> None:
        if len(ids) == 0:
            return
        bucket.parts.append(ids)
        self.vertex_serial[ids] = bucket.serial

    # -- interface ---------------------------------------------------------

    def build(self, ids: np.ndarray, deg: np.ndarray) -> float:
        ids = np.asarray(ids, dtype=np.int64)
        dmax = int(deg[ids].max()) if len(ids) else 0
        # Ranges anchor at 0 so any later key (degrees only fall) is
        # always covered by some bucket.
        self.buckets = self._make_ranges(0, max(dmax, 0))
        self._refresh_los()
        if len(ids):
            slot = np.searchsorted(self.los, deg[ids], side="right") - 1
            for j in np.unique(slot):
                self._insert(self.buckets[int(j)], ids[slot == j])
        self.scanned += len(ids)
        return float(len(ids))

    def _extract_valid(
        self, bucket: _Bucket, deg: np.ndarray, state: np.ndarray
    ) -> tuple[np.ndarray, float]:
        items = np.concatenate(bucket.parts or [np.empty(0, dtype=np.int64)])
        bucket.parts = []
        cost = float(len(items) + LAMBDA)
        if len(items) == 0:
            return items, cost
        valid = (self.vertex_serial[items] == bucket.serial) & (
            state[items] == ACTIVE
        )
        self.stale_filtered += int((~valid).sum())
        return items[valid], cost

    def next_frontier(self, k, deg, state):
        cost = 0.0
        frontier_parts: list[np.ndarray] = []
        while self.buckets:
            b0 = self.buckets[0]
            if b0.hi < k:
                # Dead range: anything still valid here has key <= k and
                # belongs in the frontier (safety net for clamped keys).
                items, c = self._extract_valid(b0, deg, state)
                cost += c
                if len(items):
                    frontier_parts.append(items)
                self.buckets.pop(0)
                self._refresh_los()
                continue
            if b0.lo == b0.hi:
                if b0.lo > k:
                    break  # nothing with key <= k remains
                items, c = self._extract_valid(b0, deg, state)
                cost += c
                frontier_parts.append(items[deg[items] <= k])
                stale = items[deg[items] > k]
                # Degree recounts (sampling) can raise a key; reinsert.
                if len(stale):
                    self.on_decrement(stale, deg)
                self.buckets.pop(0)
                self._refresh_los()
                continue
            # First bucket spans several keys: split and redistribute.
            items, c = self._extract_valid(b0, deg, state)
            cost += c
            new = self._make_ranges(max(b0.lo, k), b0.hi)
            self.buckets[0:1] = new
            self._refresh_los()
            if len(items):
                keys = np.maximum(deg[items], k)
                slot = np.searchsorted(self.los, keys, side="right") - 1
                slot = np.clip(slot, 0, len(new) - 1)
                for j in np.unique(slot):
                    self._insert(self.buckets[int(j)], items[slot == j])
                self.redistributed += len(items)
                cost += float(len(items))
        if frontier_parts:
            out = np.unique(np.concatenate(frontier_parts))
            return out[deg[out] <= k], cost
        return np.empty(0, dtype=np.int64), cost

    def on_decrement(self, ids, deg) -> float:
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0 or not self.buckets:
            return 0.0
        keys = np.maximum(deg[ids], int(self.los[0]))
        slot = np.searchsorted(self.los, keys, side="right") - 1
        slot = np.clip(slot, 0, len(self.buckets) - 1)
        serials = np.array([self.buckets[int(j)].serial for j in slot])
        need = self.vertex_serial[ids] != serials
        movers, mslot = ids[need], slot[need]
        for j in np.unique(mslot):
            self._insert(self.buckets[int(j)], movers[mslot == j])
        self.moves += len(movers)
        return MOVE_WEIGHT * len(movers)


class AdaptiveHBS(FrontierStructure):
    """Paper's final design: SingleBucket until round theta, then HBS."""

    def __init__(self, n: int, *, theta: int = 16):
        super().__init__(n)
        self.theta = theta
        self.inner: FrontierStructure = SingleBucket(n)
        self.switched = False

    def build(self, ids, deg) -> float:
        return self.inner.build(ids, deg)

    def next_frontier(self, k, deg, state):
        if not self.switched and k >= self.theta:
            # theta-core reached: rebuild the survivors into an HBS.
            assert isinstance(self.inner, SingleBucket)
            survivors = self.inner.active
            survivors = survivors[state[survivors] == ACTIVE]
            hbs = HBS(self.n)
            cost = hbs.build(survivors, np.maximum(deg, k)) if len(survivors) else 0.0
            self._merge_counters()
            self.inner = hbs
            self.switched = True
            f, c2 = self.inner.next_frontier(k, deg, state)
            return f, cost + c2
        return self.inner.next_frontier(k, deg, state)

    def on_decrement(self, ids, deg) -> float:
        return self.inner.on_decrement(ids, deg)

    def _merge_counters(self) -> None:
        self.scanned += self.inner.scanned
        self.moves += self.inner.moves
        self.redistributed += self.inner.redistributed
        self.stale_filtered += self.inner.stale_filtered

    def counters(self) -> dict:
        inner = self.inner.counters()
        return {
            "scanned": self.scanned + inner["scanned"],
            "moves": self.moves + inner["moves"],
            "redistributed": self.redistributed + inner["redistributed"],
            "stale_filtered": self.stale_filtered + inner["stale_filtered"],
        }
