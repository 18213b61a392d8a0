"""In-memory spans around the benchmark's calls into the program's layers.

A span is (name, start_ns, end_ns, parent index, counts). Its layer is
the part of the name before the first dot (``bucket.next_frontier`` is
in ``bucket``). A span's self time is its duration minus the time its
child spans cover; calls are single-threaded, so children never overlap.

For the traced run only, ``install_wrappers`` replaces the public
methods the program calls internally (frontier structures, hash bags,
the Las Vegas coreness check) with span-recording wrappers, and
``remove_wrappers`` puts the originals back. ``AdaptiveHBS`` delegates
to an inner ``HBS``; the nested spans make that time count once, in the
innermost structure's self time.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager

_NAME, _START, _END, _PARENT, _COUNTS = range(5)


class Tracer:
    """Records spans while ``enabled``; a disabled tracer records nothing."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """Time the body as one span; yields the span's counts dict."""
        counts: dict = {}
        if not self.enabled:
            yield counts
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, counts]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield counts
        finally:
            rec[_END] = time.perf_counter_ns()
            self._stack.pop()

    def inside(self, prefix: str) -> bool:
        """True when the innermost open span's name starts with prefix."""
        return bool(self._stack) and self.spans[self._stack[-1]][_NAME].startswith(prefix)

    def mark(self) -> int:
        """Position to pass to ``summary`` for spans recorded after now."""
        return len(self.spans)

    def summary(self, since: int = 0) -> dict[str, dict]:
        """Per span name: calls, total seconds, self seconds and summed
        counts, over the spans recorded from index ``since`` on."""
        spans = self.spans[since:]
        child_ns = [0] * len(spans)
        for rec in spans:
            p = rec[_PARENT] - since
            if p >= 0:
                child_ns[p] += rec[_END] - rec[_START]
        out: dict[str, dict] = {}
        for i, rec in enumerate(spans):
            dur = rec[_END] - rec[_START]
            agg = out.setdefault(
                rec[_NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
            )
            agg["calls"] += 1
            agg["total_s"] += dur * 1e-9
            agg["self_s"] += (dur - child_ns[i]) * 1e-9
            for k, v in rec[_COUNTS].items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
        return out

    # -- wrappers for calls the program makes internally ----------------------

    def _patch(self, owner: object, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install_wrappers(self) -> None:
        """Wrap frontier-structure, hash-bag and coreness-check calls."""
        from repro import bucket
        from repro.hashbag import HashBag
        from repro.seq import bz

        for cls in (
            bucket.ScanAll, bucket.SingleBucket, bucket.FixedBuckets,
            bucket.HBS, bucket.AdaptiveHBS,
        ):
            self._patch(cls, "build", self._timed(cls.build, "bucket.build"))
            self._patch(cls, "on_decrement", self._timed(cls.on_decrement, "bucket.on_decrement"))
            self._patch(cls, "next_frontier", self._next_frontier(cls.next_frontier))
        for meth in ("insert_many", "extract_all"):
            self._patch(HashBag, meth, self._timed(getattr(HashBag, meth), f"hashbag.{meth}"))
        self._patch(bz, "verify_coreness", self._timed(bz.verify_coreness, "seq.verify"))

    def remove_wrappers(self) -> None:
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)

    def _timed(self, fn, name: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _next_frontier(self, fn):
        """Counts, at the outermost structure only, the frontier vertices
        returned and the stale copies filtered to produce them."""

        @functools.wraps(fn)
        def wrapper(structure, k, deg, state):
            outer = not self.inside("bucket.")
            stale0 = structure.counters()["stale_filtered"] if outer else 0
            with self.span("bucket.next_frontier") as counts:
                frontier, cost = fn(structure, k, deg, state)
            if outer:
                counts["returned"] = len(frontier)
                counts["stale"] = structure.counters()["stale_filtered"] - stale0
            return frontier, cost

        return wrapper
