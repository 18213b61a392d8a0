"""Metric names, units and how each is derived.

End-to-end metrics come from untraced passes only. Per-layer metrics
come from the traced passes of a ``--trace 1`` run: host times are the
median over traced passes of each pass's sum, set-up times the median
over set-ups, and counts come from the simulated-statistics listing,
which is identical on every pass.
"""
from __future__ import annotations

import statistics

from kcbench.workloads import ALL_ALGOS, geomean

LAYERS = ["graphs", "seq", "simcpu", "bucket", "hashbag"]
RHO_ALGOS = ["ours", "vgc", "pkc", "plain", "julienne"]

END_TO_END = {
    "edges_per_s": "edges/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_ours_s": "sim_s",
    "sim_vs_julienne_x": "x",
}

PER_LAYER = {
    "graphs.generate_s": "s",
    "seq.bz_s": "s",
    "seq.bz_work": "count",
    "seq.verify_s": "s",
    **{f"simcpu.run_s.{a}": "s" for a in ALL_ALGOS},
    "simcpu.self_s": "s",
    "simcpu.subgraph_s": "s",
    "simcpu.host_ns_per_work": "ns/work",
    **{f"simcpu.rho.{a}": "count" for a in RHO_ALGOS},
    "simcpu.max_chain.ours": "count",
    "simcpu.bspan.ours": "count",
    "simcpu.max_contention.ours": "count",
    "simcpu.resamples": "count",
    "simcpu.restarts": "count",
    "simcpu.resample_ratio": "ratio",
    "simcpu.work.ours": "count",
    "bucket.build_s": "s",
    "bucket.next_frontier_s": "s",
    "bucket.on_decrement_s": "s",
    "bucket.scanned": "count",
    "bucket.moves": "count",
    "bucket.redistributed": "count",
    "bucket.stale_filtered": "count",
    "bucket.useful_ratio": "ratio",
    "hashbag.insert_many_s": "s",
    "hashbag.extract_all_s": "s",
    "hashbag.insert_calls": "count",
    **{f"trace.self_s.{layer}": "s" for layer in LAYERS},
    "trace.overhead_x": "x",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def sim_metrics(listing: dict) -> dict[str, float]:
    """``sim_ours_s``: simulated 96-core time of ``ours`` summed over the
    graphs; ``sim_vs_julienne_x``: geometric mean over graphs of
    julienne's simulated time over ours'."""
    by = {(r["graph"], r["algo"]): r for r in listing.values() if r["kind"] == "simcpu"}
    graphs = sorted({g for g, a in by if a == "ours" and (g, "julienne") in by})
    return {
        "sim_ours_s": sum(by[g, "ours"]["t_par"] for g in graphs),
        "sim_vs_julienne_x": geomean(by[g, "julienne"]["t_par"] / by[g, "ours"]["t_par"] for g in graphs),
    }


def _span(summary: dict, name: str, field: str = "total_s") -> float:
    return summary.get(name, {}).get(field, 0.0)


def _layer_self(summary: dict, layer: str) -> float:
    return sum(v["self_s"] for k, v in summary.items() if k.split(".", 1)[0] == layer)


def _count(summary: dict, name: str, key: str) -> float:
    return summary.get(name, {}).get("counts", {}).get(key, 0)


def layer_metrics(
    passes: list[dict], setups: list[dict], listing: dict, bz_work: int, overhead_x: float,
) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from traced pass and set-up summaries."""

    def per_pass(fn) -> float:
        return statistics.median(fn(s) for s in passes)

    def per_setup(fn) -> float:
        return statistics.median(fn(s) for s in setups)

    rows = list(listing.values())
    sim = [r for r in rows if r["kind"] == "simcpu"]
    ours = [r for r in sim if r["algo"] == "ours"]
    sim_work = sum(r["work"] for r in sim)
    sampled = sum(r["n_sampled"] for r in sim)
    m: dict[str, float] = {
        "graphs.generate_s": per_setup(lambda s: _span(s, "graphs.generate")),
        "seq.bz_s": per_setup(lambda s: _span(s, "seq.bz")),
        "seq.bz_work": bz_work,
        "seq.verify_s": per_pass(lambda s: _span(s, "seq.verify", "self_s")),
    }
    for a in ALL_ALGOS:
        m[f"simcpu.run_s.{a}"] = per_pass(lambda s, a=a: _span(s, f"simcpu.run.{a}"))
    m["simcpu.self_s"] = per_pass(lambda s: _layer_self(s, "simcpu"))
    m["simcpu.subgraph_s"] = per_pass(lambda s: _span(s, "simcpu.subgraph"))
    m["simcpu.host_ns_per_work"] = 1e9 * _ratio(
        per_pass(lambda s: sum(_span(s, f"simcpu.run.{a}") for a in ALL_ALGOS)), sim_work
    )
    for a in RHO_ALGOS:
        m[f"simcpu.rho.{a}"] = sum(r["rho"] for r in sim if r["algo"] == a)
    m["simcpu.max_chain.ours"] = max((r["max_chain"] for r in ours), default=0)
    m["simcpu.bspan.ours"] = sum(r["bspan"] for r in ours)
    m["simcpu.max_contention.ours"] = max((r["max_contention"] for r in ours), default=0)
    m["simcpu.resamples"] = sum(r["resamples"] for r in sim)
    m["simcpu.restarts"] = sum(r["restarts"] for r in sim)
    m["simcpu.resample_ratio"] = _ratio(m["simcpu.resamples"], sampled)
    m["simcpu.work.ours"] = sum(r["work"] for r in ours)
    for op in ("build", "next_frontier", "on_decrement"):
        m[f"bucket.{op}_s"] = per_pass(lambda s, op=op: _span(s, f"bucket.{op}", "self_s"))
    for c in ("scanned", "moves", "redistributed", "stale_filtered"):
        m[f"bucket.{c}"] = sum(r[c] for r in ours)
    returned = per_pass(lambda s: _count(s, "bucket.next_frontier", "returned"))
    stale = per_pass(lambda s: _count(s, "bucket.next_frontier", "stale"))
    m["bucket.useful_ratio"] = _ratio(returned, returned + stale)
    m["hashbag.insert_many_s"] = per_pass(lambda s: _span(s, "hashbag.insert_many", "self_s"))
    m["hashbag.extract_all_s"] = per_pass(lambda s: _span(s, "hashbag.extract_all", "self_s"))
    m["hashbag.insert_calls"] = per_pass(lambda s: _span(s, "hashbag.insert_many", "calls"))
    for layer in LAYERS:
        m[f"trace.self_s.{layer}"] = per_pass(lambda s, la=layer: _layer_self(s, la)) + per_setup(
            lambda s, la=layer: _layer_self(s, la)
        )
    m["trace.overhead_x"] = overhead_x
    return {k: m[k] for k in PER_LAYER}
