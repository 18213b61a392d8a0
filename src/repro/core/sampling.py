"""The sampling scheme (Sec. 4.1) in the dataflow layer.

In the shared-memory algorithm, sampling replaces atomic degree
decrements on a high-degree vertex with probabilistic increments of a
sample counter, cutting per-location contention from O(d(v)) to
O(kappa(v) + log n). The dataflow analogue of contention is *shuffle
skew*: the histogram `groupBy(dst).count()` of the peel has hot keys
exactly at high-degree vertices. Here each (src, dst) removal message
addressed to a sample-mode vertex is kept only with probability
``rate`` (a deterministic per-edge Bernoulli via ``xxhash64``), so the
hot keys receive O(mu) rows per resample epoch instead of O(d(v)).

State columns per vertex: deg (stale while sampled), core, smode, rate,
cnt, ever (has been in sample mode). Each subround splits the removal
messages into sampled hits (cnt += hits, resample at cnt >= mu) and
plain decrements. Resampling recounts the true induced degree with a
join against the active set (Alg. 5's Resample). Validate runs at the
end of each round k, before k advances: a sampled vertex whose true
induced degree dropped to k during the round is resampled and peeled
in that round, and the subround loop runs again while Validate yields
frontier vertices (Sec. 4.1.2/4.1.4).

The run records the max per-destination message count per subround with
and without sampling — the measured skew-reduction, Table/Fig. 11's
dataflow counterpart. Correctness is exact on the tested graphs and is
asserted against BZ in tests (the whp argument of Thm. 4.2).
"""
from __future__ import annotations

from dataclasses import dataclass, field
import math

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.spark_graph import degrees


@dataclass
class SamplingDataflowStats:
    rounds: int = 0
    subrounds: int = 0
    resamples: int = 0
    max_dst_messages: int = 0  # max rows per destination in one subround
    n_sampled: int = 0


def _set_sampler(state: DataFrame, k: int, mu: int, r: float, threshold: int):
    """Vectorized SetSampler over rows flagged ``reset``."""
    on = (
        F.col("reset")
        & (F.col("deg") * r > k)
        & (F.col("deg") > threshold)
    )
    return state.select(
        "id",
        "deg",
        "core",
        F.when(F.col("reset"), on).otherwise(F.col("smode")).alias("smode"),
        F.when(on, F.lit(float(mu)) / ((1.0 - r) * F.col("deg")))
        .otherwise(F.col("rate"))
        .alias("rate"),
        F.when(F.col("reset"), F.lit(0)).otherwise(F.col("cnt")).alias("cnt"),
        (F.col("ever") | on).alias("ever"),
    )


def kcore_dataflow_sampling(
    spark: SparkSession,
    edges: DataFrame,
    *,
    sample_c: float = 2.5,
    sample_r: float = 0.1,
    threshold: int = 0,
    seed: int = 42,
    enable: bool = True,
    checkpoint_every: int = 6,
    max_iterations: int = 10_000,
) -> tuple[DataFrame, SamplingDataflowStats]:
    """k-core with the sampling scheme over DataFrame ops.

    ``enable=False`` runs the identical loop without sampling, for the
    skew comparison. Returns ((id, coreness), stats).
    """
    edges = edges.select("src", "dst").cache()
    n = edges.select("src").distinct().count()
    mu = math.ceil(4 * sample_c * math.log(max(n, 2)))
    threshold = threshold or max(64, 2 * mu)
    r = sample_r
    state = (
        degrees(edges)
        .withColumn("core", F.lit(-1))
        .withColumn("smode", F.lit(False))
        .withColumn("rate", F.lit(0.0))
        .withColumn("cnt", F.lit(0))
        .withColumn("ever", F.lit(False))
    )
    if enable:
        state = _set_sampler(state.withColumn("reset", F.lit(True)), 0, mu, r, threshold)
    state = state.localCheckpoint()
    stats = SamplingDataflowStats()
    k = 0
    iters = 0
    subround_id = 0
    while True:
        active = state.where(F.col("core") == -1)
        if active.isEmpty():
            break
        frontier = _frontier(state, k)
        while True:
            while not frontier.isEmpty():
                iters += 1
                subround_id += 1
                stats.subrounds += 1
                if iters > max_iterations:
                    raise RuntimeError("sampling dataflow exceeded iteration budget")
                state = _peel_subround(state, edges, frontier, k, subround_id, seed, stats)
                if enable:
                    # Vertices with enough samples: recount + resample.
                    full = F.col("smode") & (F.col("cnt") >= mu)
                    state, n_res = _resample(spark, edges, state, full, k, mu, r, threshold)
                    stats.resamples += n_res
                if stats.subrounds % checkpoint_every == 0:
                    state = state.localCheckpoint()
                frontier = _frontier(state, k)
            if not enable:
                break
            # Validate (Alg. 5) at the end of round k: failures get
            # resampled (recounted) and may join this round's frontier.
            invalid = F.col("smode") & ~(
                (F.col("deg") * r > k)
                & (F.col("cnt") < F.col("rate") * (F.col("deg") - k) / 4.0)
            )
            state, n_res = _resample(spark, edges, state, invalid, k, mu, r, threshold)
            stats.resamples += n_res
            if n_res == 0:
                break
            frontier = _frontier(state, k)
        state = state.localCheckpoint()
        stats.rounds += 1
        k += 1
    if enable:
        stats.n_sampled = state.where(F.col("ever")).count()
    return state.select("id", F.col("core").alias("coreness")), stats


def _frontier(state: DataFrame, k: int) -> DataFrame:
    """Active, non-sampled vertices of induced degree <= k."""
    return (
        state.where((F.col("core") == -1) & ~F.col("smode") & (F.col("deg") <= k))
        .select("id")
        .localCheckpoint()
    )


def _peel_subround(state, edges, frontier, k, subround_id, seed, stats):
    """Peel ``frontier`` at coreness k: plain destinations lose one
    degree per removal message, sample-mode ones count the messages
    their per-edge Bernoulli coin keeps."""
    state = state.join(
        frontier.withColumn("is_f", F.lit(1)), "id", "left"
    ).select(
        "id", "deg",
        F.when(F.col("is_f") == 1, k).otherwise(F.col("core")).alias("core"),
        "smode", "rate", "cnt", "ever",
    )
    # Removal messages of this subround.
    msgs = edges.join(frontier.withColumnRenamed("id", "src"), "src")
    # Route per destination's sampler mode.
    routed = msgs.join(
        state.select(
            F.col("id").alias("dst"), "smode", F.col("rate").alias("p")
        ),
        "dst",
    )
    coin = (
        F.pmod(F.xxhash64("src", "dst", F.lit(subround_id), F.lit(seed)), 1_000_000)
        / 1_000_000.0
    )
    kept = routed.where(~F.col("smode") | (coin < F.col("p")))
    decr = kept.groupBy(F.col("dst").alias("id"), "smode").agg(
        F.count("*").alias("c")
    ).localCheckpoint()
    skew = decr.agg(F.max("c")).collect()[0][0]
    stats.max_dst_messages = max(stats.max_dst_messages, int(skew or 0))
    return state.join(decr.select("id", "c", F.col("smode").alias("sm2")), "id", "left").select(
        "id",
        F.when(F.col("sm2").isNull() | ~F.col("sm2"), F.col("deg") - F.coalesce("c", F.lit(0)))
        .otherwise(F.col("deg"))
        .alias("deg"),
        "core",
        "smode",
        "rate",
        F.when(F.col("sm2") == True, F.col("cnt") + F.col("c"))  # noqa: E712
        .otherwise(F.col("cnt"))
        .alias("cnt"),
        "ever",
    )


def _resample(spark, edges, state, cond, k, mu, r, threshold):
    """Recount the true induced degree of vertices matching ``cond``
    (a Column over state), reset their samplers (Alg. 5 Resample)."""
    targets = state.where(cond & (F.col("core") == -1)).select("id")
    n_res = targets.count()
    if n_res == 0:
        return state, 0
    true_deg = (
        edges.join(targets.withColumnRenamed("id", "src"), "src")
        .join(
            state.where(F.col("core") == -1).select(F.col("id").alias("dst")),
            "dst",
        )
        .groupBy(F.col("src").alias("id"))
        .agg(F.count("*").alias("td"))
    )
    state = (
        state.join(targets.withColumn("reset", F.lit(True)), "id", "left")
        .join(true_deg, "id", "left")
        .select(
            "id",
            F.when(F.col("reset"), F.coalesce("td", F.lit(0)))
            .otherwise(F.col("deg"))
            .alias("deg"),
            "core",
            F.when(F.col("reset"), F.lit(False)).otherwise(F.col("smode")).alias("smode"),
            "rate",
            "cnt",
            "ever",
            F.coalesce("reset", F.lit(False)).alias("reset"),
        )
    )
    state = _set_sampler(state, k, mu, r, threshold).localCheckpoint()
    return state, int(n_res)
