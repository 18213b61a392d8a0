"""Spark fan-out of simulation cells.

A *cell* is one (graph, algorithm, scale) triple. Cells are distributed
over the cluster with ``applyInPandas``: each task generates its graph
(deterministic seed, cached per executor process), runs the machine
simulator, and returns one metrics row. The driver gets back a pandas
frame with one row per cell — the raw material for every table.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.simcpu.machine import MachineConfig

_SCHEMA = (
    "graph string, algo string, scale string, n long, m long, kmax long, "
    "rounds long, rho long, work double, t_par double, t_seq double, "
    "bspan double, max_contention long, max_chain long, restarts long, "
    "n_sampled long, resamples long, scanned long, moves long, "
    "subrounds_json string"
)


def algo_registry() -> dict:
    """Name -> AlgoConfig for every algorithm a table can request."""
    from repro.simcpu.configs import (
        ALL_COMBOS,
        JULIENNE,
        OURS,
        OURS_PLAIN,
        PARK,
        PKC,
        bucket_variant,
    )
    from dataclasses import replace

    reg = {
        "ours": OURS,
        "plain": OURS_PLAIN,
        "julienne": JULIENNE,
        "park": PARK,
        "pkc": PKC,
        # Fig. 9/14/15: ours with 16 buckets (paper: "when no HBS is
        # used, we use 16 buckets"), with and without VGC.
        "ours-novgc-f16": replace(OURS, vgc=False, structure="fixed", name="ours-novgc-f16"),
        "ours-vgc-f16": replace(OURS, structure="fixed", name="ours-vgc-f16"),
        # Fig. 11: ours without sampling.
        "ours-nosample": replace(OURS, sampling=False, name="ours-nosample"),
    }
    for c in ALL_COMBOS:
        reg[c.name] = c
    for s in ("single", "fixed", "adaptive"):
        reg[f"buckets-{s}"] = bucket_variant(s)
    return reg


def run_cells(
    spark: SparkSession,
    cells: list[dict],
    machine: MachineConfig | None = None,
    *,
    collect_subrounds: bool = False,
) -> pd.DataFrame:
    """Execute cells in parallel; returns one metrics row per cell."""
    machine = machine or MachineConfig()
    pdf = pd.DataFrame(cells)
    pdf["cell"] = range(len(pdf))
    if "scale" not in pdf:
        pdf["scale"] = "bench"
    cdf = spark.createDataFrame(pdf)

    def _run(part: pd.DataFrame) -> pd.DataFrame:
        # Imports inside the task: executed on executor python workers.
        from repro.graphs.suite import load_graph
        from repro.seq.bz import bz_kcore
        from repro.simcpu.engine import run_kcore
        from repro.simcpu.metrics import RunMetrics

        reg = algo_registry()
        out = []
        for _, row in part.iterrows():
            g = load_graph(row["graph"], row["scale"])
            if row["algo"] == "bz":
                res = bz_kcore(g)
                t = res.work * machine.t_op
                met = RunMetrics(
                    n=g.n, m=g.m, kmax=int(res.core.max()), work=float(res.work),
                    t_par_units=t, t_seq_units=t,
                )
            else:
                _, met = run_kcore(
                    g, reg[row["algo"]], machine, collect_subrounds=collect_subrounds
                )
            key = {"graph": row["graph"], "algo": row["algo"], "scale": row["scale"]}
            out.append(key | met.row(machine))
        return pd.DataFrame(out)

    return (
        cdf.repartition(max(len(pdf), 1), "cell")
        .groupBy("cell")
        .applyInPandas(lambda _, p: _run(p), schema=_SCHEMA)
        .toPandas()
    )
