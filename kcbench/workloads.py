"""The benchmark's workloads, each built so one optimisable layer does
most of its work there and almost none in the other.

- ``sparse-cascade``: lattice, mesh and road analogues with tiny degrees
  and long peeling cascades. VGC's per-vertex local search (``simcpu``)
  dominates host time; k_max <= 3 < theta = 16, so HBS never engages and
  sampling never triggers: ``bucket`` and ``hashbag`` do almost nothing.
- ``dense-hubs``: high-coreness and hub graphs (HCNS, TW- and SD-like
  power-law graphs with a planted dense core) plus max k'-core queries.
  k_max is in the hundreds, so adaptive HBS (``bucket`` over
  ``hashbag``) engages and hubs enter sample mode. Graphs where VGC
  dominates (the BA analogue of HPL) are left out to keep the split.

Every workload takes a seed; the same seed gives the same inputs. A pass
is the workload's list of timed operations (``Op``), run back to back.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.graphs import generators as gen
from repro.graphs.csr import CSR, build_csr, edge_array
from repro.seq.bz import bz_kcore, verify_coreness
from repro.simcpu.configs import JULIENNE, OURS, OURS_PLAIN, PARK, PKC, ours_variant
from repro.simcpu.engine import run_kcore
from repro.simcpu.machine import MachineConfig

MACHINE = MachineConfig()
VGC = ours_variant(vgc=True, sampling=False, hbs=False)
SAMPLE = ours_variant(vgc=False, sampling=True, hbs=False)
HBS = ours_variant(vgc=False, sampling=False, hbs=True)
SPARSE_ALGOS = [OURS, VGC, PKC, OURS_PLAIN, JULIENNE]
DENSE_ALGOS = [OURS, SAMPLE, HBS, PARK, JULIENNE]
ALL_ALGOS = ["ours", "vgc", "pkc", "plain", "julienne", "sample", "hbs", "park"]


@dataclass
class Op:
    """One timed call of a pass.

    ``check`` and ``stats`` run after the pass, outside the timed region.
    ``stats`` returns rows of the call's simulated statistics, which must
    repeat exactly on every pass; each row names its graph, algorithm and
    kind.
    """

    span: str
    graph: str
    algo: str
    edges: int
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    stats: Callable[[Any], list[dict]]


def sim_row(met, graph: str, algo: str, kind: str = "simcpu") -> dict:
    """Exact simulated statistics of one simulator call."""
    s = met.structure
    return {
        "graph": graph,
        "algo": algo,
        "kind": kind,
        "rho": met.rho,
        "rounds": met.rounds,
        "work": float(met.work),
        "bspan": float(met.bspan_units),
        "max_contention": met.max_contention,
        "max_chain": met.max_chain,
        "resamples": met.resamples,
        "restarts": met.restarts,
        "n_sampled": met.n_sampled,
        "scanned": s.get("scanned", 0),
        "moves": s.get("moves", 0),
        "redistributed": s.get("redistributed", 0),
        "stale_filtered": s.get("stale_filtered", 0),
        "t_par": met.t_par_seconds(MACHINE),
    }


def relabelled(graphs: dict[str, CSR], seed: int) -> dict[str, CSR]:
    """Every graph under a relabelling of vertex ids drawn from the seed.

    The graph structures themselves are fixed: subround counts of
    randomly degraded lattices are extreme-value statistics (the longest
    cascade), and across structure seeds julienne's simulated time on
    the road analogue spread by 27%, which would swamp any bound."""
    rng = np.random.default_rng(seed)
    out = {}
    for k, g in graphs.items():
        perm = rng.permutation(g.n)
        e = edge_array(g)
        out[k] = build_csr(g.n, perm[e[:, 0]], perm[e[:, 1]])
    return out


class Workload:
    """Inputs made from a seed, the ops of one pass, and their checks."""

    name = ""

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.tracer = tracer
        self.graphs: dict[str, CSR] = {}
        self.truth: dict[str, np.ndarray] = {}
        self.bz_work = 0

    def make_graphs(self) -> dict[str, CSR]:
        raise NotImplementedError

    def setup(self) -> None:
        """One set-up: generate the inputs and their BZ ground truth."""
        with self.tracer.span("graphs.generate"):
            self.graphs = self.make_graphs()
        with self.tracer.span("seq.bz"):
            bz = {k: bz_kcore(g) for k, g in self.graphs.items()}
        self.truth = {k: r.core for k, r in bz.items()}
        self.bz_work = sum(r.work for r in bz.values())

    def ops(self) -> list[Op]:
        raise NotImplementedError

    # -- simulator ops -----------------------------------------------------

    def _kcore_op(self, key: str, algo) -> Op:
        g, truth = self.graphs[key], self.truth[key]
        return Op(
            span=f"simcpu.run.{algo.name}",
            graph=key,
            algo=algo.name,
            edges=g.m,
            run=lambda: run_kcore(g, algo, MACHINE),
            check=lambda r: bool(np.array_equal(r[0], truth) and verify_coreness(g, r[0])),
            stats=lambda r: [sim_row(r[1], key, algo.name)],
        )

    def _subgraph_op(self, key: str, kprime: int) -> Op:
        from repro.core.subgraph import kcore_subgraph

        g, truth = self.graphs[key], self.truth[key]
        name = f"ours-subgraph-k{kprime}"
        return Op(
            span="simcpu.subgraph",
            graph=key,
            algo=name,
            edges=g.m,
            run=lambda: kcore_subgraph(g, kprime, machine=MACHINE),
            check=lambda r: bool(np.array_equal(r[0], truth >= kprime)),
            stats=lambda r: [sim_row(r[1], key, name, "subgraph")],
        )


class SparseCascade(Workload):
    """Road, mesh and lattice analogues through five peeling algorithms."""

    name = "sparse-cascade"

    def make_graphs(self):
        return relabelled({
            "road": gen.grid_2d(80, 80, drop_prob=0.12, diag_prob=0.05, seed=1),
            "mesh": gen.honeycomb(76, 76, hole_prob=0.06, seed=2),
            "cube": gen.cube_3d(17),
        }, self.seed)

    def ops(self):
        return [self._kcore_op(k, a) for k in self.graphs for a in SPARSE_ALGOS]


class DenseHubs(Workload):
    """High-coreness and hub graphs through five peeling algorithms, plus
    max k'-core queries on the planted-core graph."""

    name = "dense-hubs"

    def make_graphs(self):
        return relabelled({
            "hcns": gen.hcns(240),
            "tw": gen.planted_core(
                gen.chung_lu(6000, 30, 1.9, seed=4, max_weight_frac=0.04), 250, 200, seed=4
            ),
            "sd": gen.planted_core(gen.chung_lu(6000, 26, 2.0, seed=7), 220, 170, seed=7),
        }, self.seed)

    def ops(self):
        out = [self._kcore_op(k, a) for k in self.graphs for a in DENSE_ALGOS]
        kmax = int(self.truth["tw"].max())
        out += [self._subgraph_op("tw", kp) for kp in (kmax // 3, kmax // 2)]
        return out


WORKLOADS = {w.name: w for w in (SparseCascade, DenseHubs)}


def geomean(xs) -> float:
    """Geometric mean; 0 when there is nothing to average (every run of
    a graph failed)."""
    xs = list(xs)
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0
