"""Simulated-multicore execution of the paper's peeling algorithms.

One entry point, ``run_kcore(g, algo, machine)``, executes the peeling
process described by an :class:`AlgoConfig` on a CSR graph:

- **online** peeling (Alg. 3; ParK/PKC/ours): degree decrements are
  applied immediately; per-subround per-location concurrent-update
  counts are measured and charged as contention.
- **offline** peeling (Alg. 2; Julienne): the same decrements are
  applied through a histogram; no contention, but each subround pays
  3 global syncs and the histogram pass.
- **sampling** (Alg. 4/5): high-degree vertices enter sample mode; a
  removal hits their sample counter with probability ``rate`` instead
  of decrementing the degree. Validation runs each round; vertices that
  collect mu samples are recounted and resampled. Correctness is Las
  Vegas: the final coreness is verified with the h-index fixpoint check
  and on failure the run restarts without sampling (Sec. 4.1.4).
- **VGC** (Sec. 4.2): each frontier vertex runs a local search over a
  FIFO queue capped at ``vgc_queue`` entries, peeling cascades inside
  the subround; the longest chain is charged on the critical path.
- **PKC local buffers**: unbounded per-thread chains — exactly one
  subround per round, with the max thread chain on the critical path
  (the load-imbalance behaviour of Sec. 4.2).
- the frontier/bucket structure is pluggable (scan-all, single bucket,
  fixed-b, HBS, adaptive HBS); its scans/moves/redistributions are
  charged as work.

The executions are real (every decrement happens on real arrays; the
result is exact coreness, asserted against BZ in tests); only the
conversion of measured events to time uses the machine cost model.

How the host runs the VGC/PKC local searches is separate from what they
are charged. Each subround's searches run element by element on Python
lists: ``indptr``/``adj`` are mirrored once per run, on the first local
search, and ``deg``/``state``/``smode`` are snapshotted after the
subround's batch phase and written back, touched entries only, when its
searches end. The peeling and its charges depend only on the FIFO pop
order, the take/spill prefix split, one ``rng.random`` draw per pop
with active sampled neighbours (in neighbour order) and the
sample-counter increments, which the list form keeps exactly; the cost
model does not see how the host runs the search.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.bucket import make_structure
from repro.bucket.interface import ACTIVE, PEELED, QUEUED
from repro.graphs.csr import CSR, gather_neighbors
from repro.simcpu.machine import MachineConfig
from repro.simcpu.metrics import RunMetrics


@dataclass(frozen=True)
class AlgoConfig:
    """One peeling algorithm = one point in the design space."""

    name: str = "ours"
    peel: str = "online"  # "online" | "offline"
    active_set: bool = True  # False: ParK/PKC-style full-V scans
    structure: str = "single"  # single | fixed | hbs | adaptive
    b: int = 16  # fixed-bucket count (Julienne uses 16)
    theta: int = 16  # adaptive HBS switch round
    vgc: bool = False
    vgc_queue: int = 128
    # VGC engages for *low-degree* vertices (Sec. 4.2); chains are also
    # capped by total touched work ("controlling ... the number of
    # touched vertices", Sec. 4.2), so one local search never dominates
    # a subround's critical path — the paper's guideline is chain work
    # L below the sync cost omega's order of magnitude. High-degree
    # frontier vertices peel through the batch (inner-parallel) path.
    vgc_work_cap: int = 256
    local_buffer: bool = False  # PKC unbounded thread-local buffers
    sampling: bool = False
    sample_c: float = 2.5  # mu = 4 * c * ln n  (paper: c > 2)
    sample_r: float = 0.1  # resample when degree drops to r * d
    sample_threshold: int = 0  # 0 = auto: max(64, 2 * mu)
    seed: int = 42

    def structure_name(self) -> str:
        return self.structure if self.active_set else "scan_all"


def run_kcore(
    g: CSR,
    algo: AlgoConfig,
    machine: MachineConfig | None = None,
    *,
    collect_subrounds: bool = False,
) -> tuple[np.ndarray, RunMetrics]:
    """Run one peeling algorithm; return (coreness, metrics).

    Las Vegas wrapper: if the sampled run fails the coreness fixpoint
    verification (possible only with adversarially small mu), restart
    without sampling and count the restart.
    """
    machine = machine or MachineConfig()
    core, metrics = _Engine(g, algo, machine, collect_subrounds).run()
    if algo.sampling:
        from repro.seq.bz import verify_coreness

        if not verify_coreness(g, core):
            retry = replace(algo, sampling=False)
            core, metrics = _Engine(g, retry, machine, collect_subrounds).run()
            metrics.restarts = 1
            metrics.algo = algo.name
    return core, metrics


class _Engine:
    """Mutable state for a single simulated run."""

    def __init__(self, g: CSR, algo: AlgoConfig, machine: MachineConfig, collect: bool):
        self.g = g
        self.algo = algo
        self.mc = machine
        self.collect = collect
        self.n = g.n
        self.indptr = g.indptr
        self.adj = g.adj
        self.deg = g.degrees().astype(np.int64)
        self.state = np.zeros(self.n, dtype=np.int8)
        self.core = np.zeros(self.n, dtype=np.int64)
        self.rng = np.random.default_rng(algo.seed)
        self.structure = make_structure(
            algo.structure_name(),
            self.n,
            **(
                {"b": algo.b}
                if algo.structure_name() == "fixed"
                else {"theta": algo.theta}
                if algo.structure_name() == "adaptive"
                else {}
            ),
        )
        # Sampling state (Alg. 5's sampler struct, vectorized).
        self.mu = math.ceil(4 * algo.sample_c * math.log(max(self.n, 2)))
        self.threshold = algo.sample_threshold or max(64, 2 * self.mu)
        self.smode = np.zeros(self.n, dtype=bool)
        self.srate = np.zeros(self.n, dtype=np.float64)
        self.scnt = np.zeros(self.n, dtype=np.int64)
        self.ever_sampled = np.zeros(self.n, dtype=bool)
        # Compacted neighbor-list size per vertex: each recount scans
        # the list compacted by the previous recount, so total recount
        # cost per vertex is d + r*d + r^2*d + ... = O(d(v)), the
        # paper's Sec. 4.1.5 bound.
        self.scan_size = self.deg.copy()
        self.met = RunMetrics(algo=algo.name, n=self.n, m=g.m)

    # -- cost helpers -------------------------------------------------------

    def _charge_parallel(self, work: float, syncs: int, span_term: float = 0.0):
        """One parallel step: work/P + sync cost + critical-path term."""
        m = self.met
        mc = self.mc
        m.work += work
        m.t_par_units += work * mc.t_op / mc.p + syncs * mc.omega + span_term
        m.bspan_units += syncs * mc.omega_span + span_term

    def _contention(self, cmax: int) -> float:
        extra = max(0, int(cmax) - 1) * self.mc.t_atomic
        self.met.max_contention = max(self.met.max_contention, int(cmax))
        self.met.contention_units += extra
        return extra

    # -- sampling helpers ----------------------------------------------------

    def _set_sampler(self, ids: np.ndarray, k: int) -> None:
        """Alg. 5 SetSampler, vectorized over ids."""
        if len(ids) == 0:
            return
        r = self.algo.sample_r
        d = self.deg[ids]
        on = (d * r > k) & (d > self.threshold)
        self.smode[ids] = on
        sel = ids[on]
        # The threshold keeps rate < 1 for sane parameters; clip so an
        # adversarial mu/threshold cannot produce an invalid Bernoulli.
        self.srate[sel] = np.minimum(
            1.0, self.mu / ((1.0 - r) * self.deg[sel])
        )
        self.scnt[sel] = 0
        self.ever_sampled[sel] |= True

    def _resample(self, ids: np.ndarray, k: int) -> np.ndarray:
        """Alg. 5 Resample: recount true induced degree; returns vertices
        that must join the frontier."""
        ids = ids[self.state[ids] != PEELED]
        if len(ids) == 0:
            return ids
        nbrs = gather_neighbors(self.indptr, self.adj, ids)
        alive = (self.state[nbrs] != PEELED).astype(np.int64)
        cnts = self.indptr[ids + 1] - self.indptr[ids]
        ends = np.cumsum(cnts)
        true_deg = np.add.reduceat(alive, ends - cnts)
        self.deg[ids] = true_deg
        self.smode[ids] = False
        self.met.resamples += len(ids)
        # Charge the compacted list size (see scan_size above), not the
        # full original adjacency the simulation conveniently gathers.
        self._charge_parallel(float(self.scan_size[ids].sum() + len(ids)), 0)
        self.scan_size[ids] = true_deg
        self._set_sampler(ids, k)
        self.met.work += self.structure.on_decrement(ids, self.deg)
        joins = ids[(self.deg[ids] <= k) & (self.state[ids] == ACTIVE)]
        self.state[joins] = QUEUED
        return joins

    def _validate(self, k: int) -> np.ndarray:
        """Alg. 5 Validate over all sample-mode vertices; resample the
        failures. Returns vertices that must join the frontier."""
        sm = np.flatnonzero(self.smode & (self.state == ACTIVE))
        if len(sm) == 0:
            return sm
        self.met.validations += len(sm)
        r = self.algo.sample_r
        ok = (self.deg[sm] * r > k) & (
            self.scnt[sm] < self.srate[sm] * (self.deg[sm] - k) / 4.0
        )
        # Validation piggybacks on the frontier-extraction pass: charge
        # its work but no extra global sync.
        self._charge_parallel(float(len(sm)), 0)
        return self._resample(sm[~ok], k)

    # -- peel variants -------------------------------------------------------

    def _decrement_batch(
        self, targets: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
        """Apply decrements for active targets (split sampled/plain).
        Returns (next frontier adds, decremented ids, cmax, resample set)."""
        act = targets[self.state[targets] == ACTIVE]
        resample_set = np.empty(0, dtype=np.int64)
        cmax = 0
        dec_ids = np.empty(0, dtype=np.int64)
        dropped = np.empty(0, dtype=np.int64)
        if self.algo.peel == "online" and len(targets):
            # Alg. 3 decrements every neighbor atomically — including
            # already-queued/peeled ones — so contention is measured
            # over ALL targets, not just the active ones. Sample-mode
            # targets are excluded: their atomics are rate-thinned (the
            # binomial hits below contribute their own cmax).
            raw = targets[~self.smode[targets]] if self.algo.sampling else targets
            if len(raw):
                _, all_cts = np.unique(raw, return_counts=True)
                cmax = int(all_cts.max())
        if self.algo.sampling:
            sm = self.smode[act]
            plain, sampled = act[~sm], act[sm]
        else:
            plain, sampled = act, act[:0]
        if len(plain):
            uts, cts = np.unique(plain, return_counts=True)
            self.deg[uts] -= cts
            sel = (self.deg[uts] <= k) & (self.state[uts] == ACTIVE)
            dropped = uts[sel]
            self.state[dropped] = QUEUED
            dec_ids = uts
        if len(sampled):
            sts, scts = np.unique(sampled, return_counts=True)
            hits = self.rng.binomial(scts, self.srate[sts])
            self.scnt[sts] += hits
            if hits.size:
                cmax = max(cmax, int(hits.max()))
            resample_set = sts[self.scnt[sts] >= self.mu]
        return dropped, dec_ids, cmax, resample_set

    def _peel_batch(self, frontier: np.ndarray, k: int) -> np.ndarray:
        """Vectorized one-subround peel (online or offline costing)."""
        targets = gather_neighbors(self.indptr, self.adj, frontier)
        dropped, dec_ids, cmax, resample_set = self._decrement_batch(targets, k)
        gathered = float(len(frontier) + len(targets))
        if self.algo.peel == "offline":
            hist = self.mc.hist_passes * len(targets) + len(dec_ids)
            self._charge_parallel(gathered + hist, self.mc.offline_syncs)
        else:
            span = self._contention(cmax)
            self._charge_parallel(gathered, self.mc.online_syncs, span)
        self.met.work += self.structure.on_decrement(dec_ids, self.deg)
        if len(resample_set):
            joins = self._resample(resample_set, k)
            dropped = np.concatenate([dropped, joins])
        return dropped

    @cached_property
    def _csr_lists(self) -> tuple[list, list]:
        """Python-list mirrors of ``indptr``/``adj`` for the local
        searches, built once per run on first use. The ``adj`` mirror
        shares one int object per vertex id, so it costs a pointer per
        directed edge."""
        ids = np.arange(self.n).astype(object)
        return self.indptr.tolist(), ids[self.adj].tolist()

    def _local_search(
        self,
        v: int,
        k: int,
        qcap: float,
        work_cap: float,
        deg: list,
        state: list,
        smode: list | None,
        log: tuple[list, list, list, list, list],
    ) -> int:
        """Run one local search from v (already peeled by the caller).
        Chaining stops at ``qcap`` enqueued vertices or ``work_cap``
        touched work. Returns the chain work.

        Works element by element on the subround's list snapshots
        ``deg``/``state``/``smode`` and appends to ``log`` = (popped,
        decremented, taken, spilled, full-sampler) ids; the caller
        writes the touched entries back. Per popped vertex, its
        neighbours are visited in adjacency order: active plain ones
        are decremented, and those dropping to <= k are taken into the
        FIFO queue until the first one that breaks the queue or work
        budget; that one and every later one spill to the next
        frontier (both budgets only tighten, so this is a prefix
        split). Active sampled neighbours then get one
        ``rng.random(len(sampled))`` draw, in neighbour order.
        """
        ip, adj = self._csr_lists
        popped, dec, taken, spilled, full = log
        sampling = self.algo.sampling
        queue: deque = deque([v])
        enqueued = 1
        chain_work = 0
        while queue:
            x = queue.popleft()
            popped.append(x)
            lo, hi = ip[x], ip[x + 1]
            chain_work += 1 + hi - lo
            budget = chain_work
            chaining = True
            sampled = []
            for u in adj[lo:hi]:
                if state[u] != ACTIVE:
                    continue
                if sampling and smode[u]:
                    sampled.append(u)
                    continue
                d = deg[u] - 1  # simple graph: no dups in one list
                deg[u] = d
                dec.append(u)
                if d > k:
                    continue
                # Chain only while the queue and work budgets last, and
                # never chain through a high-degree vertex (its
                # neighbors are better peeled inner-parallel). The work
                # budget is cumulative over this pop's dropped vertices.
                if chaining:
                    budget += ip[u + 1] - ip[u]
                    chaining = enqueued < qcap and budget <= work_cap
                if chaining:
                    state[u] = PEELED
                    taken.append(u)
                    queue.append(u)
                    enqueued += 1
                else:
                    state[u] = QUEUED
                    spilled.append(u)
            if sampled:
                draws = self.rng.random(len(sampled)).tolist()
                for u, r in zip(sampled, draws):
                    if r < self.srate[u]:
                        self.scnt[u] += 1
                        if self.scnt[u] >= self.mu:
                            full.append(u)
        return chain_work

    def _peel_local(
        self, frontier: np.ndarray, k: int, *, per_thread: bool
    ) -> tuple[np.ndarray, int]:
        """VGC (bounded local searches; high-degree seeds peel through
        the inner-parallel batch path) or PKC (per_thread=True,
        unbounded per-thread chains). Returns (next frontier, vertices
        peeled inside chains).

        After the batch phase, ``deg``/``state``/``smode`` are
        snapshotted as Python lists, every local search of the subround
        runs on them, and only the touched entries are written back:
        decremented degrees, taken vertices (PEELED, core k) and spilled
        ones (QUEUED). Contention, DecreaseKey moves and resampling are
        computed, vectorised, from the ids the searches logged.
        """
        next_parts: list = []
        resample_parts: list = []
        if per_thread:
            qcap = work_cap = math.inf
            low, high = frontier, frontier[:0]
        else:
            qcap = self.algo.vgc_queue
            work_cap = self.algo.vgc_work_cap
            alen = self.indptr[frontier + 1] - self.indptr[frontier]
            low, high = frontier[alen <= work_cap], frontier[alen > work_cap]
        total_work = 0.0
        cmax = 0
        # Batch (inner-parallel) phase for high-degree seeds.
        if len(high):
            targets = gather_neighbors(self.indptr, self.adj, high)
            dropped, dec_ids, bc, resample_set = self._decrement_batch(targets, k)
            total_work += len(high) + len(targets)
            cmax = max(cmax, bc)
            if len(dropped):
                next_parts.append(dropped)
            if len(dec_ids):
                self.met.work += self.structure.on_decrement(dec_ids, self.deg)
            if len(resample_set):
                resample_parts.append(resample_set)
        # Local searches for low-degree seeds, on list snapshots.
        chains: list = []
        taken: list = []
        if len(low):
            deg = self.deg.tolist()
            state = self.state.tolist()
            smode = self.smode.tolist() if self.algo.sampling else None
            log = popped, dec, taken, spilled, full = [], [], [], [], []
            chains = [
                self._local_search(v, k, qcap, work_cap, deg, state, smode, log)
                for v in low.tolist()
            ]
            total_work += sum(chains)
            if taken:
                self.state[taken] = PEELED
                self.core[taken] = k
            if spilled:
                self.state[spilled] = QUEUED
                next_parts.append(np.array(spilled, dtype=np.int64))
            if full:
                resample_parts.append(np.array(full, dtype=np.int64))
            # Contention: per-location atomic counts across the
            # subround, over every non-sampled neighbor of every pop.
            touched = gather_neighbors(
                self.indptr, self.adj, np.array(popped, dtype=np.int64)
            )
            if self.algo.sampling:
                touched = touched[~self.smode[touched]]
            if len(touched):
                _, cts = np.unique(touched, return_counts=True)
                cmax = max(cmax, int(cts.max()))
            if dec:
                uts = np.unique(np.array(dec, dtype=np.int64))
                self.deg[uts] = [deg[u] for u in uts.tolist()]
                self.met.work += self.structure.on_decrement(uts, self.deg)
        if not chains:
            chain = 0.0
        elif per_thread:  # seed i runs on thread i mod P
            p = self.mc.p
            chain = float(max(sum(chains[i::p]) for i in range(p)))
        else:
            chain = float(max(chains))
        self.met.max_chain = max(self.met.max_chain, int(chain))
        span = self._contention(cmax) + max(
            0.0, chain - total_work / self.mc.p
        )
        self._charge_parallel(float(total_work + len(frontier)), 1, span)
        out = next_parts
        if resample_parts:
            joins = self._resample(np.unique(np.concatenate(resample_parts)), k)
            out = next_parts + [joins]
        nxt = (
            np.unique(np.concatenate(out)) if out else np.empty(0, dtype=np.int64)
        )
        return nxt, len(taken)

    # -- main loop -----------------------------------------------------------

    def run(self, stop_round: int | None = None) -> tuple[np.ndarray, RunMetrics]:
        """Peel to completion, or stop before round ``stop_round``: then
        the vertices of coreness < stop_round are PEELED and the rest
        form the maximum stop_round-core (Appendix B; with sampling, the
        caller checks this Las Vegas result)."""
        build_cost = self.structure.build(np.arange(self.n, dtype=np.int64), self.deg)
        self._charge_parallel(build_cost, 1)
        if self.algo.sampling:
            self._set_sampler(np.arange(self.n, dtype=np.int64), 0)
            self._charge_parallel(float(self.n), 1)
        remaining = self.n
        k = 0
        while remaining > 0 and (stop_round is None or k < stop_round):
            frontier, cost = self.structure.next_frontier(k, self.deg, self.state)
            self._charge_parallel(cost, 1)
            self.state[frontier] = QUEUED
            subrounds = 0
            while True:
                while len(frontier):
                    self.core[frontier] = k
                    self.state[frontier] = PEELED
                    remaining -= len(frontier)
                    self.met.rho += 1
                    subrounds += 1
                    if self.algo.local_buffer:
                        frontier, inside = self._peel_local(
                            frontier, k, per_thread=True
                        )
                        remaining -= inside
                    elif self.algo.vgc:
                        frontier, inside = self._peel_local(
                            frontier, k, per_thread=False
                        )
                        remaining -= inside
                    else:
                        frontier = self._peel_batch(frontier, k)
                if not self.algo.sampling:
                    break
                # Validate at the END of round k, before k advances: a
                # sampled vertex whose true induced degree dropped to k
                # during this round's cascades must be peeled *in* this
                # round (coreness k), not detected one round late with
                # coreness k+1 (Sec. 4.1.2/4.1.4).
                frontier = self._validate(k)
                if len(frontier) == 0:
                    break
            if self.collect:
                self.met.subrounds_per_round.append(subrounds)
            self.met.rounds += 1
            k += 1
            if k > self.n + 2:  # safety net; cannot happen on valid input
                raise RuntimeError("peeling failed to terminate")
        self.met.kmax = int(self.core.max()) if self.n else 0
        self.met.n_sampled = int(self.ever_sampled.sum())
        self.met.t_seq_units = self.met.work * self.mc.t_op
        self.met.structure = self.structure.counters()
        return self.core, self.met
