"""Machine-simulator engine: exact coreness for every algorithm config
on every mini suite graph, plus metric-shape properties.

``test_exact_coreness`` also pins each run's simulated statistics to
``tests/data/sim_listing_mini.json``, so any change to the cost model or
to what the peeling executes shows up here. After a deliberate model
change, regenerate the file with::

    PYTHONPATH=src python -m tests.test_engine
"""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.suite import SUITE, load_graph
from repro.seq.bz import bz_kcore
from repro.simcpu import AlgoConfig, MachineConfig, run_kcore
from repro.simcpu.configs import (
    ALL_COMBOS,
    JULIENNE,
    OURS,
    OURS_PLAIN,
    PARK,
    PKC,
    bucket_variant,
    ours_variant,
)

GRAPHS = list(SUITE)
VGC = ours_variant(vgc=True, sampling=False, hbs=False)
CONFIGS = {
    c.name: c
    for c in [OURS, OURS_PLAIN, JULIENNE, PARK, PKC]
    + ALL_COMBOS
    + [bucket_variant("single"), bucket_variant("fixed"), bucket_variant("adaptive")]
    # Non-default caps: spills at every pop, and sampled-neighbour draws
    # on hubs that the default threshold leaves alone.
    + [
        replace(VGC, name="vgc-q2", vgc_queue=2),
        replace(VGC, name="vgc-w4", vgc_work_cap=4),
        replace(OURS, name="ours-s8", sample_threshold=8),
    ]
}


LISTING = Path(__file__).parent / "data" / "sim_listing_mini.json"
SIM_FIELDS = (
    "rho", "rounds", "work", "t_par_units", "bspan_units", "max_contention",
    "max_chain", "resamples", "n_sampled", "structure",
)


def sim_fields(met) -> dict:
    return {f: getattr(met, f) for f in SIM_FIELDS}


@pytest.fixture(scope="module")
def listing():
    return json.loads(LISTING.read_text())


@pytest.fixture(scope="module")
def truth_cache():
    cache = {}

    def get(key):
        if key not in cache:
            cache[key] = bz_kcore(load_graph(key, "mini")).core
        return cache[key]

    return get


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("graph", GRAPHS)
def test_exact_coreness(graph, config, truth_cache, listing):
    g = load_graph(graph, "mini")
    core, met = run_kcore(g, CONFIGS[config])
    assert np.array_equal(core, truth_cache(graph)), (graph, config)
    assert met.kmax == truth_cache(graph).max()
    assert sim_fields(met) == listing[f"{graph}/{config}"], (graph, config)


@pytest.mark.parametrize("graph", ["GRID", "TW", "HCNS", "CH5"])
def test_determinism(graph):
    g = load_graph(graph, "mini")
    c1, m1 = run_kcore(g, OURS)
    c2, m2 = run_kcore(g, OURS)
    assert np.array_equal(c1, c2)
    assert m1.t_par_units == m2.t_par_units
    assert m1.rho == m2.rho


def test_offline_has_no_contention():
    g = load_graph("TW", "mini")
    _, met = run_kcore(g, JULIENNE)
    assert met.max_contention == 0


def test_online_measures_contention():
    g = load_graph("TW", "mini")
    _, met = run_kcore(g, OURS_PLAIN)
    assert met.max_contention > 1


def test_vgc_reduces_subrounds():
    g = load_graph("GRID", "mini")
    _, plain = run_kcore(g, OURS_PLAIN)
    _, vgc = run_kcore(g, ours_variant(vgc=True, sampling=False, hbs=False))
    assert vgc.rho < plain.rho / 3


def test_pkc_single_subround_per_round():
    g = load_graph("GRID", "mini")
    _, met = run_kcore(g, PKC, collect_subrounds=True)
    assert all(s <= 1 for s in met.subrounds_per_round)
    assert met.max_chain > 0


def test_park_is_work_inefficient_on_high_kmax():
    """No active set => Theta(k_max * n) frontier-scan work (Sec. 3.2);
    the active set caps total scans at sum_i |A_i| = O(n + m)."""
    g = load_graph("TW", "mini")
    _, park = run_kcore(g, PARK)
    _, plain = run_kcore(g, OURS_PLAIN)
    assert park.structure["scanned"] == park.rounds * g.n
    assert plain.structure["scanned"] < park.structure["scanned"] / 2
    assert park.work > 1.3 * plain.work


def test_work_efficiency_bound():
    """Thm 3.1: plain framework work is O(n + m)."""
    for key in ("LJ", "GRID", "CH5", "HCNS"):
        g = load_graph(key, "mini")
        _, met = run_kcore(g, OURS_PLAIN)
        assert met.work < 12 * (g.n + g.m_directed), key


def test_subround_counts_match_rho():
    g = load_graph("CUBE", "mini")
    _, met = run_kcore(g, OURS_PLAIN, collect_subrounds=True)
    assert sum(met.subrounds_per_round) == met.rho
    assert len(met.subrounds_per_round) == met.rounds


def test_offline_and_online_same_subround_structure():
    """Without VGC, both peel the same frontiers (Alg. 2 vs Alg. 3)."""
    g = load_graph("BBL", "mini")
    _, on = run_kcore(g, OURS_PLAIN, collect_subrounds=True)
    _, off = run_kcore(g, JULIENNE, collect_subrounds=True)
    assert on.subrounds_per_round == off.subrounds_per_round


def test_sampling_triggers_on_hub_graph():
    from repro.graphs import generators as gen

    g = gen.chung_lu(20_000, 30, exponent=2.0, seed=7)
    cfg = ours_variant(vgc=False, sampling=True, hbs=False)
    core, met = run_kcore(g, cfg)
    assert np.array_equal(core, bz_kcore(g).core)
    assert met.resamples > 0
    _, plain = run_kcore(g, OURS_PLAIN)
    assert met.max_contention < plain.max_contention / 4


def test_sampling_recovery_with_adversarial_mu():
    """Force sampling errors (tiny mu, aggressive threshold): the Las
    Vegas wrapper must detect and restart without sampling."""
    from repro.graphs import generators as gen

    g = gen.planted_core(gen.chung_lu(2000, 10, seed=3), 120, 80, seed=3)
    truth = bz_kcore(g).core
    bad = AlgoConfig(
        name="adversarial",
        sampling=True,
        sample_c=0.02,  # mu ~ 1: estimates are garbage
        sample_threshold=5,
        sample_r=0.9,
        seed=1,
    )
    core, met = run_kcore(g, bad)
    assert np.array_equal(core, truth)  # correct either way (Las Vegas)


def test_machine_config_scaling():
    """Doubling omega increases modeled time of sync-bound runs."""
    g = load_graph("GRID", "mini")
    _, a = run_kcore(g, JULIENNE, MachineConfig(omega=300.0))
    _, b = run_kcore(g, JULIENNE, MachineConfig(omega=600.0))
    assert b.t_par_units > a.t_par_units
    assert a.work == b.work  # work is measured, not modeled


def test_seq_time_equals_work():
    g = load_graph("AF", "mini")
    mc = MachineConfig()
    _, met = run_kcore(g, OURS_PLAIN, mc)
    assert met.t_seq_units == met.work * mc.t_op


def test_self_speedup_at_bench_scale():
    """Mini graphs are sync-bound by construction; at bench scale the
    full design must show real parallel speedup."""
    g = load_graph("AF", "bench")
    _, met = run_kcore(g, OURS)
    assert met.self_speedup() > 5


def test_rounds_equal_kmax_plus_one():
    g = load_graph("CUBE", "mini")
    _, met = run_kcore(g, OURS_PLAIN)
    assert met.rounds == met.kmax + 1


if __name__ == "__main__":
    rows = {
        f"{graph}/{config}": sim_fields(run_kcore(load_graph(graph, "mini"), algo)[1])
        for graph in GRAPHS
        for config, algo in sorted(CONFIGS.items())
    }
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in rows.items())
    LISTING.parent.mkdir(exist_ok=True)
    LISTING.write_text("{\n" + ",\n".join(lines) + "\n}\n")
