"""Maximum k'-core subgraph (Appendix B): ours-adapted, the Galois-like
baseline, and the dataflow fixpoint all agree with coreness >= k'."""
import numpy as np
import pytest

from repro.bucket.interface import PEELED
from repro.core.subgraph import (
    kcore_subgraph,
    kcore_subgraph_dataflow,
    kcore_subgraph_galois,
)
from repro.graphs import generators as gen
from repro.graphs.spark_graph import edges_to_df
from repro.seq.bz import bz_kcore
from repro.simcpu.configs import PKC
from repro.simcpu.engine import _Engine
from repro.simcpu.machine import MachineConfig


@pytest.fixture(scope="module")
def hub_graph():
    g = gen.planted_core(gen.chung_lu(1500, 10, seed=4), 100, 60, seed=4)
    return g, bz_kcore(g).core


@pytest.mark.parametrize("k", [1, 2, 4, 8, 16, 25])
def test_subgraph_matches_coreness(hub_graph, k):
    g, core = hub_graph
    mask, met = kcore_subgraph(g, k)
    assert np.array_equal(mask, core >= k)
    assert met.rounds <= k


@pytest.mark.parametrize("k", [2, 8, 25])
def test_galois_baseline_same_result(hub_graph, k):
    g, core = hub_graph
    mask, met = kcore_subgraph_galois(g, k)
    assert np.array_equal(mask, core >= k)
    assert met.algo == "galois"
    assert met.t_par_units > 0


def test_empty_core(hub_graph):
    g, core = hub_graph
    kbig = int(core.max()) + 1
    mask, _ = kcore_subgraph(g, kbig)
    assert not mask.any()


def test_k_zero_keeps_everything(hub_graph):
    g, core = hub_graph
    mask, _ = kcore_subgraph(g, 0)
    assert mask.all()


@pytest.mark.parametrize("k", [2, 6])
def test_subgraph_dataflow(spark, hub_graph, k):
    g, core = hub_graph
    ids = (
        kcore_subgraph_dataflow(spark, edges_to_df(spark, g), k)
        .toPandas()["id"]
        .to_numpy()
    )
    assert set(ids) == set(np.flatnonzero(core >= k))


def test_variants_without_techniques(hub_graph):
    g, core = hub_graph
    for vgc in (False, True):
        for sampling in (False, True):
            mask, _ = kcore_subgraph(g, 6, vgc=vgc, sampling=sampling)
            assert np.array_equal(mask, core >= 6), (vgc, sampling)


@pytest.mark.parametrize("k", [8, 25])
def test_subgraph_reports_engine_metrics(hub_graph, k):
    """k'-core queries run the decomposition's own loop, so sampling,
    k_max and bucket counters are reported as for a full run."""
    g, _ = hub_graph
    _, met = kcore_subgraph(g, k)
    assert met.n_sampled > 0
    assert met.structure
    assert met.kmax < k


@pytest.mark.parametrize("k", [1, 4, 8])
def test_stop_round_with_pkc_buffers(hub_graph, k):
    g, core = hub_graph
    eng = _Engine(g, PKC, MachineConfig(), collect=False)
    _, met = eng.run(stop_round=k)
    assert np.array_equal(eng.state != PEELED, core >= k)
    assert met.rounds <= k
