"""Dataflow (Spark) implementations of the paper's algorithms:
framework (Alg. 1 offline), VGC block cascades, sampling. Results are
checked against BZ through the DuckDB oracle.

Each Spark iteration costs ~1s of driver/scheduler time, so these
integration tests use tiny graphs with single-digit subround counts;
benchmark-scale behaviour is covered by the machine simulator."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.graphs.spark_graph import edges_to_df
from repro.oracle import assert_equivalent
from repro.seq.bz import bz_kcore


def _expected_df(g):
    """BZ coreness for the non-isolated vertices, as a pandas table the
    oracle can treat as ground truth."""
    core = bz_kcore(g).core
    deg = g.degrees()
    ids = np.flatnonzero(deg > 0)
    return pd.DataFrame({"id": ids, "coreness": core[ids]})


GRAPHS = {
    "mesh": lambda: gen.honeycomb(10, 10, hole_prob=0.08, seed=1),
    "social": lambda: gen.chung_lu(150, 6, seed=2),
    "hcns": lambda: gen.hcns(8),
    "knn": lambda: gen.knn_graph(120, 3, seed=3),
}


@pytest.fixture(scope="module")
def graph_and_truth():
    out = {}
    for name, mk in GRAPHS.items():
        g = mk()
        out[name] = (g, _expected_df(g))
    return out


@pytest.mark.parametrize("name", list(GRAPHS))
def test_kcore_dataflow_oracle(spark, graph_and_truth, name):
    from repro.core.framework import kcore_dataflow

    g, expected = graph_and_truth[name]
    result, stats = kcore_dataflow(spark, edges_to_df(spark, g))
    assert_equivalent(result, "SELECT id, coreness FROM expected", expected=expected)
    # Rounds with an empty initial frontier contribute zero subrounds.
    assert stats.rounds >= 1 and stats.subrounds >= 1


def test_kcore_dataflow_bucketed_oracle(spark, graph_and_truth):
    """Julienne-style pooled frontiers (bucket_width=4) stay exact and
    rebuild the pool ~4x less often than there are rounds."""
    from repro.core.framework import kcore_dataflow

    g, expected = graph_and_truth["hcns"]
    result, stats = kcore_dataflow(spark, edges_to_df(spark, g), bucket_width=4)
    assert_equivalent(result, "SELECT id, coreness FROM expected", expected=expected)
    assert stats.pool_builds <= stats.rounds / 2


@pytest.mark.parametrize("name", ["mesh", "hcns"])
def test_vgc_dataflow_exact(spark, graph_and_truth, name):
    from repro.core.vgc import kcore_dataflow_vgc

    g, _ = graph_and_truth[name]
    core, stats = kcore_dataflow_vgc(spark, g, n_blocks=4)
    assert np.array_equal(core, bz_kcore(g).core)


def test_vgc_dataflow_reduces_subrounds(spark):
    from repro.core.framework import kcore_dataflow
    from repro.core.vgc import kcore_dataflow_vgc

    g = gen.grid_2d(16, 16)
    truth = bz_kcore(g).core
    _, plain = kcore_dataflow(spark, edges_to_df(spark, g))
    core, vgc = kcore_dataflow_vgc(spark, g, n_blocks=4, queue_cap=128)
    assert np.array_equal(core, truth)
    assert vgc.subrounds < plain.subrounds


def _hub_graph():
    """Two 400-leaf hubs + a 10-clique: triggers sample mode."""
    src, dst = [], []
    for h in (0, 1):
        src += [h] * 400
        dst += list(range(12, 412))
    cl = np.arange(2, 12)
    a, b = np.meshgrid(cl, cl)
    m = a < b
    src += list(a[m]) + [0, 1]
    dst += list(b[m]) + [2, 3]
    from repro.graphs.csr import build_csr

    return build_csr(412, np.array(src), np.array(dst))


def test_sampling_dataflow_exact_and_reduces_skew(spark):
    from repro.core.sampling import kcore_dataflow_sampling

    g = _hub_graph()
    expected = _expected_df(g)
    edges = edges_to_df(spark, g)
    res_s, st_s = kcore_dataflow_sampling(spark, edges, enable=True, seed=3)
    assert_equivalent(res_s, "SELECT id, coreness FROM expected", expected=expected)
    res_p, st_p = kcore_dataflow_sampling(spark, edges, enable=False)
    assert_equivalent(res_p, "SELECT id, coreness FROM expected", expected=expected)
    assert st_s.resamples > 0
    assert st_s.n_sampled == 2  # the two hubs
    assert st_p.n_sampled == 0
    # The dataflow contention analogue: hot-key rows in the histogram
    # shuffle drop by an order of magnitude under sampling.
    assert st_s.max_dst_messages < st_p.max_dst_messages / 3


def _late_validation_graph(seed):
    """Two hubs (0, 1) sharing leaves 6..205, a 4-clique on 2..5 and
    edges 0-2, 1-3, with ids relabelled by ``seed``. Each hub has true
    coreness 2, but stays in sample mode until its leaves are gone."""
    src = [0] * 200 + [1] * 200 + [0, 1]
    dst = list(range(6, 206)) * 2 + [2, 3]
    for i in range(2, 6):
        for j in range(i + 1, 6):
            src.append(i)
            dst.append(j)
    perm = np.random.default_rng(seed).permutation(206)
    from repro.graphs.csr import build_csr

    return build_csr(206, perm[src], perm[dst])


@pytest.mark.parametrize("seed", [1, 2])
def test_sampling_dataflow_validates_at_end_of_round(spark, seed):
    """Validate must run before k advances: a hub whose true degree
    fell to k during round k is peeled at k, not one round late."""
    from repro.core.sampling import kcore_dataflow_sampling

    g = _late_validation_graph(seed)
    res, stats = kcore_dataflow_sampling(spark, edges_to_df(spark, g), seed=seed)
    got = res.toPandas().sort_values("id")
    assert got["id"].tolist() == list(range(g.n))
    assert got["coreness"].tolist() == bz_kcore(g).core.tolist()
    assert stats.n_sampled == 2
