"""Differential test of the VGC and PKC local searches on generated
graphs: every config, at any queue and work cap, must return the
coreness of BZ and of ``networkx.core_number``.

The graphs are disjoint unions of a lattice with dropped edges, a
clique and isolated vertices, with hubs joined to arbitrary subsets of
them; the edge list handed to ``build_csr`` repeats edges (in either
direction) and carries self-loops. The empty graph is included.
"""
from dataclasses import replace

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import build_csr
from repro.seq.bz import bz_kcore
from repro.simcpu import run_kcore
from repro.simcpu.configs import OURS, PKC, ours_variant

VGC = ours_variant(vgc=True, sampling=False, hbs=False)
# A low threshold puts the hubs in sample mode, so the local searches
# also draw for sampled neighbours.
FIXED_CONFIGS = [OURS, VGC, PKC, replace(OURS, name="ours-s8", sample_threshold=8)]


@st.composite
def edge_lists(draw):
    """(n, src, dst) of a lattice + clique + isolated vertices + hubs."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    ids = np.arange(rows * cols).reshape(rows, cols)
    lattice = [(a, b) for a, b in zip(ids[:, :-1].ravel(), ids[:, 1:].ravel())]
    lattice += [(a, b) for a, b in zip(ids[:-1, :].ravel(), ids[1:, :].ravel())]
    keep = draw(st.lists(st.booleans(), min_size=len(lattice), max_size=len(lattice)))
    edges = [e for e, kept in zip(lattice, keep) if kept]
    base = rows * cols
    clique = draw(st.integers(0, 9))
    edges += [(base + i, base + j) for i in range(clique) for j in range(i + 1, clique)]
    n = base + clique + draw(st.integers(0, 3))  # trailing isolated vertices
    for _ in range(draw(st.integers(0, 3))):
        if n == 0:
            break
        hub = n
        n += 1
        leaves = draw(st.lists(st.integers(0, hub - 1), max_size=hub))
        edges += [(hub, u) for u in leaves]
    if edges:
        dups = draw(st.lists(st.sampled_from(edges), max_size=8))
        edges += [(b, a) for a, b in dups]
        edges += dups
    if n:
        edges += [(v, v) for v in draw(st.lists(st.integers(0, n - 1), max_size=3))]
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, e[:, 0], e[:, 1]


@settings(max_examples=200, deadline=None)
@given(
    edge_lists(),
    st.integers(1, 128),
    st.integers(0, 256),
)
def test_local_search_matches_bz_and_networkx(graph, qcap, work_cap):
    n, src, dst = graph
    g = build_csr(n, src, dst)
    g.validate()
    truth = bz_kcore(g).core
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(zip(src.tolist(), dst.tolist()))
    ref.remove_edges_from(nx.selfloop_edges(ref))
    oracle = nx.core_number(ref)
    assert truth.tolist() == [oracle[v] for v in range(n)]
    capped = replace(VGC, name="vgc-capped", vgc_queue=qcap, vgc_work_cap=work_cap)
    for algo in FIXED_CONFIGS + [capped]:
        core, met = run_kcore(g, algo)
        assert np.array_equal(core, truth), algo.name
        assert met.kmax == (truth.max() if n else 0), algo.name
