"""Render EXPERIMENTS.md from the results/*.csv artifacts.

Regenerate with:  python -m repro.tables.report
(after `pytest benchmarks/ --benchmark-only` or the jobs/ entrypoints
have refreshed results/).
"""
from __future__ import annotations

import pathlib

import pandas as pd

from repro.graphs.suite import SUITE
from repro.tables.table3 import COMBOS, PAPER_TABLE3

ROOT = pathlib.Path(__file__).resolve().parents[3]
RESULTS = ROOT / "results"


def _read(name: str) -> pd.DataFrame:
    # keep_default_na=False: the road graph "NA" is a graph key, not NaN.
    return pd.read_csv(RESULTS / name, keep_default_na=False, na_values=[""])


def _fmt(v, digits=4):
    if v is None or v == "" or (isinstance(v, float) and pd.isna(v)):
        return "-"
    if isinstance(v, float):
        return f"{v:.{digits}g}"
    return str(v)


def table2_section() -> str:
    df = _read("table2.csv")
    out = [
        "### Table 2 — overall performance",
        "",
        "Measured values are simulated seconds (see README); paper values are",
        "wall-clock seconds on the authors' 96-core machine. Diff the *shape*:",
        "per-graph winner, relative factors, self-speedup ranges. `-` = the",
        "paper reports T/O, OOM, or leaves the cell blank.",
        "",
        "| graph | n (ours/paper) | m (ours/paper) | kmax (o/p) | rho (o/p) | spd (o/p) "
        "| ours | Julienne (o/p rel.) | ParK (o/p rel.) | PKC (o/p rel.) | winner (o/p) |",
        "|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for _, r in df.iterrows():
        spec = SUITE[r["graph"]]
        p = spec.paper

        def rel(col, pcol):
            ours_rel = r[col] / r["par"]
            if p.get(pcol) is None or p.get("par") in (None, ""):
                return f"{ours_rel:.2f}x / -"
            return f"{ours_rel:.2f}x / {float(p[pcol]) / float(p['par']):.2f}x"

        algs = {"ours": r["par"], "Julienne": r["julienne"], "ParK": r["park"], "PKC": r["pkc"]}
        winner = min(algs, key=algs.get)
        palgs = {
            "ours": p.get("par"), "Julienne": p.get("julienne"),
            "ParK": p.get("park"), "PKC": p.get("pkc"),
        }
        pvalid = {k: v for k, v in palgs.items() if v is not None}
        pwinner = min(pvalid, key=pvalid.get) if pvalid else "-"
        out.append(
            f"| {r['graph']} | {r['n']:,} / {p['n']:.3g} | {r['m']:,} / {p['m']:.3g} "
            f"| {r['kmax']} / {p['kmax']} | {r['rho']} / {p['rho']} "
            f"| {r['spd']:.1f} / {float(p['seq'])/float(p['par']):.1f} "
            f"| {r['par']:.6f} s | {rel('julienne', 'julienne')} | {rel('park', 'park')} "
            f"| {rel('pkc', 'pkc')} | {winner} / {pwinner} |"
        )
    wins = sum(
        r["par"] <= min(r["julienne"], r["park"], r["pkc"]) for _, r in df.iterrows()
    )
    out += ["", f"Ours is the fastest parallel system on **{wins}/25** graphs "
            "(paper: 23/25)."]
    return "\n".join(out)


def table3_section() -> str:
    df = _read("table3.csv").set_index("graph")
    out = [
        "### Table 3 — the 8 technique combinations",
        "",
        "Per graph: normalized running time (per-graph best = 1.00), ours on",
        "top, the paper's normalized numbers below. Columns: plain, VGC,",
        "sample, HBS, VGC+sample, VGC+HBS, sample+HBS, all.",
        "",
        "| graph | " + " | ".join(COMBOS) + " |",
        "|---|" + "---|" * len(COMBOS),
    ]
    for g in df.index:
        ours = [df.loc[g, f"norm_{c}"] for c in COMBOS]
        paper = PAPER_TABLE3[g]
        pbest = min(paper)
        pn = [v / pbest for v in paper]
        out.append("| " + g + " (ours) | " + " | ".join(f"{v:.2f}" for v in ours) + " |")
        out.append("| " + g + " (paper) | " + " | ".join(f"{v:.2f}" for v in pn) + " |")
    return "\n".join(out)


def fig_section(name: str, title: str, note: str) -> str:
    df = _read(f"{name}.csv")
    out = [f"### {title}", "", note, "", "```", df.to_string(index=False), "```"]
    return "\n".join(out)


HEADER = """\
# EXPERIMENTS — paper numbers vs this reproduction

All measured numbers are **simulated seconds** on the modeled 96-core
machine (`repro.simcpu`), produced by `pytest benchmarks/
--benchmark-only` / the `jobs/` entrypoints and stored in
`results/*.csv`. The suite graphs are deterministic scaled analogues of
the paper's 25 datasets (see `graphs/suite.py` and DESIGN.md §4), so
absolute times are not comparable to the paper's wall-clock seconds;
the claims under reproduction are the *shapes*: which system wins on
which graph family, ablation directions, subround reductions, and
burdened-span ratios.

Regenerate this file with `python -m repro.tables.report`.

## Headline claims vs measured

| Paper claim | Paper | Measured here |
|---|---|---|
| Ours fastest parallel system | 23/25 graphs | 18/25; 5 of the 7 non-wins within 1–16% of the best baseline (NA tie with PKC matches the paper; HCNS -20%, GL2 -16%) |
| Ours vs best sequential | 7.3–84x faster | faster on all 25 graphs |
| Self-relative speedup | 7.5–86x | 8.3–80x |
| ParK worst case vs ours | up to 315x (TW) | 3.1x (TW) — compressed: hub degrees are ~400x smaller, so serialized-atomic pileups shrink with scale |
| PKC worst case vs ours | up to 33x (TW 27x) | 7.1x (TW) |
| Julienne worst case vs ours | up to 52.5x (GRID) | 7.1x (GRID) |
| Sampling gain on triggering graphs | up to 4.31x (CW) | up to 3.3x (CW); HCNS slowed ~5% (paper: 24% slower) |
| VGC gain on sparse graphs | 1.72–31.2x | 1.1–3.2x (GRID largest, matching the paper's ordering) |
| VGC subround reduction (Fig. 7) | 5–40x sparse, up to 9.1x dense | 2.5–15x sparse, 1.3–1.8x dense |
| Burdened span vs Julienne (Fig. 9) | 1.6–7.9x w/o VGC, up to 147x w/ VGC | 1.6–2.9x w/o VGC, up to 34x w/ VGC (GRID) |
| Max k'-core vs Galois (Fig. 12) | 1.6–6.2x | 1.2–9.5x (TW at every k, OK at k >= 32); Galois ahead at k <= 16 on OK (k-core ~ whole graph there at our scale) |

## Known divergences (and why)

1. **Contention factors are compressed.** The paper's ParK/PKC
   blowups (up to 315x) come from millions of concurrent atomic
   decrements on hub vertices with degree ~3M; our hubs top out at
   ~46k, so measured per-subround concurrency (and its serialized
   cost) is ~2 orders of magnitude smaller. Direction and per-graph
   ordering (ParK/PKC worst on TW/CW-like graphs) reproduce.
2. **HCNS:** ParK edges out ours by 1.2x (paper: ours 25x faster).
   At n = 2k_max = 1400 every algorithm is bound by the 2 syncs/round
   x 700 rounds floor, and the O(k_max n) extra work that sinks ParK
   in the paper is only ~2x total work here. The ablation shape
   (HBS best combo, sampling a net loss on HCNS) still reproduces.
3. **Fig. 8:** the paper's 20–70% overhead of 16 buckets on sparse
   graphs does not appear: in an event-count cost model, batched
   subround updates collapse DecreaseKey traffic, and the overhead in
   the real system is cache/pass effects outside the model. Measured
   result: HBS within ~4% of the best strategy on every graph
   (paper: HBS matches the better option everywhere), 1-bucket worst
   on dense graphs (compressed to ~3%).
4. **k-NN graphs:** ours is 1–16% behind ParK/PKC (paper: ours
   slightly ahead). All systems are within ~2x of each other on these
   graphs in both the paper and here.

"""


def main() -> None:
    parts = [
        HEADER,
        table2_section(),
        "",
        table3_section(),
        "",
        fig_section(
            "fig7",
            "Fig. 7 — subrounds with and without VGC",
            "Paper: VGC reduces subrounds 5–40x on sparse graphs "
            "(e.g. GRID 50,499 -> ~1,300, R=39; roads to within 4 per "
            "round, 26–51x), up to 9.1x on dense (OK).",
        ),
        "",
        fig_section(
            "fig8",
            "Fig. 8 — bucketing strategies (relative to HBS, lower is better)",
            "Paper: 1 bucket is slow on dense graphs; 16 buckets cost "
            "20–70% extra on sparse graphs; HBS matches the better "
            "option everywhere and wins big on HCNS (47.8x vs 1 "
            "bucket). See divergence note 3.",
        ),
        "",
        fig_section(
            "fig9",
            "Fig. 9/14/15 — burdened span and time speedup over Julienne",
            "Paper: 1.6–7.9x without VGC (online vs offline sync "
            "count), up to 147x with VGC on GRID/TRCE/BBL; time "
            "speedups correlate with burdened-span speedups.",
        ),
        "",
        fig_section(
            "fig11",
            "Fig. 11 — sampling on/off on the triggering graphs",
            "Paper: 8 graphs trigger sampling; 7 gain (up to 4.3x on "
            "CW), HCNS loses ~24%. `cmax` columns show the measured "
            "max per-location concurrent updates (the contention the "
            "scheme attacks).",
        ),
        "",
        fig_section(
            "fig12",
            "Fig. 12 — maximum k'-core subgraph vs Galois-like baseline",
            "Paper: k in 16..2048 on OK and TW, ours 1.6–6.2x faster. "
            "Our k sweep is scaled to the analogues' smaller k_max.",
        ),
        "",
    ]
    (ROOT / "EXPERIMENTS.md").write_text("\n".join(parts))
    print(f"wrote {ROOT / 'EXPERIMENTS.md'}")


if __name__ == "__main__":
    main()
