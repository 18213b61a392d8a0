"""Run one workload of the k-core benchmark and print its metrics.

    python3 kcbench/run.py --workload sparse-cascade --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The run sets up its inputs several times (``setup_s`` is the median),
then runs whole passes over the workload's operations until
``--seconds`` have passed (at least ``MIN_PASSES``). After each pass,
outside the timed region, every result is checked against the BZ ground
truth and the pass's simulated-statistics listing is compared with the
first pass's. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, where metrics
are the end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``. A traced run alternates untraced and traced passes; the
ratio of their median throughputs is ``trace.overhead_x``. Host times
are in reference seconds (see ``kcbench.hostspeed``). Details,
raw timings, listing and environment go to ``.kcbench_out/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".kcbench_out"
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_MIN_S = 1.5  # cheap set-ups repeat until this much time is spent
MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # two untraced, two traced


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Run:
    """Runs timed passes of a workload and counts the checks of their
    results."""

    def __init__(self, workload, tracer, log) -> None:
        self.wl = workload
        self.tracer = tracer
        self.log = log
        self.attempted = 0
        self.failed = 0
        self.listing: dict | None = None

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.log(f"check failed: {what}")

    def run_pass(self) -> tuple[float, int]:
        """Run one timed pass, then check it; returns (seconds, edges)."""
        ops = self.wl.ops()
        results = []
        t0 = time.perf_counter()
        for op in ops:
            with self.tracer.span(op.span):
                try:
                    results.append(op.run())
                except Exception:  # a failed call counts as failed, the run goes on
                    traceback.print_exc(file=sys.stderr)
                    results.append(None)
        dt = time.perf_counter() - t0
        listing = {}
        for op, res in zip(ops, results):
            what = f"{op.graph}/{op.algo}"
            try:
                ok = res is not None and op.check(res)
                if res is not None:
                    for row in op.stats(res):
                        listing[f"{row['graph']}/{row['algo']}"] = row
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            self.count(ok, what)
        if self.listing is None:
            self.listing = listing
        else:
            self.count(listing == self.listing, "simulated statistics differ from the first pass")
        return dt, sum(op.edges for op in ops)


def scaled(summary: dict, f: float) -> dict:
    """A tracer summary with its host times in reference seconds."""
    return {
        name: agg | {"total_s": agg["total_s"] * f, "self_s": agg["self_s"] * f}
        for name, agg in summary.items()
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result object plus details."""
    from kcbench import env as run_env
    from kcbench.hostspeed import HostSpeed
    from kcbench.metrics import END_TO_END, PER_LAYER, layer_metrics, sim_metrics
    from kcbench.tracing import Tracer
    from kcbench.workloads import WORKLOADS

    tracer = Tracer()
    speed = HostSpeed()
    wl = WORKLOADS[name](seed, tracer)
    r = Run(wl, tracer, lambda msg: print(f"kcbench: {msg}", file=sys.stderr))
    load_start = run_env.load_average()
    setup_times, setup_sums = [], []
    tracer.enabled = trace
    while len(setup_times) < SETUP_MIN_REPS or (
        sum(setup_times) < SETUP_MIN_S and len(setup_times) < SETUP_MAX_REPS
    ):
        speed.measure()
        mark = tracer.mark()
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        setup_sums.append(tracer.summary(mark))
    tracer.enabled = False
    speed.measure()
    f_setup = speed.factor()

    untraced, traced, pass_sums, raw_passes = [], [], [], []
    deadline = time.perf_counter() + seconds
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    i = 0
    while i < min_passes or time.perf_counter() < deadline:
        on = trace and i % 2 == 1
        if on:
            tracer.install_wrappers()
            tracer.enabled = True
            mark = tracer.mark()
        try:
            dt, edges = r.run_pass()
        finally:
            if on:
                tracer.enabled = False
                tracer.remove_wrappers()
        speed.measure()
        f = speed.bracket_factor()
        raw_passes.append(dt)
        if on:
            pass_sums.append(scaled(tracer.summary(mark), f))
            traced.append(edges / (dt * f))
        else:
            untraced.append(edges / (dt * f))
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = run_env.describe()
    env["loadavg_start"], env["loadavg_end"] = load_start, run_env.load_average()

    edges_per_s = statistics.median(untraced)
    if trace:
        values = layer_metrics(
            pass_sums, [scaled(s, f_setup) for s in setup_sums],
            r.listing, wl.bz_work, edges_per_s / statistics.median(traced),
        )
        units = PER_LAYER
    else:
        values = {
            "edges_per_s": edges_per_s,
            "setup_s": statistics.median(setup_times) * f_setup,
            "peak_rss_mb": rss_mb,
            **sim_metrics(r.listing),
        }
        units = END_TO_END
    result = {
        "correct": r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env,
        "reference_kernel_s": speed.samples,
        "raw_setup_s": setup_times,
        "raw_pass_s": raw_passes,
        "edges_per_s": {"untraced": untraced, "traced": traced},
        "listing": r.listing,
    }
    return {"result": result, "details": details}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "simcpu" / "engine.py").is_file():
        print(f"kcbench: no program source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    from kcbench import env

    env.pin_threads()  # before numpy is imported
    from kcbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"kcbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out["details"] | {"result": out["result"]}, indent=1))
    print(f"environment: {json.dumps(out['details']['environment'])}")
    print(f"details: {path.relative_to(ROOT)}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
