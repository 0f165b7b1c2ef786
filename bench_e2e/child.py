"""One pass of a workload, in a fresh process (started by ``run.py``).

    python3 bench_e2e/child.py --workload NAME --seed N --mode MODE \\
        --spawned-at T --out RESULT.json --workdir DIR [--smoke]

MODE is ``timed`` (the workload's ops, no wrappers) or ``traced`` (the
same ops under :class:`tracer.LayerTracer`).  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start, ``import repro``, dataset
generation and ``split()``.  The parent
pins the BLAS thread count in the environment before numpy loads here.

Each op does what ``repro run --dataset D --method M --stable`` does:
``run_experiment(M, pair, split, with_stable_matching=True)`` inside
``obs.session(runs_dir=...)`` and ``use_kernels()``; in timed mode the
fitted model then evaluates the test links ``EVAL_REPEATS`` more times,
and ``eval_s`` is the fastest evaluation (see :func:`run_op`).  The result --
setup time, peak RSS, per-op timings, headline metrics and loss gauges,
and in traced mode the per-layer rollup -- is written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

# Repeated test evaluations per op in a timed pass.  A fixed count, not a
# time budget, so that every pass allocates the same and peak RSS stays a
# function of the dataset.
EVAL_REPEATS = 20


def build_inputs(workload, seed: int, smoke: bool):
    """The seeded pair and its ``split()``; the seed reaches nothing else."""
    scale = workload.smoke_scale if smoke else workload.scale
    if workload.family == "srprs":
        from repro.datasets.srprs import SRPRSScale, build_srprs
        pair = build_srprs(workload.dataset, seed=seed,
                           scale=SRPRSScale(*scale))
    else:
        from repro.datasets.dbp15k import DBP15KScale, build_dbp15k
        pair = build_dbp15k(workload.dataset, seed=seed,
                            scale=DBP15KScale(*scale))
    return pair, pair.split()


def loss_values(record: dict) -> list:
    """Every value of every ``*loss*`` gauge series in a run record."""
    values = []
    for name, instrument in record.get("metrics", {}).items():
        if "loss" in name and instrument.get("kind") == "gauge":
            for series in instrument.get("series", []):
                values += [series["value"], series["min"], series["max"]]
    return values


def run_op(method: str, pair, split, runs_dir: Path,
           eval_repeats: int) -> dict:
    """One op; then ``eval_repeats`` more evaluations of the fitted model.

    A test evaluation takes 10 to 150 ms, and on a shared host whose speed
    changes from one second to the next, one timing of it is mostly noise:
    ``eval_s`` is the fastest of the op's own evaluation and the repeats,
    as ``timeit`` reports the best of several timings of the same work.
    Every repeat must give the op's headline floats bit for bit.
    """
    from repro import obs
    from repro.experiments import runner
    from repro.nn.kernels import use_kernels

    fitted = []
    make_method = runner.make_method

    def capture(name):
        fitted.append(make_method(name))
        return fitted[-1]

    runner.make_method = capture
    try:
        start = time.perf_counter()
        with obs.session(runs_dir=str(runs_dir)), use_kernels():
            result = runner.run_experiment(method, pair, split,
                                           with_stable_matching=True)
        run_s = time.perf_counter() - start
    finally:
        runner.make_method = make_method
    record = json.loads(Path(result.record_path).read_text())
    headline = (result.hits_at_1, result.hits_at_10, result.mrr,
                result.stable_hits_at_1)
    evals = [result.eval_seconds]
    mismatches = 0
    with obs.session(runs_dir=str(runs_dir)), use_kernels():
        for _ in range(eval_repeats):
            start = time.perf_counter()
            again = fitted[0].evaluate(split.test, with_stable_matching=True)
            evals.append(time.perf_counter() - start)
            mismatches += (again.metrics.hits_at_1, again.metrics.hits_at_10,
                           again.metrics.mrr,
                           again.stable_hits_at_1) != headline
    return {
        "method": method, "error": None, "run_s": run_s,
        "fit_s": result.fit_seconds, "eval_s": min(evals),
        "hits1": result.hits_at_1, "hits10": result.hits_at_10,
        "mrr": result.mrr, "stable_hits1": result.stable_hits_at_1,
        "eval_mismatches": mismatches,
        "losses": loss_values(record), "spans": record["spans"],
    }


def environment() -> dict:
    import platform

    import numpy as np
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, ValueError):
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("timed", "traced"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    import repro  # noqa: F401  (part of set-up)
    generate_start = time.perf_counter()
    pair, split = build_inputs(workload, args.seed, args.smoke)
    generate_s = time.perf_counter() - generate_start
    out = {"setup_s": time.monotonic() - args.spawned_at,
           "generate_s": generate_s, "env": environment(), "ops": []}

    tracer = None
    if args.mode == "traced":
        from tracer import LayerTracer
        tracer = LayerTracer()
    # The traced pass repeats no evaluation; smoke runs repeat briefly.
    eval_repeats = 0 if tracer else 2 if args.smoke else EVAL_REPEATS
    with tracer or nullcontext():
        for index, method in enumerate(workload.methods):
            if tracer is not None:
                tracer.begin_op()
            try:
                op = run_op(method, pair, split,
                            args.workdir / f"records-{index}",
                            eval_repeats)
            except Exception as exc:  # an op that raises is counted
                traceback.print_exc()
                op = {"method": method, "error": repr(exc)}
            out["ops"].append(op)
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, out["ops"], generate_s)
        out["spans"] = [[s.name, s.start, s.end, s.parent, s.op]
                        for s in tracer.spans]
    for op in out["ops"]:
        op.pop("spans", None)

    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(out))
    return 0


def layer_metrics(tracer, ops, generate_s: float) -> dict:
    """Per-layer metrics of the traced pass (see BENCHMARK.json)."""
    from tracer import record_phases, rollup

    done = [op for op in ops if op["error"] is None]
    layers = rollup(tracer.spans, sum(op["run_s"] for op in done))
    layers["datasets.generate_s"] = generate_s
    layers["experiments.overhead_s"] = sum(
        op["run_s"] - op["fit_s"] - op["eval_s"] for op in done)
    for method in ("jape-stru", "gcn-align"):
        layers[f"baselines.fit_s.{method}"] = sum(
            op["fit_s"] for op in done if op["method"] == method)
    phases = record_phases({})
    for op in done:
        for name, value in record_phases(op["spans"]).items():
            phases[name] += value
    layers.update(phases)
    return layers


if __name__ == "__main__":
    sys.exit(main())
