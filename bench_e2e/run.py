"""End-to-end benchmark of the SDEA reproduction.

    python3 bench_e2e/run.py --workload sdea-srprs --seed 1 --seconds 40 --trace 0

Runs one workload (or ``--workload all``) as a closed loop with one
client.  A *pass* runs the workload's methods back to back on one of its
datasets, in a fresh child process (``child.py``); one *repetition* is a
pass over each of its datasets.  Repetitions repeat while another one
would still end within ``--seconds``; there is always at least one.
Every op is checked (finite metrics in [0, 1], H@10 >= H@1, the same
headline floats from every repeated test evaluation, finite loss gauges,
present for ``sdea``, H@1 at or above the workload's floor); an op that
raises or fails a check counts as failed.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (medians over the repetitions); with
``--trace 1`` the run adds one traced pass over the first dataset and
the JSON carries the per-layer metrics instead.  The metric names and
units come from ``BENCHMARK.json`` at the repository root.  ``--smoke``
uses tiny datasets, two evaluation repeats and no H@1 floor.  See README.md in this directory.

This file imports only the standard library: the BLAS thread count is
pinned in each child's environment before numpy loads there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Workload  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# One BLAS thread (never more than nproc): with two, bert-int's H@1 changed
# on the same inputs and struct timings spread twice as wide (README.md).
THREADS = 1
DEADLINE_S = 170.0     # a run must end within 180 s
HEADLINE = ("hits1", "hits10", "mrr", "stable_hits1")
# Methods whose run record carries a ``trainer.loss`` gauge.  The struct
# baselines write no loss gauge, so the H@1 floor is their only check
# that training worked.
LOSS_GAUGE_METHODS = frozenset({"sdea"})


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, first and third quartile, and the quartile spread.

    Quartiles follow :func:`statistics.quantiles` with ``n=4`` (the
    exclusive method); one value is its own quartiles.  ``spread`` is the
    quartile distance as a share of the median (0 when the median is 0).
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summary of no values")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "n": len(values)}


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_op(op: dict, floor: Optional[float]) -> List[str]:
    """Problems with one op's outputs; empty when the op is correct."""
    if op.get("error"):
        return [f"raised {op['error']}"]
    problems = []
    for key in HEADLINE:
        value = op.get(key)
        if not isinstance(value, (int, float)) or not math.isfinite(value) \
                or not 0.0 <= value <= 1.0:
            problems.append(f"{key}={value!r} not a finite value in [0, 1]")
    if not problems and op["hits10"] < op["hits1"]:
        problems.append(f"hits10={op['hits10']!r} < hits1={op['hits1']!r}")
    if op.get("eval_mismatches"):
        problems.append(f"{op['eval_mismatches']} repeated evaluations "
                        "changed the headline floats")
    losses = op.get("losses", [])
    if not losses and op["method"] in LOSS_GAUGE_METHODS:
        problems.append("no loss gauge values in the run record")
    bad = [v for v in losses if not math.isfinite(v)]
    if bad:
        problems.append(f"{len(bad)} non-finite loss gauge values")
    if floor is not None and not problems and op["hits1"] < floor:
        problems.append(f"hits1={op['hits1']!r} below the floor {floor}")
    return problems


class Runner:
    """Spawns child passes of one workload and collects their results."""

    def __init__(self, workload: Workload, seed: int, smoke: bool,
                 workdir: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0",
                        **{var: str(THREADS) for var in THREAD_VARS})
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def spawn(self, mode: str, index: int) -> Optional[dict]:
        """Run one child on dataset ``index``; None when it crashed."""
        self.count += 1
        out = self.workdir / f"{mode}-{self.count}.json"
        log = self.workdir / f"{mode}-{self.count}.log"
        seed = self.workload.dataset_seed(self.seed, index)
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload.name, "--seed", str(seed),
               "--mode", mode, "--out", str(out),
               "--workdir", str(self.workdir / f"{mode}-{self.count}")]
        if self.smoke:
            cmd.append("--smoke")
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(log, "w") as sink:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned_at)],
                                    stdout=sink, stderr=subprocess.STDOUT,
                                    cwd=ROOT, env=self.env)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = "timeout"
        result = json.loads(out.read_text()) if code == 0 else None
        self.attempted += len(self.workload.methods)
        if result is None:
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            self.problems.append(f"{mode} child exited {code}: "
                                 + " | ".join(tail))
            self.failed += len(self.workload.methods)
            return None
        result["dataset_seed"] = seed
        return result

    def judge(self, result: dict) -> bool:
        """Check every op of a pass; True when all of them are correct."""
        floor = None if self.smoke else self.workload.h1_floor
        ok = len(result["ops"]) == len(self.workload.methods)
        for op in result["ops"]:
            problems = check_op(op, floor)
            if problems:
                ok = False
                self.failed += 1
                self.problems += [f"{op['method']}: {p}" for p in problems]
        return ok


def repetition_values(results: List[dict]) -> Dict[str, float]:
    """End-to-end values of one correct repetition (one pass per dataset).

    ``run_s`` and ``fit_s`` are summed over a pass's methods, then the
    median over the passes is taken: early stopping runs some datasets for
    twice the epochs of others, and the median keeps such a draw from
    moving them.  ``eval_s`` sums, over the methods, each method's fastest
    test evaluation in the repetition (each op's ``eval_s`` is already the
    fastest of its repeats).  Quality metrics are the mean over every op.
    """
    ops = [op for result in results for op in result["ops"]]
    values = {key: statistics.median(sum(op[key] for op in result["ops"])
                                     for result in results)
              for key in ("run_s", "fit_s")}
    values["eval_s"] = sum(
        min(result["ops"][i]["eval_s"] for result in results)
        for i in range(len(results[0]["ops"])))
    for key in HEADLINE:
        values[key] = sum(op[key] for op in ops) / len(ops)
    values["peak_rss_mb"] = max(result["peak_rss_mb"] for result in results)
    return values


def run_workload(workload: Workload, args, deadline_s: float) -> dict:
    """All passes of one workload; returns the printed report as a dict.

    Repetitions stop once another one would end after ``args.seconds``,
    or would leave too little of ``deadline_s`` for the traced pass.
    """
    scratch = ROOT / ".bench_e2e"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    runner = Runner(workload, args.seed, args.smoke, workdir,
                    deadline=time.monotonic() + deadline_s)
    try:
        reps: List[List[dict]] = []
        setups: List[float] = []
        walls: List[float] = []
        start = time.monotonic()
        crashed = False
        while not crashed:
            rep_start = time.monotonic()
            results = []
            for index in range(workload.datasets):
                result = runner.spawn("timed", index)
                if result is None:
                    crashed = True
                    break
                setups.append(result["setup_s"])
                results.append(result)
            walls.append(time.monotonic() - rep_start)
            if not crashed and all([runner.judge(r) for r in results]):
                reps.append(results)
            now = time.monotonic()
            rep_s = statistics.median(walls)
            # The traced pass runs one dataset: a repetition bounds it.
            reserve = rep_s if args.trace else 0.0
            if now - start + rep_s > args.seconds \
                    or now + rep_s + reserve > runner.deadline:
                break
        traced = trace_file = None
        if args.trace and reps:
            traced = runner.spawn("traced", 0)
            if traced is not None and not runner.judge(traced):
                traced = None
        if traced is not None:
            trace_file = scratch / f"trace-{workload.name}-seed{args.seed}.json"
            trace_file.write_text(json.dumps(
                {"workload": workload.name, "seed": args.seed,
                 "fields": ["name", "start", "end", "parent", "op"],
                 "spans": traced.pop("spans")}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": workload.name, "attempted": runner.attempted,
              "failed": runner.failed, "problems": runner.problems,
              "reps": reps, "traced": traced, "summaries": {}, "layers": {},
              "trace_file": trace_file}
    if not reps:
        return report
    per_rep = [repetition_values(results) for results in reps]
    report["summaries"]["setup_s"] = summary(setups)
    for name in per_rep[0]:
        report["summaries"][name] = summary([v[name] for v in per_rep])
    if traced is not None:
        # The traced pass ran dataset 0; compare it with that dataset's
        # untraced passes.
        untraced = statistics.median(
            sum(op["run_s"] for op in results[0]["ops"]) for results in reps)
        layers = dict(traced["layers"])
        layers["trace.overhead"] = (
            sum(op["run_s"] for op in traced["ops"]) / untraced - 1.0)
        report["layers"] = layers
    return report


def print_report(report: dict, units: Dict[str, str],
                 layer_names: Optional[List[str]]) -> None:
    """The human-readable report; per-layer values when ``layer_names``."""
    name = report["workload"]
    print(f"== {name}: failed/attempted = "
          f"{report['failed']}/{report['attempted']}")
    for problem in report["problems"]:
        print(f"   problem: {problem}")
    reps = report["reps"]
    if reps:
        def floats(results):
            return [op[k] for r in results for op in r["ops"] for k in HEADLINE]
        for result in reps[0]:
            for op in result["ops"]:
                text = "  ".join(f"{k}={op[k]!r}" for k in HEADLINE)
                print(f"   {op['method']} on dataset seed "
                      f"{result['dataset_seed']}: {text}")
        same = all(floats(results) == floats(reps[0]) for results in reps)
        print(f"   headline floats bitwise equal over {len(reps)} "
              f"repetitions: {'yes' if same else 'NO'}")
        if report["traced"] is not None:
            same = floats([report["traced"]]) == floats(reps[0][:1])
            print(f"   traced pass headline floats equal to the untraced "
                  f"pass: {'yes' if same else 'NO'}")
    for metric, s in report["summaries"].items():
        print(f"   {metric:<14} {s['median']:>12.6g} {units[metric]:<6}"
              f" q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    if layer_names and report["layers"]:
        print(f"   traced pass (per layer), spans in {report['trace_file']}:")
        for metric in layer_names:
            value = report["layers"].get(metric)
            print(f"   {metric:<30} {value!r:>22} {units[metric]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Seeded end-to-end benchmark of the SDEA pipeline.")
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets, two evaluation repeats, "
                             "no H@1 floor")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"]
                for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"env: seed={args.seed} threads={THREADS} nproc={nproc()} "
          f"commit={git_commit()} seconds={args.seconds:g}")

    reports = []
    for name in names:
        report = run_workload(WORKLOADS[name], args,
                              deadline_s=DEADLINE_S / len(names))
        if report["reps"]:
            env = report["reps"][0][0]["env"]
            print(f"env: python={env['python']} numpy={env['numpy']} "
                  f"blas={env['blas']}")
        print_report(report, units, reported if args.trace else None)
        reports.append(report)

    metrics: Dict[str, dict] = {}
    complete = True
    for report in reports:
        values = report["layers"] if args.trace else {
            name: s["median"] for name, s in report["summaries"].items()}
        for metric in reported:
            if metric not in values:
                complete = False
                continue
            key = metric if len(reports) == 1 \
                else f"{report['workload']}.{metric}"
            metrics[key] = {"value": values[metric], "unit": units[metric]}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = complete and failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
