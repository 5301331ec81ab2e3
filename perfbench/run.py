"""Benchmark `spc run` end to end, or layer by layer with tracing on.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the program is imported from ``src/``, so
nothing needs installing.  It is a closed loop with one client: one `spc run`
at a time, each in its own process, with the program's default ``--workers``
and the thread variables of the environment left as they are.

Every invocation first writes the workload's inputs for ``--seed`` (see
``perfbench/workloads.py``) and runs them once with ``--workers 1``; that
run's output fingerprints are the reference every later run must match.

``--trace 0`` samples set-up a few times without training, then repeats the
full run for about ``--seconds`` (at least twice).  It reports set-up time and
memory as medians, and run time as the lower quartile of the runs' times
(throughput from it): contention from other tenants of a shared host only
ever adds time, and the program's BLAS threads inside its worker threads turn
one competing process into a slowdown of several times, so the median of a
window moves with the neighbours while its faster runs move much less.  The
median run time is printed beside it.  ``--trace 1`` makes untraced
runs for ``--seconds`` as the baseline, then one run with spans recorded at
every layer boundary (``perfbench/trace.py``), and reports the per-layer
metrics of that run.

Every run's outputs are checked (``perfbench/check.py``); a run that fails a
check counts in ``failed``.  Human-readable lines and an environment record
come first; the last line of standard output is the JSON result.  The full
record, environment included, goes to
``.perfbench_work/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 10  # set-up-only runs per --trace 0 invocation
MIN_TIMED_RUNS = 2
RUN_TIMEOUT_S = 150
DROPPED_VOTE = re.compile(r"clustering failed at iteration")

# Printed and recorded, but not declared in BENCHMARK.json: the two failure
# fractions are zero on every healthy run, so a bound relative to their median
# means nothing, and the agreed fraction moves with the seed by far more than
# any bound the benchmark may set (consensus.agreed_ratio traces it instead).
# The median run time and the run count put the reported quartile in context.
PRINTED_ONLY = {
    "agreed_frac": "ratio",
    "dropped_vote_frac": "ratio",
    "failed_run_frac": "ratio",
    "run_s_median": "s",
    "timed_runs": "count",
}


@dataclass
class Run:
    tag: str
    workers: int | None
    out_dir: str
    exit_code: int | None = None
    marks: dict = field(default_factory=dict)
    spawned: float = 0.0
    stderr: str = ""
    problems: list = field(default_factory=list)
    fingerprint: dict | None = None

    @property
    def setup_s(self) -> float:
        return self.marks["train_start"] - self.spawned

    @property
    def run_s(self) -> float:
        return self.marks["finalized"] - self.marks["train_start"]

    @property
    def peak_rss_mb(self) -> float:
        return self.marks["peak_rss_kb"] / 1024.0

    @property
    def ok(self) -> bool:
        return not self.problems

    def record(self) -> dict:
        return {
            "tag": self.tag,
            "workers": self.workers,
            "exit_code": self.exit_code,
            "setup_s": self.setup_s if "train_start" in self.marks else None,
            "run_s": self.run_s if "finalized" in self.marks else None,
            "peak_rss_kb": self.marks.get("peak_rss_kb"),
            "fingerprint": self.fingerprint,
            "problems": self.problems,
        }


def environment() -> dict:
    """What a speed claim must record: CPUs, versions, BLAS and its threads."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
    }


class Bench:
    """One invocation: a workload's inputs for one seed, and its runs."""

    def __init__(self, workload, seed: int, directory: str):
        from perfbench import workloads

        self.workload = workload
        self.directory = directory
        self.inputs = workloads.generate(workload, seed, os.path.join(directory, "inputs"))
        self.truth = workloads.read_truth(self.inputs.truth)
        self.runs: list = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT]
            + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        )

    def run(self, workers=None, spans=False, setup_only=False) -> Run:
        tag = f"{len(self.runs):02d}" + ("-setup" if setup_only else "") + ("-traced" if spans else "")
        d = os.path.join(self.directory, tag)
        os.makedirs(d)
        run = Run(tag=tag, workers=workers, out_dir=os.path.join(d, "out"))
        cmd = [sys.executable, "-m", "perfbench.child", "--marks", os.path.join(d, "marks.json")]
        if spans:
            cmd += ["--spans", os.path.join(d, "spans.json")]
        if setup_only:
            cmd.append("--setup-only")
        cmd += ["--", "run", *self.inputs.spc_args, "--out", run.out_dir]
        if workers is not None:
            cmd += ["--workers", str(workers)]
        run.spawned = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            run.problems.append(f"no exit within {RUN_TIMEOUT_S} s")
            self.runs.append(run)
            return run
        run.exit_code, run.stderr = proc.returncode, proc.stderr
        marks_path = os.path.join(d, "marks.json")
        if os.path.isfile(marks_path):
            with open(marks_path) as f:
                run.marks = json.load(f)
        if proc.returncode != 0 or "train_start" not in run.marks:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            run.problems.append(f"exit code {proc.returncode}: {tail[0]}")
        elif not setup_only:
            from perfbench import check

            run.problems = check.check_run(run.out_dir, self.truth, self.workload.n_clusters)
            if not run.problems:
                run.fingerprint = check.fingerprints(run.out_dir)
        self.runs.append(run)
        return run

    def check_determinism(self, reference: Run) -> None:
        """Every good full run must reproduce the --workers 1 run's files."""
        from perfbench import check

        for run in self.runs:
            if run is not reference and run.fingerprint is not None:
                run.problems = check.fingerprint_problems(reference.fingerprint, run.fingerprint)

    def timed_runs(self, seconds: float, minimum: int, **kw) -> list:
        """Repeat a run for about ``seconds``: after ``minimum`` runs, the
        next starts only if a run as long as the last still ends in time."""
        start, runs, last = time.monotonic(), [], 0.0
        while len(runs) < minimum or time.monotonic() - start + last < seconds:
            began = time.monotonic()
            runs.append(self.run(**kw))
            last = time.monotonic() - began
        return runs


def quality(run: Run, n_points: int) -> dict:
    """Quality metrics and work counts of one good run, from its artifacts."""
    with open(os.path.join(run.out_dir, "manifest.json")) as f:
        manifest = json.load(f)
    config = manifest["config"]
    with open(os.path.join(run.out_dir, "metrics.json")) as f:
        metrics = json.load(f)
    with open(os.path.join(run.out_dir, "history.csv"), newline="") as f:
        last = list(csv.DictReader(f))[-1]
    iterations = metrics["n_iterations"]
    epochs = config["pretrain_epochs"] + config["loop_epochs"] * (iterations - 1)
    voters = config["n_members"] + int(config["concat_member"])
    return {
        "accuracy": metrics["accuracy"],
        "agreed_accuracy": float(last["agreed_accuracy"] or 0.0),
        "agreed_frac": metrics["final_n_agreed"] / n_points,
        "dropped_vote_frac": len(DROPPED_VOTE.findall(run.stderr)) / (iterations * voters),
        "sgd_updates": config["n_members"] * n_points * epochs,
        "iterations": iterations,
        "config": config,
        "input_dim": manifest["dataset"]["dim"],
    }


def end_to_end(bench: Bench, seconds: float) -> dict:
    for _ in range(SETUP_PROBES):
        bench.run(setup_only=True)
    reference = bench.run(workers=1)
    timed = bench.timed_runs(seconds, MIN_TIMED_RUNS)
    bench.check_determinism(reference)
    good = [r for r in timed if r.ok]
    if not good:
        return {}
    q = quality(good[0], bench.workload.n_points)
    setups = [r.setup_s for r in bench.runs if r.ok]
    failed = sum(not r.ok for r in bench.runs)
    run_s = statistics.quantiles([r.run_s for r in good], n=4, method="inclusive")[0]
    return {
        "setup_s": statistics.median(setups),
        "run_s": run_s,
        "train_points_per_s": q["sgd_updates"] / run_s,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        "accuracy": q["accuracy"],
        "agreed_accuracy": q["agreed_accuracy"],
        "agreed_frac": q["agreed_frac"],
        "dropped_vote_frac": q["dropped_vote_frac"],
        "failed_run_frac": failed / len(bench.runs),
        "run_s_median": statistics.median(r.run_s for r in good),
        "timed_runs": len(good),
    }


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, name)) for d, _, names in os.walk(path) for name in names
    )


def per_layer(bench: Bench, seconds: float) -> dict:
    from perfbench import trace
    from spc.network import CLASSIFIER_HIDDEN

    reference = bench.run(workers=1)
    untraced = bench.timed_runs(seconds, 1)
    traced = bench.run(spans=True)
    bench.check_determinism(reference)
    if not (reference.ok and traced.ok and any(r.ok for r in untraced)):
        return {}
    with open(os.path.join(os.path.dirname(traced.out_dir), "spans.json")) as f:
        spans = json.load(f)
    q = quality(traced, bench.workload.n_points)
    config = q["config"]
    flops_per_row = trace.gemm_flops_per_row(
        q["input_dim"],
        config["latent_dim"],
        bench.workload.n_clusters,
        config["hidden_widths"],
        CLASSIFIER_HIDDEN,
    )
    metrics = trace.layer_metrics(spans, flops_per_row, config["batch_size"])
    metrics.update(
        {
            "pipeline.workers1_run_s": reference.run_s,
            "pipeline.stopped_on_plateau": float(q["iterations"] < config["max_iterations"]),
            "cli.artifacts_s": traced.marks["finalized"] - traced.marks["train_end"],
            "cli.artifact_bytes": float(_dir_bytes(traced.out_dir)),
            "trace.overhead_s": traced.run_s
            - statistics.median(r.run_s for r in untraced if r.ok),
        }
    )
    return metrics


def _declared_metrics() -> dict:
    """{"end_to_end" | "per_layer": {name: unit}} as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src", "spc")
    if not os.path.isfile(os.path.join(source, "cli.py")):
        print(f"no program to benchmark: {source} is missing", file=sys.stderr)
        return 2
    sys.path[:1] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = _declared_metrics()["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    directory = os.path.join(WORK, f"{name}-{os.getpid()}")
    try:
        bench = Bench(workload, args.seed, directory)
        metrics = (per_layer if args.trace else end_to_end)(bench, args.seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    for r in bench.runs:
        for problem in r.problems:
            print(f"run {r.tag} failed: {problem}")
    if not metrics:
        print("no good run to take metrics from", file=sys.stderr)
        return 1
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"metrics declared in BENCHMARK.json but not measured: {missing}", file=sys.stderr)
        return 1
    units = {**declared, **PRINTED_ONLY}
    for key in sorted(metrics) if args.trace else units:
        print(f"{workload.name}  {key:30s} {metrics[key]:.6g} {units.get(key, '')}")
    if args.trace:
        from perfbench.trace import LAYERS

        busy = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
        total = sum(busy.values()) or 1.0
        print("self-time shares: " + ", ".join(f"{k} {v / total:.1%}" for k, v in busy.items()))

    failed = sum(not r.ok for r in bench.runs)
    result = {
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in declared.items()},
    }
    record = {
        **result,
        "workload": workload.name,
        "seed": args.seed,
        "environment": env,
        "all_metrics": metrics,
        "runs": [r.record() for r in bench.runs],
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{name}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
