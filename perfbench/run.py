"""Seeded end-to-end benchmark of the ``parsedisamb`` CLI pipeline.

Each workload generates its inputs from ``--seed`` (three times, for the
median set-up time), then runs ``cluster -> train -> eval`` through the real
CLI, one child process at a time, repeating the pipeline on the same inputs
while another repetition fits in ``--seconds``, and at least twice.  Medians
over the repetitions are reported, as seconds at a reference machine speed
measured by ``calibrate.py`` in the same run (see Calibration).  With
``--trace 1`` the inputs are generated once, the CLI pipeline runs once,
and an in-process traced copy of set-up and pipeline gives the per-layer
metrics and the tracing overhead.  A correctness gate checks every run.

Run from the repository root:

    python3 perfbench/run.py --workload train-tol --seed 1 --seconds 45 --trace 0

``--workload all`` runs every workload with and without tracing and prints
every metric by name and unit.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = ".bench_work"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
# Reported times are seconds at a reference machine speed: the one at which
# calibrate.py takes CALIBRATION_REF_S (see Calibration).
CALIBRATION_REF_S = 0.7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# ---------------------------------------------------------------------------
# Workloads

@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it exists."""

    name: str
    sizes: dict
    train_args: tuple
    eval_args: tuple
    structural: bool = False
    to_tolerance: bool = False
    lexicalized: bool = False
    sweep: bool = False
    # Runs of a command per pipeline repetition; short commands run more
    # often, so that each time metric has a few seconds of samples.
    repeats: tuple = ()

    def runs_of(self, command: str) -> int:
        return dict(self.repeats).get(command, 1)

    def synth_args(self) -> list[str]:
        s = self.sizes
        return ["--sentences", str(s["sentences"]), "--ambiguity",
                str(s["ambiguity"][0]), str(s["ambiguity"][1]),
                "--features", str(s["features"]), "--split", str(s["split"])]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-tol",
        sizes={"sentences": 4000, "ambiguity": (2, 10), "features": 50,
               "split": 0.8},
        train_args=("--tolerance", "1e-8", "--max-iterations", "4000",
                    "--checkpoint-every", "2000"),
        eval_args=("--task", "exact", "--baseline", "10"),
        to_tolerance=True, sweep=True,
        repeats=(("cluster", 3), ("eval", 2))),
    Workload(
        name="structural-lex",
        sizes={"sentences": 1200, "tokens": (8, 16), "parses": (2, 8),
               "split": 0.4, "token_types": 400, "verbs": 200, "nouns": 1500,
               "classes": 16, "pair_draws": 40_000},
        train_args=("--select-cutoff", "5", "--max-iterations", "30",
                    "--checkpoint-every", "30"),
        eval_args=("--task", "exact", "--task", "frame"),
        structural=True, lexicalized=True),
)}

CLUSTER_ARGS = ("--classes", "16")


def pipeline_steps(workload: Workload, seed: int, in_dir: str,
                   out_dir: str) -> list[tuple[str, list[str]]]:
    """The (command, argv) pairs of one pipeline run."""
    cluster_dir, train_dir, eval_dir = (os.path.join(out_dir, d)
                                        for d in ("cluster", "train", "eval"))
    table = os.path.join(cluster_dir, "freq_table.json")
    train = ["train", "--corpus", os.path.join(in_dir, "train.jsonl"),
             *workload.train_args]
    evaluate = ["eval", "--model", os.path.join(train_dir, "model.json"),
                "--corpus", os.path.join(in_dir, "test.jsonl"),
                *workload.eval_args]
    if workload.lexicalized:
        train += ["--lexicalized", table]
        evaluate += ["--lex-table", table]
    if workload.sweep:
        evaluate += ["--checkpoints", os.path.join(train_dir, "checkpoints")]
    common = ["--seed", str(seed)]
    return [
        ("cluster", ["cluster", "--pairs", os.path.join(in_dir, "pairs.tsv"),
                     *CLUSTER_ARGS, *common, "--out-dir", cluster_dir]),
        ("train", [*train, *common, "--out-dir", train_dir]),
        ("eval", [*evaluate, *common, "--out-dir", eval_dir]),
    ]


# ---------------------------------------------------------------------------
# Child processes

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class CommandRun:
    returncode: int
    wall_s: float
    rss_mb: float
    output: str


@dataclass
class Calibration:
    """Wall times of the reference job, run before every set-up child and
    every pipeline step of one run.

    On a shared 2-vCPU VM the machine's speed drifts by up to 1.5x over
    seconds to minutes, more than the bounds on the reported times, and
    every wall time of a run drifts with it.  Each reported time is
    therefore a median wall time scaled by CALIBRATION_REF_S over the
    median wall time of ``calibrate.py`` in the same run: seconds at the
    reference speed.  The reference job runs no ``parsedisamb`` code, so a
    program that gets faster reports less time in proportion.
    """

    samples: list = field(default_factory=list)

    def sample(self, log_path: str) -> None:
        job = run_child([sys.executable,
                         os.path.join(ROOT, "perfbench", "calibrate.py")],
                        log_path)
        if job.returncode != 0:
            raise RuntimeError(f"calibrate.py exited {job.returncode}: "
                               f"{job.output.strip()[-300:]}")
        self.samples.append(job.wall_s)

    @property
    def factor(self) -> float:
        return CALIBRATION_REF_S / statistics.median(self.samples)


def run_child(cmd: list[str], log_path: str,
              calibration: Calibration | None = None) -> CommandRun:
    """Run one child to completion; wall time and its own peak RSS."""
    if calibration is not None:
        calibration.sample(log_path)
    with open(log_path, "w", encoding="utf-8") as log:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", encoding="utf-8") as log:
        output = log.read()
    return CommandRun(proc.returncode, wall, usage.ru_maxrss / 1024.0, output)


def run_cli(argv: list[str], log_path: str,
            calibration: Calibration | None = None) -> CommandRun:
    return run_child([sys.executable, "-m", "parsedisamb.cli", *argv],
                     log_path, calibration)


# ---------------------------------------------------------------------------
# Correctness gate

@dataclass
class Gate:
    """Counts commands and checks attempted and failed, with reasons."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def read_trace(path: str) -> list[float]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line)["L"] for line in handle if line.strip()]


def likelihood_non_decreasing(path: str) -> bool:
    values = read_trace(path)
    return bool(values) and all(b >= a for a, b in zip(values, values[1:]))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def output_digests(out_dir: str) -> dict:
    """sha256 of model.json, report_*.json and sweep_*.csv of one run."""
    files = [os.path.join("train", "model.json")] + sorted(
        os.path.join("eval", n) for n in os.listdir(os.path.join(out_dir, "eval"))
        if (n.startswith("report_") and n.endswith(".json"))
        or (n.startswith("sweep_") and n.endswith(".csv")))
    digests = {}
    for name in files:
        with open(os.path.join(out_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def check_run(gate: Gate, workload: Workload, out_dir: str,
              converged: bool) -> None:
    """Checks on one finished pipeline run (CLI or traced)."""
    from parsedisamb.cli import verify_manifest

    gate.check(likelihood_non_decreasing(
        os.path.join(out_dir, "train", "trace.jsonl")),
        f"{out_dir}: trace.jsonl L decreases")
    if workload.to_tolerance:
        gate.check(converged, f"{out_dir}: training did not converge")
    baseline = os.path.join(out_dir, "eval", "baseline_exact_match.json")
    if os.path.exists(baseline):
        precision = _read_json(os.path.join(
            out_dir, "eval", "report_exact_match.json"))["precision"]
        mean = _read_json(baseline)["mean_precision"]
        gate.check(precision is not None and precision > mean,
                   f"{out_dir}: precision {precision} <= baseline {mean}")
    for command in ("cluster", "train", "eval"):
        gate.check(verify_manifest(os.path.join(out_dir, command,
                                                "manifest.json")),
                   f"{out_dir}: {command} manifest does not verify")


# ---------------------------------------------------------------------------
# One workload

def setup_inputs(workload: Workload, seed: int, in_dir: str, logs: str,
                 gate: Gate, calibration: Calibration) -> float:
    """Write train.jsonl, test.jsonl and pairs.tsv; return the wall time.

    Everything runs in child processes, so the bench process stays small
    (see make_inputs.py).
    """
    helper = [sys.executable, os.path.join(ROOT, "perfbench", "make_inputs.py")]
    if workload.structural:
        commands = [[*helper, "structural", "--seed", str(seed),
                     "--sizes", json.dumps(workload.sizes), "--out-dir", in_dir]]
    else:
        commands = [
            [sys.executable, "-m", "parsedisamb.cli", "synth",
             *workload.synth_args(), "--seed", str(seed), "--out-dir", in_dir],
            [*helper, "pairs", "--corpus", os.path.join(in_dir, "train.jsonl"),
             "--out", os.path.join(in_dir, "pairs.tsv")]]
    elapsed = 0.0
    for cmd in commands:
        run = run_child(cmd, os.path.join(logs, "setup.log"), calibration)
        elapsed += run.wall_s
        if not gate.check(run.returncode == 0,
                          f"set-up {cmd[1:3]} exited {run.returncode}: "
                          f"{run.output.strip()[-300:]}"):
            break
    return elapsed


def run_pipeline(workload: Workload, steps, logs: str, gate: Gate,
                 calibration: Calibration) -> dict:
    """Run the CLI steps in order, each ``workload.runs_of`` times.

    Returns the runs of each command; stops at the first failing one.  One
    calibration sample precedes each step.
    """
    runs = {}
    for command, argv in steps:
        runs[command] = []
        for i in range(workload.runs_of(command)):
            run = run_cli(argv, os.path.join(logs, f"{command}.log"),
                          calibration if i == 0 else None)
            runs[command].append(run)
            if not gate.check(run.returncode == 0,
                              f"{command} exited {run.returncode}: "
                              f"{run.output.strip()[-300:]}"):
                return runs
    return runs


def measure_import(logs: str) -> float:
    times = [run_child([sys.executable, "-c", "import parsedisamb.cli"],
                       os.path.join(logs, "import.log")).wall_s
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def input_sizes(in_dir: str, out_dir: str) -> dict:
    sizes = {"file_bytes": 0, "sentences": 0, "parses": 0}
    for name in ("train.jsonl", "test.jsonl", "pairs.tsv"):
        path = os.path.join(in_dir, name)
        sizes["file_bytes"] += os.path.getsize(path)
        if name.endswith(".jsonl"):
            with open(path, "r", encoding="utf-8") as handle:
                next(handle)
                for line in handle:
                    sizes["sentences"] += 1
                    sizes["parses"] += len(json.loads(line)["parses"])
    registry = _read_json(os.path.join(out_dir, "train", "registry.json"))
    sizes["registry_size"] = len(registry["properties"])
    return sizes


def median_walls(runs: dict) -> dict:
    """The median wall time of each command's runs."""
    return {command: statistics.median(run.wall_s for run in command_runs)
            for command, command_runs in runs.items()}


def end_to_end(workload: Workload, runs: dict, out_dirs: list[str],
               setup_times: list[float], factor: float) -> dict:
    """The end-to-end metrics; times are wall times scaled by ``factor``.

    ``runs`` holds every run of each command in the set; each metric is the
    median over them, and ``pipeline_s`` the sum of the commands' medians.
    """
    med = statistics.median
    walls = median_walls(runs)
    first = out_dirs[0]
    tasks = [n for n in sorted(os.listdir(os.path.join(first, "eval")))
             if n.startswith("report_")]
    test_sentences = sum(_read_json(os.path.join(first, "eval", tasks[0]))
                         ["counts"].values())
    baseline = 0
    if "--baseline" in workload.eval_args:
        baseline = int(workload.eval_args[workload.eval_args.index("--baseline") + 1])
    checkpoints = 0
    if workload.sweep:
        checkpoints = len(os.listdir(os.path.join(first, "train", "checkpoints")))
    decisions = test_sentences * len(tasks) * (1 + baseline + checkpoints)
    report = _read_json(os.path.join(first, "eval", "report_exact_match.json"))
    return {
        "setup_s": factor * med(setup_times),
        "cluster_s": factor * walls["cluster"],
        "train_s": factor * walls["train"],
        "eval_s": factor * walls["eval"],
        "pipeline_s": factor * sum(walls.values()),
        "decisions_per_s": decisions / (factor * walls["eval"]),
        "train_rss_mb": med(run.rss_mb for run in runs["train"]),
        "eval_rss_mb": med(run.rss_mb for run in runs["eval"]),
        "heldout_precision": report["precision"],
        "train_log_likelihood": read_trace(
            os.path.join(first, "train", "trace.jsonl"))[-1],
    }


def environment(seconds: int, trace: bool) -> dict:
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": cpus,
        "platform": platform.platform(),
        "seconds": seconds,
        "trace": trace,
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 run_dir: str) -> dict:
    """Set up, measure, trace and gate one workload; return the result."""
    gate, calibration = Gate(), Calibration()
    in_dir, logs = (os.path.join(run_dir, d) for d in ("inputs", "logs"))
    os.makedirs(logs, exist_ok=True)

    # Traced runs report no set-up time and take their timings from the
    # traced copy, so they set up once and run the CLI pipeline once.
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        setup_times.append(setup_inputs(workload, seed, in_dir, logs, gate,
                                         calibration))
        if gate.failed:
            return {"gate": gate}

    # Untraced runs start another repetition only if a median one still fits
    # in ``seconds``, which bounds a run's length on a slow host too.
    min_reps = 1 if trace else 2
    runs, out_dirs, rep_times = {}, [], []
    start = perf_counter()
    while len(out_dirs) < min_reps or (
            not trace and perf_counter() - start
            + statistics.median(rep_times) <= seconds):
        rep_start = perf_counter()
        out_dir = os.path.join(run_dir, f"rep{len(out_dirs)}")
        steps = pipeline_steps(workload, seed, in_dir, out_dir)
        rep_runs = run_pipeline(workload, steps, logs, gate, calibration)
        if gate.failed:
            return {"gate": gate}
        check_run(gate, workload, out_dir,
                  "converged = True" in rep_runs["train"][-1].output)
        for command, command_runs in rep_runs.items():
            runs.setdefault(command, []).extend(command_runs)
        out_dirs.append(out_dir)
        rep_times.append(perf_counter() - rep_start)

    metrics = end_to_end(workload, runs, out_dirs, setup_times,
                         calibration.factor)
    # Raw wall times, before scaling to the reference speed.
    result = {"gate": gate, "end_to_end": metrics,
              "samples": {"setup_s": setup_times, **{
                  f"{command}_s": [run.wall_s for run in command_runs]
                  for command, command_runs in runs.items()},
                  "calibration_s": calibration.samples},
              "inputs": input_sizes(in_dir, out_dirs[0])}

    if trace:
        import tracing

        traced_dir = os.path.join(run_dir, "traced")
        steps = pipeline_steps(workload, seed, in_dir, traced_dir)
        layers = tracing.traced_run(
            workload, seed, in_dir, traced_dir, steps,
            import_s=measure_import(logs),
            spans_path=os.path.join(run_dir, "spans.jsonl"))
        # Per-layer times are raw wall times, so the overhead is taken
        # against the raw pipeline time.
        layers["trace.overhead_s"] = (layers["trace.total_s"]
                                      - sum(median_walls(runs).values()))
        check_run(gate, workload, traced_dir, bool(layers["trainer.converged"]))
        out_dirs.append(traced_dir)
        result["per_layer"] = layers

    digests = [output_digests(d) for d in out_dirs]
    gate.check(all(d == digests[0] for d in digests[1:]),
               "output digests differ between runs of one set")
    return result


# ---------------------------------------------------------------------------
# Reporting

def _units(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def summarize(result: dict, trace: bool) -> dict:
    """The result line: gate counts plus the metrics of this trace mode."""
    gate = result["gate"]
    metrics = {}
    if "end_to_end" in result:
        if trace:
            values = dict(result["per_layer"])
            values["failure_rate"] = gate.failed / gate.attempted
            kind = "per_layer"
        else:
            values, kind = result["end_to_end"], "end_to_end"
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in _units(kind).items()}
    return {"correct": gate.failed == 0, "attempted": gate.attempted,
            "failed": gate.failed, "metrics": metrics}


def print_report(name: str, summary: dict, result: dict, env: dict) -> None:
    print(f"# workload {name}: correct={summary['correct']} "
          f"attempted={summary['attempted']} failed={summary['failed']}")
    for failure in result["gate"].failures:
        print(f"#   FAILED: {failure}")
    for key in ("samples", "inputs"):
        if key in result:
            print(f"#   {key}: {json.dumps(result[key], sort_keys=True)}")
    print(f"#   environment: {json.dumps(env, sort_keys=True)}")
    for metric, entry in summary["metrics"].items():
        print(f"{name:16s} {metric:42s} {entry['value']:>16.6g} {entry['unit']}")


def run_one(name: str, seed: int, seconds: int, trace: bool) -> dict:
    run_dir = os.path.join(WORK_DIR, f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    result = run_workload(WORKLOADS[name], seed, seconds, trace, run_dir)
    summary = summarize(result, trace)
    env = environment(seconds, trace)
    results_dir = os.path.join(WORK_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = os.path.join(results_dir, f"{name}-seed{seed}-trace{int(trace)}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "summary": summary,
                   "failures": result["gate"].failures,
                   "end_to_end": result.get("end_to_end"),
                   "per_layer": result.get("per_layer"),
                   "inputs": result.get("inputs"),
                   "samples": result.get("samples"),
                   "environment": env}, handle, indent=1, sort_keys=True)
    if os.path.exists(os.path.join(run_dir, "spans.jsonl")):
        shutil.copyfile(os.path.join(run_dir, "spans.jsonl"),
                        stem + ".spans.jsonl")
    print_report(name, summary, result, env)
    shutil.rmtree(run_dir, ignore_errors=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="parsedisamb CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    # One BLAS thread in this process and its children: nothing runs in
    # parallel, and the traced in-process run sums in the same order as the
    # CLI, so their outputs agree to the bit.
    for name in THREAD_VARS:
        os.environ[name] = "1"
    if not os.path.isfile(os.path.join("src", "parsedisamb", "cli.py")):
        print("perfbench: no parsedisamb sources under src/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

    if args.workload != "all":
        summary = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summary, sort_keys=True))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    # Untraced runs first: a traced run grows this process, and children
    # would inherit its peak RSS.
    for trace in (False, True):
        for name in WORKLOADS:
            summary = run_one(name, args.seed, args.seconds, trace)
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            combined["metrics"].update(
                {f"{name}/{metric}": entry
                 for metric, entry in summary["metrics"].items()})
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
