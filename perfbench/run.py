#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the nelsonlab command line.

Run from the repository root:

    python3 perfbench/run.py --workload regularity --seed 7 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

``--trace 0`` runs each experiment of the workload in a fresh
``python -m nelsonlab.cli`` process, one after another (one client, closed
loop), and reports wall_s, cpu_s, setup_s, peak_rss_mb and success_rate.
Passes repeat until ``--seconds`` have elapsed; a pass is never cut short.
``--trace 1`` runs the experiments in this process, untraced and then with
every layer's public functions wrapped in spans, and reports per-layer and
per-function self time and call counts.  Every output is checked against
the reference runs under ``perfbench/reference``.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"

# workload -> experiments, run in this order with perfbench/workloads/<workload>.cfg
WORKLOADS = {
    "regularity": ("domain-regularity",),
    "dense-tensor": ("renorm-convergence", "gross-transform", "ibc-identity"),
    "calculus": ("psido-calculus", "weyl-identities", "appendix-inequalities", "vacuum-energy"),
}
REFERENCE_SEED = 7
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170.0
PROCESS_TIMEOUT_S = 150.0
WARMUP_BELOW_S = 30.0  # traced run: a first pass shorter than this only warms up
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# per-function metrics of the traced run, besides the per-layer totals
REPORTED_FUNCTIONS = (
    "ibc.domain_regularity_norms",
    "ibc.invert_one_minus_G",
    "ibc.build_ibc",
    "ibc.factorization_identity_check",
    "ibc.creation_family",
    "nelson.renorm_convergence_experiment",
    "nelson.transformed_hamiltonian_check",
    "nelson.assemble_cutoff_hamiltonian",
    "nelson.vacuum_energy_operator",
    "nelson.form_factor",
    "fock.annihilate",
    "fock.second_quantize",
    "fock.fock_basis",
    "operators.hermitian_func",
    "psido.quantize",
    "psido.moyal",
    "psido.dequantize",
    "psido.change_quantization",
    "inequalities.integral_3d",
    "inequalities.hardy_littlewood_check",
    "grid.momentum_multiplier",
)

ENV_PROBE = """
import json, platform, numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version")}))
"""


class PreflightError(RuntimeError):
    """The program is missing or refuses a workload config."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(OUT))
    env.update(PINNED_ENV)
    return env


def spawn(argv: list[str], log: Path, timeout: float) -> dict:
    """Run one process to completion; wall, CPU and peak RSS from wait4.

    A process still running after ``timeout`` seconds is killed and reported
    with ``exit`` None.
    """
    log.parent.mkdir(parents=True, exist_ok=True)
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=handle, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)

    def kill() -> None:
        with lock:
            if not state["reaped"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        # wait without reaping, so the timer can never signal a recycled pid
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        kill()
        raise
    finally:
        timer.cancel()
        with lock:
            state["reaped"] = True
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": time.perf_counter() - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "exit": None if state["killed"] else proc.returncode,
    }


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "nelsonlab.cli", *args]


def experiment_args(experiment: str, config: Path, seed: int, out: Path) -> list[str]:
    return ["--experiment", experiment, "--config", str(config), "--seed", str(seed), "--threads", "1", "--out", str(out)]


def load_manifest() -> dict:
    return json.loads((REFERENCE / "manifest.json").read_text(encoding="utf-8"))


def verify(workload: str, experiment: str, seed: int, exit_code, out: Path, manifest: dict, first: Path | None) -> list[str]:
    """Problems with one experiment run; empty when it matches the reference.

    The reference's numbers apply at its own seed and, for experiments whose
    output does not depend on the seed, at every seed.  Otherwise only rows,
    parameters and statuses are compared, plus full agreement with the first
    pass at the same seed, when ``first`` names its output directory.
    """
    expected = manifest["workloads"][workload][experiment]
    if exit_code is None:
        return ["killed after timeout"]
    problems = []
    if exit_code != expected["exit"]:
        problems.append(f"exit {exit_code}, reference exits {expected['exit']}")
    try:
        got = (out / "results.csv").read_text(encoding="utf-8")
    except OSError as exc:
        return problems + [f"no results.csv: {exc}"]
    ref = (REFERENCE / workload / f"{experiment}.csv").read_text(encoding="utf-8")
    numbers = seed == manifest["seed"] or expected["seed_independent"]
    problems += check.compare(got, ref, numbers=numbers, seed=seed)
    if first is not None:
        earlier = (first / "results.csv").read_text(encoding="utf-8")
        problems += [f"differs from first pass: {p}" for p in check.compare(got, earlier)]
    return problems


def require_program() -> None:
    if not (SRC / "nelsonlab" / "cli.py").is_file():
        raise PreflightError(f"program not found: {SRC / 'nelsonlab' / 'cli.py'}")


def measure_setup(config: Path, out: Path, samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall times of fresh ``--validate`` runs; the first is the pre-flight."""
    walls = []
    for index in range(samples):
        record = spawn(cli_argv("--validate", "--config", str(config)), out / f"validate{index}.log", 60.0)
        if record["exit"] != 0:
            raise PreflightError(f"--validate --config {config} exited {record['exit']}, see {out}")
        walls.append(record["wall_s"])
    return walls


def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c", ENV_PROBE], capture_output=True, text=True, env=child_env(), timeout=60, check=True
    )
    info = json.loads(probe.stdout)
    info.update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)), **PINNED_ENV, threads=1)
    return info


def timed_run(workload: str, seed: int, seconds: float, out: Path) -> dict:
    """Closed-loop passes over the workload, each experiment its own process."""
    config = HERE / "workloads" / f"{workload}.cfg"
    manifest = load_manifest()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup = measure_setup(config, out / "setup")
    passes, problems, attempted, failed, peak_rss = [], [], 0, 0, 0.0
    measure_start = time.perf_counter()
    while True:
        index = len(passes)
        pass_dir = out / f"pass{index}"
        records = []
        pass_start = time.perf_counter()
        for experiment in WORKLOADS[workload]:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            argv = cli_argv(*experiment_args(experiment, config, seed, pass_dir / experiment))
            records.append(spawn(argv, pass_dir / experiment / "log.txt", min(PROCESS_TIMEOUT_S, remaining)))
            if records[-1]["exit"] is None:
                break
        pass_wall = time.perf_counter() - pass_start
        for experiment, record in zip(WORKLOADS[workload], records):
            first = out / "pass0" / experiment if index else None
            found = verify(workload, experiment, seed, record["exit"], pass_dir / experiment, manifest, first)
            attempted += 1
            failed += bool(found)
            problems += [f"pass {index} {experiment}: {p}" for p in found]
            peak_rss = max(peak_rss, record["peak_rss_mb"])
        complete = len(records) == len(WORKLOADS[workload]) and records[-1]["exit"] is not None
        cpu = sum(r["cpu_s"] for r in records)
        passes.append({"wall_s": pass_wall, "cpu_s": cpu, "complete": complete, "processes": records})
        if not complete or time.perf_counter() - measure_start >= seconds:
            break
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
    }
    return {
        "correct": not problems and all(p["complete"] for p in passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "details": {"setup_s": setup, "passes": passes},
    }


def _in_process_pass(main, workload: str, seed: int, config: Path, out: Path) -> tuple[float, list[int]]:
    exits = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for experiment in WORKLOADS[workload]:
            exits.append(main(experiment_args(experiment, config, seed, out / experiment)))
    return time.perf_counter() - start, exits


def traced_run(workload: str, seed: int, out: Path) -> dict:
    """In-process untraced and traced passes; per-layer metrics.

    The first pass in a process runs slower (about 2 s of 10 on calculus).
    When it is short enough for that to matter, it only warms up, and the
    untraced pass is repeated after the traced one; the tracing overhead is
    the traced pass minus the untraced one.
    """
    import tracer

    config = HERE / "workloads" / f"{workload}.cfg"
    manifest = load_manifest()
    measure_setup(config, out / "setup", samples=1)
    os.environ.update(PINNED_ENV)  # before numpy loads, so BLAS starts with one thread
    sys.path.insert(0, str(SRC))
    from nelsonlab import cli

    if Path(cli.__file__).resolve().parent != (SRC / "nelsonlab").resolve():
        raise PreflightError(f"imported nelsonlab from {cli.__file__}, not from {SRC}")
    passes = {"first": _in_process_pass(cli.main, workload, seed, config, out / "first")}
    spans = tracer.Tracer()
    spans.install()
    try:
        passes["traced"] = _in_process_pass(spans.wrap("cli.main", cli.main), workload, seed, config, out / "traced")
    finally:
        spans.uninstall()
    if passes["first"][0] < WARMUP_BELOW_S:
        passes["plain"] = _in_process_pass(cli.main, workload, seed, config, out / "plain")
    problems, failed = [], 0
    for side, (_, exits) in passes.items():
        for experiment, exit_code in zip(WORKLOADS[workload], exits):
            first = out / "first" / experiment if side != "first" else None
            found = verify(workload, experiment, seed, exit_code, out / side / experiment, manifest, first)
            failed += bool(found)
            problems += [f"{side} {experiment}: {p}" for p in found]
    traced_wall = passes["traced"][0]
    plain_wall = passes.get("plain", passes["first"])[0]
    functions = tracer.summarize(spans.spans)
    metrics = {}
    for layer, (self_s, calls) in tracer.layer_totals(functions).items():
        metrics[f"{layer}.self_s"] = (self_s, "s")
        metrics[f"{layer}.calls"] = (calls, "count")
    for name in REPORTED_FUNCTIONS:
        self_s, calls = functions.get(name, (0.0, 0))
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    (out / "spans.json").write_text(
        json.dumps({"wrapped": spans.wrapped, "spans": spans.spans}, separators=(",", ":")), encoding="utf-8"
    )
    return {
        "correct": not problems,
        "attempted": len(passes) * len(WORKLOADS[workload]),
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "details": {f"{side}_wall_s": wall for side, (wall, _) in passes.items()} | {"wrapped": spans.wrapped},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out = OUT / workload / f"seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    result = traced_run(workload, seed, out) if trace else timed_run(workload, seed, seconds, out)
    result["environment"] = environment()
    result["workload"], result["seed"], result["seconds"] = workload, seed, seconds
    (out / "result.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def print_table(workload: str, result: dict) -> None:
    for problem in result["problems"]:
        print(f"{workload}: FAILED {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload:<13} {name:<48} {value:>14.6g} {unit}")
    if "success_rate" in result["metrics"]:
        print(f"{workload:<13} {'error_rate':<48} {result['failed'] / result['attempted']:>14.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=5.0, help="measure for at least this long (whole passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        require_program()
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in workloads}
    except (PreflightError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, result in results.items():
        print(f"{name}: environment {json.dumps(result['environment'], sort_keys=True)}")
        print_table(name, result)
    prefix = len(workloads) > 1
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
            for name, result in results.items()
            for metric, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
