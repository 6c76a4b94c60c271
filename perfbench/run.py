"""mu2sod benchmark: batches of real ``mu2sod.cli.main`` invocations.

One run measures one workload in a fresh interpreter::

    python3 perfbench/run.py --workload inertia-verify --seed 7 --seconds 60 --trace 0

and ``--workload all`` runs every workload, each in its own process, and
prints their end-to-end metrics.  The last line of a single run is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of BENCHMARK.json with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The exit code is 0 when every
output check passed, 1 when one failed, and 2 (with no result line) when
set-up fails, for example because the checkout has no ``src/mu2sod``.

A run sets up once with a fresh set-up process (``inputs.py``), then
runs the workload's batch in rounds, in a closed loop (one caller, each
invocation starting after the previous one returns), until the next
round would overrun ``--seconds``.  After every round it times one more
fresh set-up process, so the set-up samples span the run as the rounds
do; ``setup_s`` is their median.  mu2sod's ``lru_cache``s are cleared before every
invocation, so each starts as cold as a fresh ``mu2sod`` process and
every round does the same work; ``wall_s`` and ``cpu_s`` are medians over
rounds.  Outputs are checked after each round, outside the timed region.

With ``--trace 1``, untraced and traced rounds alternate: traced rounds
wrap the functions in ``tracer.LAYERS`` and give the per-layer numbers,
and ``trace.overhead_s`` is the traced round median minus the untraced
one.  Run records (inputs drawn, round times, problems) and spans are
written under ``.perfbench/runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import inputs
import oracles
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SETUP_TIMEOUT_S = 60


class SetupError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def timed_setup(workload: str, seed: int, out: Path) -> float:
    """Run one fresh set-up process writing into ``out``; return its wall time."""
    command = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out)]
    start = perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        raise SetupError(proc.stderr.strip() or f"set-up exited with {proc.returncode}")
    return elapsed


def load_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def cache_clearers() -> list:
    """cache_clear of every lru_cache bound at module level in mu2sod."""
    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "mu2sod" or name.startswith("mu2sod."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value.cache_clear
    return list(found.values())


def invoke(cli, argv: list[str], clearers: list) -> dict:
    for clear in clearers:
        clear()
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        wall, cpu = perf_counter(), process_time()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed invocation, not a failed run
            code, exception = None, f"{type(exc).__name__}: {exc}"
        wall, cpu = perf_counter() - wall, process_time() - cpu
    return {"code": code, "exception": exception, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue(), "wall": wall, "cpu": cpu}


def run_rounds(cli, manifest: dict, seconds: float, tracer, after_round) -> dict:
    items = manifest["items"]
    digests = oracles.load_digests()
    clearers = cache_clearers()
    rounds, problems, first_digest = [], {}, {}
    attempted = failed = 0
    begin = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        gc.collect()
        round_start = perf_counter()
        if traced:
            mark = tracer.mark()
            tracer.install()
        try:
            results = [invoke(cli, item["argv"], clearers) for item in items]
        finally:
            if traced:
                tracer.uninstall()
        record = {
            "traced": traced,
            "wall_s": sum(r["wall"] for r in results),
            "cpu_s": sum(r["cpu"] for r in results),
            "invocations_s": [r["wall"] for r in results],
            "output_bytes": sum(len(r["stdout"].encode("utf-8")) for r in results),
            "verify_checks": 0,
            "verify_checks_failed": 0,
        }
        for item, result in zip(items, results):
            attempted += 1
            found = oracles.check(item, result, digests)
            out_digest = oracles.digest(result["stdout"])
            if first_digest.setdefault(item["id"], out_digest) != out_digest:
                found.append("output differs from the first round's")
            if found:
                failed += 1
                problems.setdefault(item["id"], found)
            if item["expect"]["command"] == "verify" and result["code"] in (0, 1):
                try:
                    lines = json.loads(result["stdout"])
                    record["verify_checks"] += len(lines)
                    record["verify_checks_failed"] += sum(line["status"] == "fail" for line in lines)
                except (json.JSONDecodeError, KeyError, TypeError):
                    pass  # the oracles have already counted this output as failed
        if traced:
            record.update(tracer.summary(mark))
        rounds.append(record)
        after_round()
        now = perf_counter()
        enough = len(rounds) >= (2 if tracer is not None else 1)
        if enough and now - begin + (now - round_start) > seconds:
            break
    return {"rounds": rounds, "attempted": attempted, "failed": failed, "problems": problems}


def end_to_end_metrics(setup_times: list[float], run: dict) -> dict:
    rounds = [r for r in run["rounds"] if not r["traced"]]
    return {
        "setup_s": (median(setup_times), "s"),
        "wall_s": (median(r["wall_s"] for r in rounds), "s"),
        "cpu_s": (median(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fail_ratio": (run["failed"] / run["attempted"], "ratio"),
    }


def layer_metrics(run: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics per batch (one round), and any problems.

    Calls and counts are exact and must agree between traced rounds; self
    times are medians over traced rounds."""
    traced = [r for r in run["rounds"] if r["traced"]]
    untraced = [r for r in run["rounds"] if not r["traced"]]
    problems = []
    first = traced[0]
    for other in traced[1:]:
        if other["counts"] != first["counts"] or any(
            other["functions"][name]["calls"] != fn["calls"] for name, fn in first["functions"].items()
        ):
            problems.append("exact counts differ between traced rounds")
            break
    metrics = {}
    for name, fn in first["functions"].items():
        metrics[f"{name}.calls"] = (fn["calls"], "count")
        metrics[f"{name}.errors"] = (sum(r["functions"][name]["errors"] for r in traced), "count")
        metrics[f"{name}.self_s"] = (median(r["functions"][name]["self_s"] for r in traced), "s")
    for key, value in first["counts"].items():
        metrics[key] = (value, "count")
    moves = first["counts"]["sod.moves"]
    metrics["sod.moves_orthogonal_ratio"] = (first["counts"]["sod.moves_orthogonal"] / moves if moves else 0.0, "ratio")
    metrics["trace.errors"] = (sum(metrics[f"{name}.errors"][0] for name in first["functions"]), "count")
    metrics["verify.checks"] = (first["verify_checks"], "count")
    metrics["verify.checks_failed"] = (first["verify_checks_failed"], "count")
    metrics["cli.output_bytes"] = (first["output_bytes"], "bytes")
    overhead = median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in untraced)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, problems


def report(metrics: dict, names: list[str], correct: bool, run: dict) -> dict:
    missing = [name for name in names if name not in metrics]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run does not produce: {missing}")
    return {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in names},
    }


def run_one(args) -> int:
    spec = benchmark_spec()
    runs_dir = STATE / "runs"
    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []

    def setup_again():
        out = work / f"setup-{len(setup_times)}"
        setup_times.append(timed_setup(args.workload, args.seed, out))
        shutil.rmtree(out)

    try:
        setup_times.append(timed_setup(args.workload, args.seed, work / "inputs"))
        manifest = load_manifest(work / "inputs")
        inputs.import_mu2sod()
        from mu2sod import cli

        tracer = tracing.Tracer() if args.trace else None
        run = run_rounds(cli, manifest, args.seconds, tracer, setup_again)
    except (SetupError, ImportError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = [f"{item}: {'; '.join(found)}" for item, found in run["problems"].items()]
    metrics = end_to_end_metrics(setup_times, run)
    if tracer is not None:
        layer, layer_problems = layer_metrics(run)
        metrics.update(layer)
        problems += layer_problems
    correct = not problems
    kind = "per_layer" if args.trace else "end_to_end"
    result = report(metrics, [m["name"] for m in spec[kind]], correct, run)

    runs_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "setup_times_s": setup_times, "problems": problems,
        "skipped_functions": tracer.skipped if tracer is not None else [],
        "skipped_counts": sorted(tracer.skipped_counts) if tracer is not None else [],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "rounds": run["rounds"], "manifest": manifest,
    }
    if tracer is not None:
        tracer.write(runs_dir / f"{stem}.spans.jsonl.gz")
    (runs_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print_summary(args, run, metrics, problems, tracer)
    print(json.dumps(result))
    return 0 if correct else 1


def print_summary(args, run: dict, metrics: dict, problems: list[str], tracer) -> None:
    rounds = run["rounds"]
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{run['attempted'] // len(rounds)} invocations, {run['failed']} failed")
    for problem in problems:
        print(f"  FAIL {problem}")
    shown = ["setup_s", "wall_s", "cpu_s", "peak_rss_mb", "fail_ratio"]
    if tracer is not None:
        for name in tracer.skipped:
            print(f"  trace: skipped {name} (not found in mu2sod)")
        for name in sorted(tracer.skipped_counts):
            print(f"  trace: could not update the counter of {name}")
        shown = [name for name in metrics if name not in shown]
    for name in shown:
        value, unit = metrics[name]
        print(f"  {name:<40} {value:>14.6g} {unit}")


def run_all(args) -> int:
    """Every workload in its own process; exits 1 if any run failed."""
    failed = []
    for workload in inputs.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        proc = subprocess.run(command, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode in (0, 1) else lines))
        if proc.returncode != 0:
            print(proc.stderr.strip(), file=sys.stderr)
            failed.append(workload)
    if failed:
        print(f"FAILED: {', '.join(failed)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mu2sod benchmark")
    parser.add_argument("--workload", choices=[*inputs.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
