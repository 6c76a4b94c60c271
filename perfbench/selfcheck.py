"""Fast self-check of the benchmark itself (about two minutes)::

    python3 perfbench/selfcheck.py

* BENCHMARK.json has the required shape;
* one short untraced pass of every workload reports every end-to-end
  metric of BENCHMARK.json, with its unit, and no failed invocation;
* two short traced passes report every per-layer metric, and every
  exact count (a metric whose unit is not seconds) is the same in both;
* in a directory holding only BENCHMARK.json and the benchmark's files
  (no ``src/``), a run exits nonzero without printing a result.

Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    command = [sys.executable, "perfbench/run.py", *args]
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in spec[kind]]
    problems += [f"bad or repeated name {n!r}" for n in names if not NAME.fullmatch(n) or names.count(n) > 1]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(metric["unit"]) or metric["better"] not in ("lower", "higher"):
            problems.append(f"bad unit or direction in {metric}")
    for metric in spec["end_to_end"]:
        if not 0 < metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']} is outside (0, 0.25]")
    setup = [(m["unit"], m["better"]) for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if setup != [("s", "lower")]:
        problems.append("end_to_end lacks setup_s in s, lower is better")
    if not 2 <= len(spec["workloads"]) <= 8 or not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("need 2-8 workloads and 1-128 per-layer metrics")
    return problems


def check_result(label: str, code: int, result: dict | None, metrics: list[dict]) -> list[str]:
    if code != 0 or result is None:
        return [f"{label}: exit code {code}, result {result}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}/{result['attempted']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        code, result, _ = run(["--workload", workload, "--seconds", "0", "--trace", "0"])
        problems += check_result(f"{workload} untraced", code, result, spec["end_to_end"])
        passes = []
        for i in (1, 2):
            code, result, _ = run(["--workload", workload, "--seconds", "0", "--trace", "1"])
            problems += check_result(f"{workload} traced pass {i}", code, result, spec["per_layer"])
            passes.append(result)
        if all(passes):
            exact = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
            differ = [n for n in exact if passes[0]["metrics"][n] != passes[1]["metrics"][n]]
            if differ:
                problems.append(f"{workload}: exact counts differ between traced passes: {differ}")
        print(f"{workload}: checked", flush=True)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, result, _ = run(["--workload", spec["workloads"][0]["name"], "--seconds", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or result is not None:
        problems.append(f"without src/ the benchmark exited {code} with result {result}")

    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
