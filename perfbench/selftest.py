"""Fast self-test of the benchmark itself.

Usage (from the repository root): python3 perfbench/selftest.py

Runs every workload at a tiny size in both trace modes and asserts that the
result line meets the output contract, that every metric BENCHMARK.json
names is emitted with its unit, and that the human-readable table names
each metric of the benchmark's issue with a unit. It also checks that the
benchmark refuses to run, without printing a result, when the package
source is missing. Takes about a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, PER_LAYER, ROOT, SOLVE_WORKLOADS, WORKLOADS

HERE = Path(__file__).resolve().parent

# table rows every untraced run must print, beyond the JSON metrics
SOLVE_ROWS = (
    "iters_per_s", "final_objective", "wall_s", "setup_s", "peak_rss_mb", "failed_share",
    "unassigned_share",
)
DISCOVER_ROWS = (
    "iters_per_s", "discover_s", "generation_s", "best_fitness", "failed_share", "setup_s",
    "peak_rss_mb", "child_peak_rss_mb", "llm_s", "llm_share",
)


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_spec() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads differ from run.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        check(declared == table, f"{key} in BENCHMARK.json differs from run.py")


def run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=180, check=False
    )


def table_rows(stdout: str) -> dict[str, str]:
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3:
            rows[parts[0]] = parts[2]
    return rows


def check_workload(workload: str, trace: int) -> None:
    label = f"{workload} --trace {trace}"
    done = run([str(HERE / "run.py"), "--workload", workload, "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
    check(done.returncode == 0, f"{label} exited {done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{label}: not correct")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label}: attempted")
    expected = PER_LAYER if trace else END_TO_END
    check(set(result["metrics"]) == set(expected), f"{label}: metric names differ")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        check(metric["unit"] == expected[name], f"{label}: {name} unit {metric['unit']!r}")
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {name} = {value!r}")
        if not trace:
            check(value > 0, f"{label}: end-to-end metric {name} is {value!r}")
    rows = table_rows(done.stdout)
    wanted = SOLVE_ROWS if workload in SOLVE_WORKLOADS else DISCOVER_ROWS
    if trace:
        wanted = tuple(PER_LAYER)
    for name in wanted:
        check(bool(rows.get(name)), f"{label}: table row {name} missing or without a unit")
    print(f"ok  {label}: {len(result['metrics'])} metrics, attempted {result['attempted']}")


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run([f"{HERE.name}/run.py", "--workload", "cvrp-n500", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    check(done.returncode != 0, "benchmark ran without the package source")
    check('"correct"' not in done.stdout, "benchmark printed a result without the package source")
    print("ok  refuses to run without src/routesmith")


def main() -> int:
    check_spec()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(workload, trace)
    check_refuses_without_source()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
