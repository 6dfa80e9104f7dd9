"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs a tiny variant of every workload (one round, --seconds 1) untraced
and traced, and checks that
  - the last line names every metric of BENCHMARK.json with its unit,
  - the run is correct and no run failed (failed_frac is 0),
  - the traced and the untraced run give the same result fingerprint,
and that the benchmark exits non-zero, printing no result, from a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def fingerprint(stdout: str) -> str:
    return next(line.split()[1] for line in stdout.splitlines() if line.startswith("fingerprint"))


def check_workload(spec: dict, workload: str) -> list[str]:
    problems = []
    prints = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        out = bench(ROOT, workload, trace)
        if out.returncode != 0:
            return [f"--trace {trace} exited {out.returncode}: {out.stderr[-500:]}"]
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"--trace {trace}: result keys {sorted(result)}")
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"--trace {trace}: correct={result['correct']} "
                            f"failed={result['failed']} attempted={result['attempted']}")
        expected = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            problems.append(f"--trace {trace}: metrics/units differ from BENCHMARK.json: "
                            f"missing {sorted(set(expected) - set(got))}, "
                            f"extra {sorted(set(got) - set(expected))}, "
                            f"units {[n for n in expected if n in got and got[n] != expected[n]]}")
        if trace and result["metrics"].get("failed_frac", {}).get("value") != 0:
            problems.append("failed_frac is not 0")
        prints[trace] = fingerprint(out.stdout)
    if prints[0] != prints[1]:
        problems.append(f"fingerprints differ: untraced {prints[0]}, traced {prints[1]}")
    return problems


def check_without_program(spec: dict) -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: must fail cleanly."""
    with tempfile.TemporaryDirectory(prefix=".out-selftest-", dir=BENCH_DIR) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns(".out-*", "__pycache__"))
        out = bench(bare, spec["workloads"][0]["name"], 0)
    if out.returncode == 0 or out.stdout.strip().startswith("{"):
        return [f"without the program: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        problems = check_workload(spec, workload)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for p in problems:
            print(f"  {p}")
        failed |= bool(problems)
    problems = check_without_program(spec)
    print(f"without the program: {'ok' if not problems else 'FAILED'}")
    for p in problems:
        print(f"  {p}")
    failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
