"""Checks on the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs of each workload in BENCHMARK.json at one seed give identical counts
   (tape nodes, op calls, gradient bytes, GFLOP, bytes read and written,
   checkpoint bytes, epochs) and identical losses.
2. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.

Takes about two minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
COUNT_UNITS = ("count", "GFLOP", "MB")


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def counts_and_losses(workload: str):
    proc = run(ROOT, workload, 1)
    if proc.returncode != 0:
        sys.exit(f"{workload}: traced run failed\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if not last["correct"] or last["failed"]:
        sys.exit(f"{workload}: traced run incorrect\n{proc.stderr}")
    counts = {k: m["value"] for k, m in last["metrics"].items() if m["unit"] in COUNT_UNITS}
    saved = json.loads((BENCH / "out" / f"{workload}-seed{SEED}-trace1.json").read_text())
    return counts, saved["losses"]


def check_repeat(workload: str) -> None:
    first, second = counts_and_losses(workload), counts_and_losses(workload)
    for what, a, b in (("counts", first[0], second[0]), ("losses", first[1], second[1])):
        diff = {k: (a.get(k), b.get(k)) for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
        if diff:
            sys.exit(f"{workload}: {what} differ between two runs at seed {SEED}: {diff}")
    print(f"ok   {workload}: {len(first[0])} counts and {len(first[1])} losses repeat exactly")


def check_needs_sources() -> None:
    (BENCH / "work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
        proc = run(bare, "train_published", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        sys.exit(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok   without sources: exit {proc.returncode}, nothing on stdout")


def main() -> int:
    check_needs_sources()
    for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        check_repeat(w["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
