"""Self-test of the benchmark.  Run it from the repository root:

    python3 perfbench/selftest.py

It runs each workload's smallest rung on two seeds, untraced and traced,
and checks that every job's outcome was right and that every metric
BENCHMARK.json names is printed with its unit.  Then it checks that a
deliberately wrong expectation makes the benchmark fail, and that in a
directory holding only BENCHMARK.json and the benchmark the command exits
nonzero without printing a result.  It takes about two minutes.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# (workload, expectation constant, wrong value) for the negative checks
WRONG = [
    ("whq-grouplike", "SWAPPED_ANTIPODE_ONE_OBJECT", {"d4-1", "d4-2", "d4-3"}),
    ("whq-dual", "SWAPPED_ANTIPODE", {"d4-1", "d4-2"}),
    ("mp-twosided", "LEFT_UNIT_BROKEN", {"c3"}),
    ("small-catalogue", "AHH_SWAPPED", dict(workloads.AHH_SWAPPED, **{"action-left z2 flip": (8, 5)})),
]


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_printed(stdout: str, expected: dict) -> None:
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[-1]
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, unit in expected.items():
        metric = result["metrics"][name]
        assert metric["unit"] == unit and isinstance(metric["value"], (int, float)), (name, metric)
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines), name
    assert "failed_share 0 ratio" in lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in workloads.WORKLOADS:
        for seed in (1, 2):
            for trace, expected in (("0", end_to_end), ("1", per_layer)):
                proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                             "--trace", trace, "--smallest-rung")
                assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
                check_printed(proc.stdout, expected)
                print(f"ok {workload} seed {seed} trace {trace}")

    for workload, constant, wrong in WRONG:
        right = getattr(workloads, constant)
        setattr(workloads, constant, wrong)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                                 "--smallest-rung"])
        finally:
            setattr(workloads, constant, right)
        result = json.loads(out.getvalue().splitlines()[-1])
        assert code == 1 and not result["correct"] and result["failed"] >= 1, out.getvalue()[-3000:]
        print(f"ok {workload} fails with a wrong {constant}")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench(bare, "--workload", "small-catalogue", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout + proc.stderr
    print("ok without the package the benchmark exits", proc.returncode, "and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
