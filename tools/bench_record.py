"""Record one point of the benchmark trajectory as BENCH_<label>.json.

    python3 tools/bench_record.py LABEL

Runs `perfbench/run.py` on every workload of BENCHMARK.json at seed SEED for
SECONDS seconds, once with `--trace 0` (the calibrated end-to-end metrics)
and once with `--trace 1` (the per-layer metrics), one run at a time, and
stores the last stdout line of each run as it was printed, with the seed,
the run length, the commit (`git describe --always --dirty`), the tree of
`src/` and the Python version.  The seed and the run length are fixed so
that every point of the trajectory is comparable.  A run that exits nonzero
stops the recording.  Run it from the root of the checkout.
"""

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

SEED = 1001
SECONDS = 25


def run(*argv) -> str:
    return subprocess.run(argv, capture_output=True, text=True, check=True).stdout.strip()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    label = parser.parse_args().label
    runs = {}
    for workload in (w["name"] for w in json.loads(Path("BENCHMARK.json").read_text())["workloads"]):
        for trace in ("0", "1"):
            out = run(sys.executable, "perfbench/run.py", "--workload", workload,
                      "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", trace)
            runs.setdefault(workload, {})["trace" + trace] = json.loads(out.splitlines()[-1])
    record = {
        "seed": SEED,
        "seconds": SECONDS,
        "commit": run("git", "describe", "--always", "--dirty"),
        "src_tree": run("git", "rev-parse", "HEAD:src"),
        "python": platform.python_version(),
        "runs": runs,
    }
    text = json.dumps(record, indent=1, sort_keys=True) + "\n"
    Path(f"BENCH_{label}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
