"""Every benchmark record BENCH_<label>.json at the root of the checkout, as
`tools/bench_record.py` writes it, is well formed: for each workload of
BENCHMARK.json it holds a run with `--trace 0` and one with `--trace 1`,
both correct with no failed job, and the `--trace 0` run holds every
end-to-end metric of BENCHMARK.json as a positive number in its unit."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_the_trajectory_has_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda path: path.name)
def test_record_is_well_formed(path):
    runs = json.loads(path.read_text(encoding="utf-8"))["runs"]
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        assert set(runs[workload]) == {"trace0", "trace1"}, workload
        for result in runs[workload].values():
            assert result["correct"] is True and result["failed"] == 0, workload
        metrics = runs[workload]["trace0"]["metrics"]
        for metric in BENCHMARK["end_to_end"]:
            value = metrics[metric["name"]]
            assert value["unit"] == metric["unit"] and value["value"] > 0, (workload, metric["name"])
