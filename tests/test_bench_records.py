"""The committed benchmark records: each BENCH_<n>.json at the root of the
repository holds what a later comparison needs, for every workload that
BENCHMARK.json declares."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(p for p in ROOT.glob("BENCH_*.json")
                 if re.fullmatch(r"BENCH_\d+\.json", p.name))
KEYS = ("parent_commit", "change", "python", "nproc", "pairs", "summary")


def _workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in spec["workloads"]]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_has_parent_and_change_medians(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert [k for k in KEYS if k not in record] == []
    assert record["pairs"]
    for workload in _workloads():
        op = record["summary"][workload]["op_us_best"]
        for side in ("parent", "change"):
            median = op[side]["median"]
            assert isinstance(median, (int, float)) and median > 0, (workload, side)
