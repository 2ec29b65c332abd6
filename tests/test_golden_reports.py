"""Seed-42 reports of every committed scenario, compared byte for byte.

``tests/golden/<scenario>.json`` holds the ``verify --suite all --seed 42``
report without its ``timing`` section, as the CLI writes it, under the
OpenBLAS kernel that ``conftest.py`` pins.  A change that moves any float,
count or flag fails here; regenerate the files under the same pin with
``OPENBLAS_CORETYPE=Nehalem OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python
tests/test_golden_reports.py`` and record the moved values in CHANGES.md.
"""

import json
import sys
from pathlib import Path

import pytest

from gpmult.cli import build_scenario, load_config
from gpmult.verifier import run_all

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = sorted(p.stem for p in (ROOT / "scenarios").glob("*.json"))


def fresh_report(name: str) -> dict:
    sc = build_scenario(load_config(str(ROOT / "scenarios" / f"{name}.json")), seed=42)
    return run_all(sc)


def report_text(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(body, indent=2, allow_nan=False) + "\n"


def test_every_scenario_has_a_golden_report():
    assert len(SCENARIOS) == 9
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == SCENARIOS


@pytest.mark.parametrize("name", SCENARIOS)
def test_report_matches_golden(name):
    report = fresh_report(name)
    assert report_text(report) == (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    # per-check wall time: one entry per check, names unique within the report
    names = [c["name"] for c in report["checks"]]
    assert len(set(names)) == len(names)
    check_ms = report["timing"]["check_ms"]
    assert list(check_ms) == names
    assert all(isinstance(ms, float) and ms >= 0.0 for ms in check_ms.values())
    assert sum(check_ms.values()) <= report["timing"]["total_ms"] + 1.0


if __name__ == "__main__":
    from test_blas_pin import openblas_corename

    if openblas_corename() != "Nehalem":
        sys.exit("regenerate under OPENBLAS_CORETYPE=Nehalem, the kernel conftest.py pins")
    for name in SCENARIOS:
        (GOLDEN / f"{name}.json").write_text(report_text(fresh_report(name)), encoding="utf-8")
        print(f"wrote tests/golden/{name}.json", file=sys.stderr)
