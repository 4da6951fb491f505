"""Smoke check of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the second tiny K-curve of seed 1 (four atoms) has a box inside a hole at its largest t
HOLE_SEED, HOLE_INDEX = 1, 1


def _run(workload: str, trace: int, seed: int = 0) -> tuple[str, dict]:
    proc = _start(RUN, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def _start(run: Path, workload: str, trace: int, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(run), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    out, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = dict(line.strip().split(" = ", 1) for line in out.splitlines() if " = " in line)
    for name, unit in expected.items():
        assert printed[name].split(" (")[0].split(" ", 1)[1] == unit
    if not trace:
        assert "fail_ratio" in printed and "answers_digest ops=" in out


def test_box_inside_a_hole_is_a_counted_failure():
    out, result = _run("kcurve1d", 0, seed=HOLE_SEED)
    assert result["failed"] >= 1
    assert result["attempted"] > result["failed"]
    assert (
        f"FAIL workload=kcurve1d seed={HOLE_SEED} index={HOLE_INDEX} stage=whitney.build_whitney "
        "error=RuntimeError: Whitney construction selected no cubes" in out
    )
    ratio = float(out.split("  fail_ratio = ")[1].split()[0])
    assert ratio == pytest.approx(result["failed"] / result["attempted"], abs=1e-4)


def test_same_seed_same_operations_and_answers():
    runs = [_run("kcurve1d", 0, seed=HOLE_SEED) for _ in range(2)]
    (out1, res1), (out2, res2) = runs
    assert (res1["attempted"], res1["failed"]) == (res2["attempted"], res2["failed"])
    digest = [line for line in out1.splitlines() if "answers_digest" in line]
    assert digest and digest == [line for line in out2.splitlines() if "answers_digest" in line]


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _start(tmp_path / HERE.name / RUN.name, "suite1d", 0, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
