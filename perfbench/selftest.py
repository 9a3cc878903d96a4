"""Tests of the benchmark itself.

They are kept out of the repository's tier-1 suite (the file name does not
match pytest's ``test_*.py`` discovery) because they run whole benchmark
cells.  Run them from the repository root::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, run_cell  # noqa: E402  (puts src/ on the path)

import run  # noqa: E402
from layertrace import Tracer  # noqa: E402
from repro.nn.layers import MaxPool2d  # noqa: E402
from repro.nn.model import Sequential  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_workloads_are_the_defined_ones():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_cell_reproduces_untraced_outputs(name):
    workload = WORKLOADS[name]
    forward = Sequential.forward
    plain = run_cell(workload, DEFAULT_SEED)
    tracer = Tracer()
    with tracer.installed(workload.method):
        traced = run_cell(workload, DEFAULT_SEED)
    # wrapping from outside does not perturb the program, bit for bit
    assert traced.final_acc == plain.final_acc
    assert traced.comm_bytes == plain.comm_bytes
    assert tracer.calls["fl.aggregate_s"] == workload.scale.rounds
    # every patch is undone, inherited methods included
    assert Sequential.forward is forward
    assert "forward_many" not in vars(MaxPool2d)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(name, trace):
    result = run.measure(WORKLOADS[name], DEFAULT_SEED, seconds=0, trace=trace)["result"]
    declared = {
        m["name"]: m["unit"]
        for m in DECLARED["per_layer" if trace else "end_to_end"]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"] and result["failed"] == 0


def test_seed_changes_the_generated_federation_and_nothing_else():
    workload = WORKLOADS["fedclust-lenet"]
    a, b = workload.build(DEFAULT_SEED), workload.build(DEFAULT_SEED + 1)
    meta_a, meta_b = dict(a.checkpoint_meta), dict(b.checkpoint_meta)
    assert (meta_a.pop("seed"), meta_b.pop("seed")) == (DEFAULT_SEED, DEFAULT_SEED + 1)
    assert meta_a == meta_b
    assert a.config == b.config
    assert a.model_bytes == b.model_bytes
    assert a.fed.num_clients == b.fed.num_clients
    assert not np.array_equal(a.fed[0].train_x, b.fed[0].train_x)


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_the_result_as_its_last_line():
    proc = _cli(ROOT, "--workload", "ifca-lenet", "--seed", str(DEFAULT_SEED),
                "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _cli(tmp_path, "--workload", "ifca-lenet", "--seed", "0",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
