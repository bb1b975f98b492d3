"""Self-tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

They check that inputs are a pure function of the seed, that a new seed
changes values but not shapes, and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ALL = {**workloads.WORKLOADS, **workloads.REPLAYED}
SEEDED = ("horizon-wide", "dsaht-deep", "stationary-grid")


def _shape(inputs: dict) -> dict:
    return {k: v for k, v in inputs.items() if k != "instances"} | {
        "instances": [sorted(inst) for inst in inputs["instances"]]
    }


@pytest.mark.parametrize("name", sorted(ALL))
def test_same_seed_gives_byte_identical_inputs(name):
    wl = ALL[name]
    assert workloads.inputs_bytes(wl.make_inputs(7)) == workloads.inputs_bytes(wl.make_inputs(7))


@pytest.mark.parametrize("name", SEEDED)
def test_other_seed_changes_values_not_shapes(name):
    wl = ALL[name]
    a, b = wl.make_inputs(1), wl.make_inputs(2)
    assert _shape(a) == _shape(b)
    for inst_a, inst_b in zip(a["instances"], b["instances"]):
        for key in inst_a:  # eps, lambda, priors
            assert inst_a[key] != inst_b[key], key


def test_corpus_inputs_ignore_the_seed():
    wl = ALL["corpus"]
    assert wl.make_inputs(1) == wl.make_inputs(2)


def test_other_seed_keeps_horizon_states_expanded():
    wl = workloads.WORKLOADS["horizon-wide"]
    counts = set()
    for seed in (1, 2):
        res = wl.calls(wl.make_inputs(seed))[0].run()
        counts.add((res.states_expanded, res.cache_hits))
    assert counts == {(74, 119)}


def test_reference_covers_every_default_seed_instance():
    recorded = workloads.load_reference()
    assert recorded["seed"] == workloads.DEFAULT_SEED
    for name in ("horizon-wide", "dsaht-deep"):
        wl = workloads.WORKLOADS[name]
        labels = [c.label for c in wl.calls(wl.make_inputs(workloads.DEFAULT_SEED))]
        assert sorted(recorded[name]) == labels


def test_check_rejects_a_value_off_the_reference():
    wl = workloads.WORKLOADS["dsaht-deep"]
    call = wl.calls(wl.make_inputs(workloads.DEFAULT_SEED))[0]
    res = call.run()
    recorded = workloads.load_reference()["dsaht-deep"]
    assert workloads.check_results([(call, res, 0.0)], recorded) == [[]]
    shifted = {call.label: recorded[call.label] + 1e-6}
    assert workloads.check_results([(call, res, 0.0)], shifted)[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "dsaht-deep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
