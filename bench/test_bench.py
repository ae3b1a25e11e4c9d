"""Checks of the benchmark's own machinery at tiny sizes.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import workloads  # noqa: E402
from seqclt import cli  # noqa: E402

SIMULATE = "mc-f1-p23-w2"  # dumps samples, so every simulate check applies
ANALYZE = "an-rand64-blocks4"


def _run_cli(tmp_path: Path, name: str) -> tuple:
    w = workloads.WORKLOADS[name]
    obj = workloads.reference_scenario(w)
    scen = tmp_path / "scenario.json"
    scen.write_bytes(workloads.scenario_bytes(obj))
    prefix = str(tmp_path / "out")
    argv = [sys.executable, "-m", "seqclt.cli"] + workloads.cli_argv(w, str(scen), prefix)
    code, wall, cpu, rss = run.invoke(argv, run.child_env(), tmp_path / "stderr.txt")
    assert wall > 0 and cpu > 0 and rss > 0
    return w, obj, code, prefix, scen


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    make = workloads.WORKLOADS[name].make
    assert workloads.scenario_bytes(make(11)) == workloads.scenario_bytes(make(11))
    assert make(11) != make(12)
    cli.scenario_from_obj(make(11))  # parses as a valid scenario


def test_default_cos_scenario_is_the_committed_demo():
    demo = run.ROOT / "demos" / "scenarios" / "cos_constant2.json"
    made = workloads.WORKLOADS["mc-cos-const2"].make(workloads.DEFAULT_SEED)
    assert made == json.loads(demo.read_text())


def test_default_scenarios_match_their_fingerprints():
    recorded = run.load_fingerprints()
    assert set(recorded) == set(workloads.WORKLOADS)
    for name, w in workloads.WORKLOADS.items():
        data = workloads.scenario_bytes(w.make(workloads.DEFAULT_SEED))
        assert run.hashlib.sha256(data).hexdigest() == recorded[name]["scenario"]
        assert set(recorded[name]["outputs"]) == set(w.outputs)
        assert set(recorded[name]["reference"]["outputs"]) == set(w.outputs)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_check_passes_and_catches_other_bytes(tmp_path, name, monkeypatch):
    (tmp_path / "out").mkdir()
    w = workloads.WORKLOADS[name]
    assert run.check_reference(w, tmp_path) == []

    recorded = run.load_fingerprints()
    outputs = recorded[name]["reference"]["outputs"]
    outputs[w.outputs[0]] = "0" * 64
    monkeypatch.setattr(run, "load_fingerprints", lambda: recorded)
    assert run.check_reference(w, tmp_path)


def test_window_counts_by_hand():
    # degree 4: windows walk back while the product stays <= 4
    a = [2, 2, 2, 3, 2, 2]
    distinct, share = workloads.window_counts(a, 4, 5)
    # k=1 ((),T,2) k=2 ((2,),T,2) k=3 ((2,2),T,3) k=4 ((3,),F,2) k=5 ((2,),F,2)
    assert distinct == 5 and share == 0.0
    # constant 2: ((),T) ((2,),T) ((2,2),T), then ((2,2),F) for every k >= 4
    distinct, share = workloads.window_counts([2] * 11, 4, 10)
    assert distinct == 4 and share == pytest.approx(0.6)


@pytest.mark.parametrize("name", [SIMULATE, ANALYZE])
def test_checks_pass_good_outputs_and_catch_bad_ones(tmp_path, name):
    w, obj, code, prefix, _ = _run_cli(tmp_path, name)
    hashes, problems = run.check_invocation(w, obj, code, prefix, None)
    assert problems == [] and set(hashes) == set(w.outputs)
    assert run.check_invocation(w, obj, code, prefix, hashes)[1] == []

    # a wrong exit code fails even with correct bytes
    assert run.check_invocation(w, obj, 3, prefix, hashes)[1]
    # one corrupted output byte fails against the recorded hashes ...
    target = Path(prefix + w.outputs[-1])
    data = bytearray(target.read_bytes())
    data[len(data) // 2] ^= 0x01
    target.write_bytes(bytes(data))
    assert run.check_invocation(w, obj, code, prefix, hashes)[1]
    # ... and a missing output fails without one
    target.unlink()
    assert run.check_invocation(w, obj, code, prefix, None)[1]


@pytest.mark.parametrize("name, suffix, column", [(SIMULATE, ".samples.csv", 0),
                                                  (ANALYZE, ".csv", 2)])
def test_content_validation_catches_a_value_printed_short(tmp_path, name, suffix, column):
    # Without recorded hashes the outputs are checked against the library:
    # one value printed with 10 instead of 17 digits must fail.
    w, obj, code, prefix, _ = _run_cli(tmp_path, name)
    path = Path(prefix + suffix)
    rows = [row.split(",") for row in path.read_text().splitlines()]
    for row in rows[1:]:
        value = float(row[column])
        if float(f"{value:.10g}") != value:
            row[column] = f"{value:.10g}"
            break
    else:
        pytest.fail("no value changes when printed short")
    path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    assert run.check_invocation(w, obj, code, prefix, None)[1]


@pytest.mark.parametrize("name", [SIMULATE, ANALYZE])
def test_traced_pass_reproduces_the_cli(tmp_path, name, monkeypatch):
    w = workloads.WORKLOADS[name]
    scen = tmp_path / "scenario.json"
    scen.write_bytes(workloads.scenario_bytes(workloads.reference_scenario(w)))
    values, problems = layers.traced_pass(w, str(scen), str(tmp_path / "a"))
    assert problems == []
    assert set(values) | {"analysis.distinct_windows", "analysis.window_repeat_share"} == set(
        layers.LAYER_METRICS)

    # the oracle fails a pass when the CLI writes other bytes than the replay
    real_write = cli._write_text
    monkeypatch.setattr(
        cli, "_write_text",
        lambda path, text: real_write(path, text if "-replay" in path else text + " "))
    assert layers.traced_pass(w, str(scen), str(tmp_path / "b"))[1]


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [x["name"] for x in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {x["name"]: x["unit"] for x in spec["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()}
    assert {x["name"]: x["unit"] for x in spec["per_layer"]} == {
        k: u for k, (u, _) in layers.LAYER_METRICS.items()}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-cos-const2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
