import concurrent.futures
import contextlib
import dataclasses
import errno
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqclt import analysis, cli, coboundary, montecarlo
from seqclt._strict import InputError
from seqclt.cli import (
    EXIT_BAD_SCENARIO,
    EXIT_INCONSISTENT,
    EXIT_IO,
    EXIT_OBSTRUCTION,
    EXIT_OK,
    Scenario,
    main,
    scenario_from_obj,
    scenario_to_obj,
)
from seqclt.sequences import Blocks, Constant, Explicit, Periodic, Triples
from seqclt.trigpoly import cosine, make_trigpoly, trigpoly_from_obj

COS_FUNCTION = [{"freq": 1, "re": 0.5, "im": 0.0}]
F1_FUNCTION = [{"freq": 1, "re": -0.5, "im": 0.0}, {"freq": 2, "re": 0.5, "im": 0.0}]
DEMO_SCENARIOS = Path(__file__).resolve().parents[1] / "demos" / "scenarios"


def write_scenario(tmp_path, name="scenario.json", **overrides):
    obj = {
        "function": COS_FUNCTION,
        "sequence": {"kind": "constant", "b": 2},
        "n": 100,
    }
    obj.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_scenario_round_trip():
    scenario = Scenario(
        function=cosine(1),
        sequence=Periodic((2, 3)),
        n=64,
        samples=100,
        seed=7,
        standardization="exact",
    )
    assert scenario_from_obj(scenario_to_obj(scenario)) == scenario


_MULTIPLIER = st.integers(2, 2**70)
_WORD = st.lists(_MULTIPLIER, min_size=1, max_size=5).map(tuple)


@st.composite
def _triples(draw):
    b0 = draw(st.integers(2, 9))
    r = draw(st.integers(2, 5))
    p0 = draw(st.integers(-(-3 // (r - 1)), 50))  # spikes must not overlap
    return Triples(b0, b0 + draw(st.integers(1, 100)), p0, r)


_LEAF_SPEC = st.one_of(
    st.builds(Constant, _MULTIPLIER),
    st.builds(Periodic, _WORD),
    _triples(),
    st.builds(Blocks, st.floats(2.0, 16.0)),  # D >= 2 never overlaps
)


def _specs(depth):
    if depth == 0:
        return _LEAF_SPEC
    return st.one_of(_LEAF_SPEC, st.builds(Explicit, _WORD, _specs(depth - 1)))


_DYADIC = st.integers(-64, 64).map(lambda k: k / 128)
_POLY = st.dictionaries(
    st.integers(1, 64), st.tuples(_DYADIC, _DYADIC), min_size=1, max_size=8
).map(lambda cs: make_trigpoly((n, complex(*c)) for n, c in cs.items())).filter(
    lambda g: not g.is_zero
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(
    st.builds(
        Scenario,
        function=_POLY,
        sequence=_specs(3),
        n=st.integers(1, 10**6),
        samples=st.none() | st.integers(2, 10**6),
        seed=st.none() | st.integers(0, 2**64 - 1),
        standardization=st.sampled_from(["empirical", "exact"]),
    )
)
def test_scenario_round_trips_through_json(scenario):
    assert scenario_from_obj(json.loads(json.dumps(scenario_to_obj(scenario)))) == scenario


def test_scenario_rejects_zero_function(tmp_path):
    path = write_scenario(tmp_path, function=[])
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO


def test_scenario_rejects_zero_frequency(tmp_path):
    path = write_scenario(tmp_path, function=[{"freq": 0, "re": 1.0, "im": 0.0}])
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO


def test_analyze_outputs_and_summary(tmp_path):
    path = write_scenario(tmp_path)
    out = str(tmp_path / "report")
    assert main(["analyze", path, "--out", out]) == EXIT_OK
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["n"] == 100
    assert summary["var_cov"] == pytest.approx(50.0)
    assert summary["var_mart"] == pytest.approx(50.0)
    csv_lines = (tmp_path / "report.csv").read_text().splitlines()
    assert csv_lines[0] == (
        "k,u_norm_sq,cos_sq,sin_sq,min_pair_sin_sq,acc_transversality,"
        "var_cov_prefix,var_mart_prefix"
    )
    assert len(csv_lines) == 101
    assert csv_lines[1].startswith("1,0.5,0,1,1,1,0.5,0.5")
    svg = (tmp_path / "report.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_analyze_blocks_scenario(tmp_path):
    path = write_scenario(
        tmp_path, function=F1_FUNCTION, sequence={"kind": "blocks", "D": 4}, n=300
    )
    out = str(tmp_path / "blocks")
    assert main(["analyze", path, "--out", out]) == EXIT_OK
    summary = json.loads((tmp_path / "blocks.json").read_text())
    assert summary["var_cov"] == pytest.approx(summary["var_mart"], rel=1e-9)
    assert "acc_transversality" in summary


def test_analyze_json_is_the_variance_report(tmp_path):
    function = [{"freq": q, "re": 0.25 * (-1) ** q, "im": 0.125 * q} for q in range(1, 13)]
    path = write_scenario(tmp_path, function=function, sequence={"kind": "blocks", "D": 4}, n=500)
    out = str(tmp_path / "rep")
    assert main(["analyze", path, "--out", out]) == EXIT_OK
    summary = json.loads((tmp_path / "rep.json").read_text())
    report = analysis.variance_report(trigpoly_from_obj(function), Blocks(4), 500)
    assert summary == {
        "n": 500,
        "var_cov": report.var_cov,
        "var_mart": report.var_mart,
        "acc_transversality": report.acc_transversality,
    }


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_analyze_rejects_non_finite_coefficient(tmp_path, capsys, bad):
    path = write_scenario(tmp_path, function=[{"freq": 1, "re": bad, "im": 0.0}])
    out = tmp_path / "nf"
    assert main(["analyze", path, "--out", str(out)]) == EXIT_BAD_SCENARIO
    assert not (tmp_path / "nf.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_dumps_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        cli._dumps({"x": [1.0, bad]})


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"function": [{"freq": True, "re": 0.5, "im": 0.0}]}, id="freq=true"),
        pytest.param({"function": [{"freq": 1.5, "re": 0.5, "im": 0.0}]}, id="freq=1.5"),
        pytest.param({"n": 10.7}, id="n=10.7"),
        pytest.param({"n": True}, id="n=true"),
        pytest.param({"n": "100"}, id="n='100'"),
        pytest.param({"samples": 50.5, "seed": 1}, id="samples=50.5"),
        pytest.param({"samples": 50, "seed": 1.5}, id="seed=1.5"),
        pytest.param({"samples": 50, "seed": -1}, id="seed=-1"),
        pytest.param({"samples": 50, "seed": 2**64}, id="seed=2^64"),
        pytest.param({"sequence": {"kind": "constant", "b": 2.5}}, id="b=2.5"),
        pytest.param({"sequence": {"kind": "constant", "b": True}}, id="b=true"),
        pytest.param({"sequence": {"kind": "periodic", "values": [2, 3.5]}}, id="values=[2,3.5]"),
        pytest.param(
            {"sequence": {"kind": "explicit", "values": [2.5], "tail": {"kind": "constant", "b": 2}}},
            id="explicit-values=[2.5]",
        ),
        pytest.param(
            {"sequence": {"kind": "triples", "b0": 2, "B": 80, "p0": 10.5, "r": 2}}, id="p0=10.5"
        ),
        pytest.param(
            {"sequence": {"kind": "triples", "b0": 2, "B": 80, "p0": 10, "r": 2.5}}, id="r=2.5"
        ),
        pytest.param({"sequence": {"kind": "blocks", "D": math.inf}}, id="D=inf"),
        pytest.param({"sequence": {"kind": "blocks", "D": "4"}}, id="D='4'"),
        pytest.param({"function": [{"freq": 1, "re": True, "im": 0.0}]}, id="re=true"),
        pytest.param({"function": [{"freq": 1, "re": 0.5, "im": "0.25"}]}, id="im='0.25'"),
        pytest.param({"function": [{"freq": 1, "re": 10**400, "im": 0.0}]}, id="re=10^400"),
    ],
)
def test_scenario_rejects_non_integers(tmp_path, capsys, overrides):
    path = write_scenario(tmp_path, **overrides)
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO
    assert not (tmp_path / "r.json").exists()
    assert capsys.readouterr().err.count("\n") == 1


def test_rejected_value_is_shown_in_one_short_line(tmp_path, capsys):
    # a rejected list is named by its type, not written out
    path = write_scenario(tmp_path, n=[8] * 10**6)
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200, err[:200]


@pytest.mark.parametrize(
    "overrides",
    [
        pytest.param({"k" * 10**6: 1}, id="key"),
        pytest.param({"\U000e0000" * 10**6: 1}, id="escaped-key"),  # a repr of 10 bytes a character
        pytest.param({"sequence": {"kind": "q" * 10**6}}, id="kind"),
        pytest.param({"standardization": ["exact"] * 10**6}, id="standardization"),
    ],
)
def test_rejected_string_is_shown_by_a_prefix(tmp_path, capsys, overrides):
    # a long string shows its first characters and its length, a list its type
    path = write_scenario(tmp_path, **overrides)
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 200, err[:200]
    if "standardization" not in overrides:
        assert "(1000000 characters)" in err


def test_rejected_short_string_is_shown_whole(tmp_path, capsys):
    path = write_scenario(tmp_path, standardization="exacts")
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO
    assert capsys.readouterr().err == "error: unknown standardization 'exacts'\n"


def test_rejected_short_escaped_string_is_shown_by_a_prefix(tmp_path, capsys):
    # 40 characters, but a 402-byte repr: the shown repr stays within 42 bytes
    path = write_scenario(tmp_path, **{"\U000e0000" * 40: 1})
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO
    assert capsys.readouterr().err == (
        "error: unknown scenario key '" + "\\U000e0000" * 4 + "'... (40 characters)\n")


_CONSTANT = {"kind": "constant", "b": 2}


@pytest.mark.parametrize(
    "overrides, key",
    [
        pytest.param({"standardisation": "exact"}, "standardisation", id="scenario"),
        pytest.param({"sequence": {**_CONSTANT, "values": [3]}}, "values", id="constant"),
        pytest.param({"sequence": {"kind": "periodic", "values": [2], "b": 2}}, "b", id="periodic"),
        pytest.param(
            {"sequence": {"kind": "explicit", "values": [3], "tail": _CONSTANT, "head": [3]}},
            "head",
            id="explicit",
        ),
        pytest.param(
            {"sequence": {"kind": "explicit", "values": [3], "tail": {**_CONSTANT, "D": 4}}},
            "D",
            id="explicit-tail",
        ),
        pytest.param(
            {"sequence": {"kind": "triples", "b0": 2, "B": 80, "p0": 10, "r": 2, "D": 4}},
            "D",
            id="triples",
        ),
        pytest.param({"sequence": {"kind": "blocks", "D": 4, "l": 1}}, "l", id="blocks"),
        pytest.param(
            {"function": [{"freq": 1, "re": 0.5, "im": 0.0, "phase": 0.0}]}, "phase", id="coefficient"
        ),
    ],
)
def test_scenario_rejects_unknown_keys(tmp_path, capsys, overrides, key):
    path = write_scenario(tmp_path, samples=50, seed=1, **overrides)
    assert main(["simulate", path, "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(key) in err
    assert not list(tmp_path.glob("r.*"))


@pytest.mark.parametrize(
    "sequence",
    [
        pytest.param({"kind": "blocks", "D": 1e19}, id="blocks"),
        pytest.param(
            {"kind": "explicit", "values": [2], "tail": {"kind": "blocks", "D": 1e19}},
            id="explicit-tail",
        ),
        pytest.param({"kind": "triples", "b0": 2, "B": 3, "p0": 2**64 + 1, "r": 2}, id="triples"),
    ],
)
def test_runs_longer_than_maxsize_run(tmp_path, sequence):
    # a_k = 2 for every k <= n + 1, so every output byte is that of Constant(2)
    outputs = {}
    for name, seq in (("long", sequence), ("two", _CONSTANT)):
        path = write_scenario(tmp_path, f"{name}.json", sequence=seq, n=64, samples=50, seed=3)
        out = str(tmp_path / f"{name}-out")
        assert main(["analyze", path, "--out", out]) == EXIT_OK
        assert main(["simulate", path, "--out", out, "--dump-samples"]) == EXIT_OK
        outputs[name] = [
            (tmp_path / f"{name}-out{ext}").read_bytes()
            for ext in (".csv", ".json", ".svg", ".mc.json", ".samples.csv")
        ]
    assert outputs["long"] == outputs["two"]


def test_unreadable_scenario_text_is_bad_input(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "note": "\xe9"}')
    assert main(["analyze", str(path), "--out", str(tmp_path / "r")]) == EXIT_BAD_SCENARIO
    assert capsys.readouterr().err.count("\n") == 1


def _nested_scenario(tmp_path, depth):
    # built by concatenation: json.dumps would itself recurse once per level
    sequence = '{"kind": "constant", "b": 2}'
    for _ in range(depth):
        sequence = '{"kind": "explicit", "values": [3], "tail": ' + sequence + "}"
    path = tmp_path / f"nested{depth}.json"
    path.write_text(f'{{"function": {json.dumps(COS_FUNCTION)}, "sequence": {sequence}, "n": 8}}')
    return str(path)


def test_deeply_nested_scenario_is_bad_input(tmp_path, capsys):
    argv = ["analyze", _nested_scenario(tmp_path, 5000), "--out", str(tmp_path / "r")]
    assert main(argv) == EXIT_BAD_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("r.*"))
    argv[1] = _nested_scenario(tmp_path, 500)
    assert main(argv) == EXIT_OK
    assert (tmp_path / "r.json").exists()


def test_nesting_near_the_recursion_limit_is_bad_input_or_runs(tmp_path):
    # about limit - 20 explicit tails run; a few more load as JSON but are
    # too deep for sequence_from_obj; more fail in json.load: all exit 0 or 1
    limit = sys.getrecursionlimit()
    depths = range(limit - 40, limit + 10)
    paths = [_nested_scenario(tmp_path, depth) for depth in depths]
    code = (
        "import sys\n"
        "from seqclt.cli import main\n"
        "for path in sys.argv[2:]:\n"
        "    print(main(['analyze', path, '--out', sys.argv[1]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r"), *paths],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    codes = [int(line) for line in out.stdout.split()]
    assert len(codes) == len(depths) and codes[0] == EXIT_OK
    assert codes == sorted(codes) and set(codes) == {EXIT_OK, EXIT_BAD_SCENARIO}
    errors = out.stderr.splitlines()
    sequence = "error: scenario sequence nests too deeply"
    whole = "error: scenario file nests too deeply"
    k = errors.count(sequence)
    assert 0 < k < len(errors) == codes.count(EXIT_BAD_SCENARIO)
    assert errors == [sequence] * k + [whole] * (len(errors) - k)


def test_overflowing_result_is_an_internal_failure(tmp_path, capsys):
    # a valid coefficient whose squared norm overflows: not bad input (1) but
    # a failure of the computation (3), reported before any file is written
    path = write_scenario(tmp_path, function=[{"freq": 1, "re": 1e300, "im": 0.0}])
    assert main(["analyze", path, "--out", str(tmp_path / "big")]) == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "inf in u_norm_sq at k=1" in err
    assert not list(tmp_path.glob("big*"))


def test_first_overflowing_variance_is_named_by_its_step(tmp_path, capsys):
    # 2|c|^2 = MAX/4.5 is finite, so every u_norm_sq is; Var(S_k) = k * 2|c|^2
    # is finite up to k = 4 and overflows at k = 5
    re = math.sqrt(sys.float_info.max / 9)
    path = write_scenario(tmp_path, function=[{"freq": 1, "re": re, "im": 0.0}], n=10)
    assert main(["analyze", path, "--out", str(tmp_path / "big")]) == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err == "error: cannot write the non-finite value inf in var_cov_prefix at k=5\n"
    assert not list(tmp_path.glob("big*"))


@pytest.mark.parametrize(
    "re, named",
    [
        pytest.param(1e300, "inf in var_hat", id="overflow-in-variance"),
        pytest.param(1e308, "nan in mean", id="non-finite-key"),
    ],
)
def test_overflowing_samples_are_an_internal_failure(tmp_path, capsys, re, named):
    path = write_scenario(
        tmp_path, function=[{"freq": 1, "re": re, "im": 0.0}], n=8, samples=10, seed=1
    )
    code = main(["simulate", path, "--out", str(tmp_path / "big"), "--dump-samples"])
    assert code == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not list(tmp_path.glob("big*"))


def test_overflowing_sum_of_samples_is_an_internal_failure(tmp_path, capsys):
    # every sample is finite, but their running sum for the mean is not
    path = write_scenario(
        tmp_path, function=[{"freq": 1, "re": 8e307, "im": 0.0}], n=1, samples=10, seed=1
    )
    assert main(["simulate", path, "--out", str(tmp_path / "big")]) == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err == "error: overflow: intermediate overflow in fsum\n"
    assert not list(tmp_path.glob("big*"))


def test_zero_exact_variance_is_an_internal_failure(tmp_path, capsys):
    # Var(S_n) of an amplitude of 2e-200 underflows to 0.0, so "exact"
    # standardisation has nothing to divide by
    path = write_scenario(
        tmp_path,
        function=[{"freq": 1, "re": 1e-200, "im": 0}],
        n=8,
        samples=10,
        seed=1,
        standardization="exact",
    )
    assert main(["simulate", path, "--out", str(tmp_path / "zero")]) == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "exact variance" in err and "0.0" in err
    assert not list(tmp_path.glob("zero*"))


def test_scenario_accepts_integral_values_and_largest_seed():
    obj = {
        "function": [{"freq": 2.0, "re": 0.5, "im": 0.0}],
        "sequence": {"kind": "periodic", "values": [2, 3.0]},
        "n": 8.0,
        "samples": 10,
        "seed": 2**64 - 1,
    }
    scenario = scenario_from_obj(obj)
    assert (scenario.n, scenario.seed) == (8, 2**64 - 1)
    assert scenario.sequence == Periodic((2, 3))
    assert scenario.function == cosine(2)


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_simulate_rejects_threads_below_one(tmp_path, monkeypatch, threads):
    def no_work(*args, **kwargs):
        raise AssertionError("no sampling may start")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_work)
    monkeypatch.setattr(montecarlo, "birkhoff_samples", no_work)
    path = write_scenario(tmp_path, n=4, samples=2, seed=1)
    code = main(["simulate", path, "--out", str(tmp_path / "t"), "--threads", threads])
    assert code == EXIT_BAD_SCENARIO
    assert not (tmp_path / "t.mc.json").exists()


@pytest.mark.parametrize(
    "exc, message",
    [
        pytest.param(MemoryError("Unable to allocate 745. GiB"), "Unable to allocate", id="numpy"),
        pytest.param(MemoryError(), "allocation failed", id="bare"),
    ],
)
def test_out_of_memory_is_an_internal_failure(tmp_path, capsys, monkeypatch, exc, message):
    # as numpy raises for an array beyond memory, such as c1_norm's grid for a
    # degree of 10^15; nothing is allocated here
    def no_memory(*args):
        raise exc

    monkeypatch.setattr(analysis, "c1_norm", no_memory)
    path = write_scenario(tmp_path)
    code = main(["verify-decay", path, "--k", "3"])
    assert code == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert message in err


def test_any_other_exception_is_an_internal_failure(tmp_path, capsys, monkeypatch):
    # an error no handler names is still internal (3), never bad input (1)
    def divide_by_zero(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(analysis, "variance_report", divide_by_zero)
    path = write_scenario(tmp_path)
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_INCONSISTENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ZeroDivisionError: float division by zero\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]


def test_analyze_unwritable_path(tmp_path):
    path = write_scenario(tmp_path)
    assert main(["analyze", path, "--out", "/nonexistent-dir/report"]) == EXIT_IO


def _fail_on_second_chunk(real):
    def chunks(*args):
        it = real(*args)
        yield next(it)
        raise OSError(errno.ENOSPC, "No space left on device")
    return chunks


def test_write_failure_leaves_no_output_and_no_temporary_file(tmp_path, capsys, monkeypatch):
    path = write_scenario(tmp_path)
    monkeypatch.setattr(cli, "_analyze_csv", _fail_on_second_chunk(cli._analyze_csv))
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_IO
    assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]


def test_failed_run_keeps_the_previous_outputs(tmp_path, monkeypatch):
    # an output appears complete or not at all: a run that fails, on an I/O
    # error or on a non-finite cell, leaves a previous run's files as they were
    out = str(tmp_path / "r")
    assert main(["analyze", write_scenario(tmp_path), "--out", out]) == EXIT_OK
    files = sorted(tmp_path.iterdir())
    before = [p.read_bytes() for p in files]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_analyze_csv", _fail_on_second_chunk(cli._analyze_csv))
        assert main(["analyze", write_scenario(tmp_path), "--out", out]) == EXIT_IO
    big = write_scenario(tmp_path, "big.json", function=[{"freq": 1, "re": 1e300, "im": 0.0}])
    assert main(["analyze", big, "--out", out]) == EXIT_INCONSISTENT
    assert sorted(tmp_path.iterdir()) == sorted([*files, tmp_path / "big.json"])
    assert [p.read_bytes() for p in files] == before


def test_outputs_get_the_permissions_open_gives(tmp_path):
    cli._write_text(str(tmp_path / "new.txt"), "x\n")
    with open(tmp_path / "plain.txt", "w"):
        pass
    assert (tmp_path / "new.txt").stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


@pytest.mark.parametrize("n", [20_000, 80_000])
def test_writing_analyze_outputs_costs_a_chunk_not_n_rows(tmp_path, n):
    # over a report that is held anyway, the CSV and the SVG cost one chunk of
    # text at a time: the same bound at both sizes, so it does not grow with n
    report = analysis.variance_report(trigpoly_from_obj(F1_FUNCTION), Blocks(4), n)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        cli._write_chunks(str(tmp_path / "r.csv"), cli._analyze_csv(report))
        cli._write_chunks(str(tmp_path / "r.svg"), cli._svg_curves(n, [
            ("Var(S_k)", "#1f77b4", report.cov_curve),
            ("accumulated transversality", "#d62728", report.acc_curve)]))
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    with open(tmp_path / "r.csv", "rb") as fh:
        assert sum(1 for _ in fh) == n + 1  # every row was written
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "name, argv",
    [
        ("s.json", ["analyze", "{dir}/s.json", "--out", "{dir}/s"]),
        ("s.json", ["analyze", "s.json", "--out", "{dir}/./s"]),
        ("x.mc.json", ["simulate", "{dir}/x.mc.json", "--out", "{dir}/x"]),
        ("x.samples.csv", ["simulate", "{dir}/x.samples.csv", "--out", "{dir}/x", "--dump-samples"]),
    ],
    ids=["analyze", "analyze-another-spelling", "simulate", "simulate-samples"],
)
def test_out_never_overwrites_the_scenario(tmp_path, capsys, monkeypatch, name, argv):
    # an --out prefix that names the scenario file as an output exits 1 and
    # writes nothing: the scenario is still there to run again
    path = Path(write_scenario(tmp_path, name=name, samples=20, seed=3))
    before = path.read_bytes()
    monkeypatch.chdir(tmp_path)
    assert main([arg.format(dir=tmp_path) for arg in argv]) == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: --out \S+ would overwrite the scenario file \S+\n", captured.err)
    assert list(tmp_path.iterdir()) == [path]
    assert path.read_bytes() == before


def test_analyze_inconsistency_exit_code(tmp_path, monkeypatch):
    path = write_scenario(tmp_path)
    curve = analysis.variance_martingale_curve

    def skewed(f, spec, n, profile=None):
        vals = curve(f, spec, n, profile)
        return [v + 1.0 for v in vals]

    monkeypatch.setattr(cli.analysis, "variance_martingale_curve", skewed)
    assert main(["analyze", path, "--out", str(tmp_path / "bad")]) == EXIT_INCONSISTENT


def test_failed_cross_check_writes_nothing(tmp_path, capsys, monkeypatch):
    # the cross-check runs before any output appears: a failed one exits 3 with
    # one line, leaves no file and no temporary file, and keeps a previous run's
    path = write_scenario(tmp_path)
    out = str(tmp_path / "r")
    assert main(["analyze", path, "--out", out]) == EXIT_OK
    files = sorted(tmp_path.iterdir())
    before = [p.read_bytes() for p in files]
    monkeypatch.setattr(analysis.VarianceReport, "consistent", lambda self: False)
    for prefix in (str(tmp_path / "new"), out):
        assert main(["analyze", path, "--out", prefix]) == EXIT_INCONSISTENT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: variance cross-check failed: cov=\S+ mart=\S+\n", captured.err)
        assert sorted(tmp_path.iterdir()) == files
    assert [p.read_bytes() for p in files] == before


def test_simulate_writes_report_and_samples(tmp_path):
    path = write_scenario(
        tmp_path, n=32, samples=50, seed=11, standardization="exact"
    )
    out = str(tmp_path / "mc")
    assert main(["simulate", path, "--out", out, "--dump-samples"]) == EXIT_OK
    report = json.loads((tmp_path / "mc.mc.json").read_text())
    assert report["n"] == 32 and report["m"] == 50 and report["seed"] == 11
    assert report["standardization"] == "exact"
    assert len(report["histogram"]) == 41
    samples = (tmp_path / "mc.samples.csv").read_text().splitlines()
    assert len(samples) == 50


def test_simulate_requires_samples(tmp_path):
    path = write_scenario(tmp_path, seed=1)
    assert main(["simulate", path, "--out", str(tmp_path / "x")]) == EXIT_BAD_SCENARIO


def test_simulate_thread_count_does_not_change_bytes(tmp_path):
    # three tiles, the last one partial: --threads 2 starts a real pool
    path = write_scenario(tmp_path, n=64, samples=600, seed=5)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["simulate", path, "--out", a, "--threads", "1"]) == EXIT_OK
    assert main(["simulate", path, "--out", b, "--threads", "2"]) == EXIT_OK
    assert (tmp_path / "a.mc.json").read_bytes() == (tmp_path / "b.mc.json").read_bytes()


def test_analyze_outputs_are_deterministic(tmp_path):
    path = write_scenario(tmp_path, n=40)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["analyze", path, "--out", a]) == EXIT_OK
    assert main(["analyze", path, "--out", b]) == EXIT_OK
    for ext in (".csv", ".json", ".svg"):
        assert (tmp_path / ("a" + ext)).read_bytes() == (tmp_path / ("b" + ext)).read_bytes()


def test_analyze_golden_format(tmp_path):
    # freezes the documented CSV column order and JSON field names/bytes
    path = write_scenario(tmp_path, n=3)
    out = str(tmp_path / "g")
    assert main(["analyze", path, "--out", out]) == EXIT_OK
    assert (tmp_path / "g.csv").read_text() == (
        "k,u_norm_sq,cos_sq,sin_sq,min_pair_sin_sq,acc_transversality,"
        "var_cov_prefix,var_mart_prefix\n"
        "1,0.5,0,1,1,1,0.5,0.5\n"
        "2,0.5,0,1,1,2,1,1\n"
        "3,0.5,0,1,,,1.5,1.5\n"
    )
    assert (tmp_path / "g.json").read_text() == (
        '{\n  "n": 3,\n  "var_cov": 1.5,\n  "var_mart": 1.5,\n'
        '  "acc_transversality": 2.0\n}\n'
    )


def test_json_keeps_the_float_type_of_integral_values(tmp_path, capsys):
    # %.17g writes 1.0 as "1" and -0.0 as "-0", which JSON reads back as ints
    path = write_scenario(tmp_path, function=F1_FUNCTION, n=1024)
    assert main(["analyze", path, "--out", str(tmp_path / "f1")]) == EXIT_OK
    summary = json.loads((tmp_path / "f1.json").read_text())
    assert summary == {"n": 1024, "var_cov": 1.0, "var_mart": 1.0, "acc_transversality": 0.0}
    assert [type(summary[k]) for k in summary] == [int, float, float, float]
    assert main(["coboundary", path, "--base", "2"]) == EXIT_OK
    (u,) = json.loads(capsys.readouterr().out)["u"]
    assert u == {"freq": 1, "re": 0.5, "im": 0.0} and type(u["im"]) is float
    # an exact sum has no signed zero, so -0.0 comes from _dumps itself
    negative_zero = json.loads(cli._dumps({"im": -0.0}))["im"]
    assert cli._dumps(-0.0) == "-0.0" and math.copysign(1.0, negative_zero) == -1.0


# The per-cell writers that cli's column writers replaced, kept as oracles:
# every cell through cli._fmt, every SVG point formatted on its own.
_CSV_COLUMNS = (
    "u_norm_sq", "cos_sq", "sin_sq", "min_pair_sin_sq", "acc_transversality",
    "var_cov_prefix", "var_mart_prefix",
)


def _oracle_csv_row(k, cells):
    try:
        return f"{k}," + ",".join(["" if c is None else cli._fmt(c) for c in cells])
    except ValueError as exc:
        bad = next(
            name for name, c in zip(_CSV_COLUMNS, cells)
            if c is not None and not math.isfinite(c)
        )
        raise ValueError(f"{exc} in {bad} at k={k}") from None


def _oracle_csv(report):
    profile, acc_curve, n = report.per_step, report.acc_curve, report.n
    lines = ["k," + ",".join(_CSV_COLUMNS)]
    for k in range(1, n + 1):
        rec = profile[k - 1]
        last = k == n
        lines.append(_oracle_csv_row(k, (
            rec.u_norm_sq, rec.cos_sq, rec.sin_sq,
            None if last else min(rec.sin_sq, profile[k].sin_sq),
            None if last else acc_curve[k - 1],
            report.cov_curve[k - 1], report.mart_curve[k - 1],
        )))
    return "\n".join(lines) + "\n"


def _oracle_svg(n, curves):
    width, height = 720, 420
    left, right, top, bottom = 60, 20, 24, 40
    span_x = width - left - right
    span_y = height - top - bottom
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{left + span_x // 2}" y="{height - 10}" font-size="12" '
        f'text-anchor="middle">k (1..{n})</text>',
    ]
    for idx, (label, color, values) in enumerate(curves):
        peak = max((abs(v) for v in values), default=0.0)
        scale = span_y / peak if peak > 0 else 0.0
        pts = []
        for k, v in enumerate(values, start=1):
            px = left + (span_x * (k - 1) / max(n - 1, 1))
            py = (height - bottom) - v * scale
            pts.append((px, py))
        coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{coords}"/>')
        parts.append(
            f'<text x="{left + 8}" y="{top + 14 + 16 * idx}" font-size="12" '
            f'fill="{color}">{label} (max {cli._fmt(peak)})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@pytest.mark.parametrize(
    "function, spec, n",
    [
        pytest.param(F1_FUNCTION, Blocks(4), 2000, id="blocks4-n2000"),
        pytest.param(F1_FUNCTION, Periodic((2, 3)), 500, id="periodic23-unit-runs"),
        pytest.param(F1_FUNCTION, Explicit((3, 5, 2), Periodic((2, 7))), 60, id="explicit-tail"),
        pytest.param(COS_FUNCTION, Constant(2), 50, id="cos-constant2-cos_sq-0"),
        pytest.param([{"freq": 2, "re": 0.5, "im": 0.0}], Constant(2), 50, id="sin_sq-0"),
        pytest.param(F1_FUNCTION, Blocks(4), 1, id="n=1"),
        pytest.param(F1_FUNCTION, Blocks(4), 2, id="n=2"),
    ],
)
def test_analyze_writers_match_the_per_cell_oracle(tmp_path, function, spec, n):
    sc = Scenario(trigpoly_from_obj(function), spec, n)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario_to_obj(sc)))
    assert main(["analyze", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
    report = analysis.variance_report(sc.function, spec, n)
    assert (tmp_path / "r.csv").read_text() == _oracle_csv(report)
    assert (tmp_path / "r.svg").read_text() == _oracle_svg(n, [
        ("Var(S_k)", "#1f77b4", report.cov_curve),
        ("accumulated transversality", "#d62728", report.acc_curve or [0.0]),
    ])


@pytest.mark.parametrize(
    "sin_sq, named",
    [
        (None, "inf in var_cov_prefix at k=3"),
        (-math.inf, "-inf in min_pair_sin_sq at k=3"),
    ],
    ids=["var_cov_prefix", "min_pair_sin_sq"],
)
def test_first_non_finite_cell_in_row_order_is_named(sin_sq, named):
    # records 4..6 hold a nan u_norm_sq, a later row in an earlier column;
    # row 3 holds the first bad cell: var_cov_prefix (before var_mart_prefix),
    # unless record 4's sine is -inf, which makes min_pair_sin_sq at k=3 the first
    report = analysis.variance_report(make_trigpoly([(1, 0.5), (2, 0.25)]), Blocks(4), 6)
    rec = report.per_step[3]
    bad = dataclasses.replace(rec, u_norm_sq=math.nan, sin_sq=sin_sq or rec.sin_sq)
    report = analysis.VarianceReport(
        report.per_step[:3] + (bad, bad, bad),
        tuple(report.cov_curve[:2]) + (math.inf,) * 4,
        tuple(report.mart_curve[:2]) + (math.nan,) * 4,
        report.acc_curve,
    )
    with pytest.raises(ValueError) as old:
        _oracle_csv(report)
    with pytest.raises(ValueError) as new:
        "".join(cli._analyze_csv(report))
    assert str(new.value) == str(old.value) == f"cannot write the non-finite value {named}"


_POISON_BASE = analysis.variance_report(make_trigpoly([(1, 0.5), (2, 0.25)]), Blocks(4), 12)
_POISONS = st.tuples(
    st.sampled_from(["u_norm_sq", "cos_sq", "sin_sq", "acc_curve", "cov_curve", "mart_curve"]),
    st.integers(0, 11),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(_POISONS, min_size=1, max_size=4))
def test_non_finite_cells_are_named_as_the_oracle_names_them(poisons):
    # non-finite values in random records and curve entries of a real report,
    # whose records are shared between indices
    per_step = list(_POISON_BASE.per_step)
    curves = {name: list(getattr(_POISON_BASE, name))
              for name in ("cov_curve", "mart_curve", "acc_curve")}
    for where, i, value in poisons:
        if where in curves:
            curves[where][i % len(curves[where])] = value
        else:
            per_step[i] = dataclasses.replace(per_step[i], **{where: value})
    report = analysis.VarianceReport(tuple(per_step), **{k: tuple(v) for k, v in curves.items()})
    with pytest.raises(ValueError) as old:
        _oracle_csv(report)
    with pytest.raises(ValueError) as new:
        "".join(cli._analyze_csv(report))
    assert str(new.value) == str(old.value)


@pytest.mark.parametrize("rows", [1, 3, 7])
def test_chunk_edges_change_no_byte_and_no_named_cell(tmp_path, monkeypatch, rows):
    # chunks of a few rows and points: the same files as the oracles write, and
    # a non-finite cell past the first chunk is named by its line in the file
    monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
    n = 20
    path = write_scenario(tmp_path, function=F1_FUNCTION, sequence={"kind": "blocks", "D": 4}, n=n)
    assert main(["analyze", path, "--out", str(tmp_path / "r")]) == EXIT_OK
    report = analysis.variance_report(trigpoly_from_obj(F1_FUNCTION), Blocks(4), n)
    assert (tmp_path / "r.csv").read_text() == _oracle_csv(report)
    assert (tmp_path / "r.svg").read_text() == _oracle_svg(n, [
        ("Var(S_k)", "#1f77b4", report.cov_curve),
        ("accumulated transversality", "#d62728", report.acc_curve),
    ])
    for k in (8, n):
        bad = dataclasses.replace(
            report, mart_curve=tuple(report.mart_curve[:k - 1]) + (math.nan,) * (n - k + 1))
        with pytest.raises(ValueError) as old:
            _oracle_csv(bad)
        with pytest.raises(ValueError) as new:
            "".join(cli._analyze_csv(bad))
        assert str(new.value) == str(old.value) == (
            f"cannot write the non-finite value nan in var_mart_prefix at k={k}")


def test_non_finite_sample_is_named_by_its_line(tmp_path, capsys, monkeypatch):
    # a finite summary, so that the samples CSV is the first file to fail
    path = write_scenario(tmp_path, n=8, samples=3, seed=1)
    monkeypatch.setattr(montecarlo, "birkhoff_samples", lambda *args: [0.25, math.inf, 0.5])
    monkeypatch.setattr(montecarlo, "report_from_samples", lambda *args: montecarlo.MCReport(
        8, 3, 1, 0.0, 1.0, 0.5, (3,), "empirical"))
    argv = ["simulate", path, "--out", str(tmp_path / "m"), "--dump-samples"]
    assert main(argv) == EXIT_INCONSISTENT
    assert capsys.readouterr().err == (
        "error: cannot write the non-finite value inf in sample at k=2\n")
    assert not (tmp_path / "m.samples.csv").exists()


_SUBNORMAL = {  # Var(S_k) = k * 2e-320: span_y / peak overflows
    "function": [{"freq": 1, "re": 1e-160, "im": 0.0}],
    "sequence": {"kind": "constant", "b": 3},
    "n": 3,
}


def test_subnormal_variance_is_plotted_to_its_peak(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_SUBNORMAL))
    assert main(["analyze", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
    svg = (tmp_path / "r.svg").read_text()
    assert 'points="60.00,261.33 380.00,142.67 700.00,24.00"' in svg
    assert "(max 5.999933203096098e-320)" in svg


@pytest.mark.parametrize(
    "scenario",
    [
        *(pytest.param(p, id=p.stem) for p in sorted(DEMO_SCENARIOS.glob("*.json"))),
        pytest.param(_SUBNORMAL, id="subnormal"),
    ],
)
def test_analyze_writes_no_non_finite_token(tmp_path, scenario):
    path = tmp_path / "s.json"
    path.write_text(scenario.read_text() if isinstance(scenario, Path) else json.dumps(scenario))
    assert main(["analyze", str(path), "--out", str(tmp_path / "r")]) == EXIT_OK
    outputs = sorted(tmp_path.glob("r.*"))
    assert [p.suffix for p in outputs] == [".csv", ".json", ".svg"]
    for out in outputs:
        assert re.search(r"(?i)\b(inf|infinity|nan)\b", out.read_text()) is None, out.name


def test_mcreport_json_field_order(tmp_path):
    path = write_scenario(tmp_path, n=16, samples=10, seed=3)
    out = str(tmp_path / "mo")
    assert main(["simulate", path, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "mo.mc.json").read_text())
    assert list(report.keys()) == [
        "n", "m", "seed", "mean", "var_hat", "ks", "histogram", "standardization",
    ]


def test_coboundary_solution_exit_zero(tmp_path, capsys):
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    assert main(["coboundary", path, "--base", "2"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "solution"
    assert out["u"] == [{"freq": 1, "re": 0.5, "im": -0.0}]


def test_coboundary_obstruction_exit_ten(tmp_path, capsys):
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    assert main(["coboundary", path, "--base", "3"]) == EXIT_OBSTRUCTION
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "obstruction"
    assert out["root"] == 1
    assert out["residual"]["re"] == pytest.approx(-0.5)


def test_coboundary_prints_only_a_verified_result(tmp_path, capsys, monkeypatch):
    # a solution that coboundary.verify rejects is an internal failure
    wrong = coboundary.CoboundaryResult("solution", cosine(3), None, None)
    monkeypatch.setattr(coboundary, "solve", lambda f, b: wrong)
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    assert main(["coboundary", path, "--base", "2"]) == EXIT_INCONSISTENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_coboundary_decides_sums_beyond_float_range(tmp_path, capsys):
    # the chain from 1 passes 2e308 on its way to its total 1e308
    big = [{"freq": m, "re": re, "im": 0.0} for m, re in ((1, 1e308), (2, 1e308), (4, -1e308))]
    path = write_scenario(tmp_path, function=big)
    assert main(["coboundary", path, "--base", "2"]) == EXIT_OBSTRUCTION
    out = json.loads(capsys.readouterr().out)
    assert (out["root"], out["residual"]) == (1, {"re": 1e308, "im": 0.0})
    # a total of 0, but u = -2e308 at frequency 2: a failed computation, not bad input
    path = write_scenario(tmp_path, function=big + [{"freq": 8, "re": -1e308, "im": 0.0}])
    assert main(["coboundary", path, "--base", "2"]) == EXIT_INCONSISTENT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write the non-finite value -inf in re in u\n"


def test_coboundary_rejects_base_one(tmp_path):
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    assert main(["coboundary", path, "--base", "1"]) == EXIT_BAD_SCENARIO


def test_verify_decay_passes(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        function=[{"freq": 1, "re": 0.5, "im": 0.0}, {"freq": 3, "re": 0.5, "im": 0.0}],
    )
    code = main(["verify-decay", path, "--k", "10"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("worst ratio: ")
    assert float(out.split(":")[1]) <= 1.0


def test_verify_decay_answers_at_any_k(tmp_path, capsys):
    # every word's walk ends within bit_length(degree) letters, whatever k is
    path = write_scenario(
        tmp_path,
        function=[{"freq": 1, "re": 0.5, "im": 0.0}, {"freq": 3, "re": 0.5, "im": 0.0}],
    )
    outputs = []
    for k in ("20", "100000000000"):
        assert main(["verify-decay", path, "--k", k]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == "worst ratio: 0.30272931902870803\n"


@pytest.mark.parametrize("freqs", [(4,), (8,), (1, 3, 4, 8)])
def test_verify_decay_prints_the_worst_ratio_of_the_whole_words(tmp_path, capsys, freqs):
    # the degree is at most 8, so every word's images past its third letter
    # are 0, and the words of three letters hold every prefix that matters;
    # on cos 16 pi x the deepest image, after 2, 2, 2, gives the worst ratio
    function = [{"freq": q, "re": 0.5, "im": 0.25} for q in freqs]
    path = write_scenario(tmp_path, function=function)
    assert main(["verify-decay", path, "--k", "20"]) == EXIT_OK
    f = trigpoly_from_obj(function)
    words = itertools.product(range(2, 11), repeat=3)
    ratios = [analysis.verify_decay(f, word).ratios for word in words]
    worst = max(map(max, ratios))
    if len(freqs) == 1:
        assert worst > max(r[0] for r in ratios)
    assert capsys.readouterr().out == f"worst ratio: {worst:.17g}\n"


def test_verify_decay_rejects_k_zero(tmp_path):
    path = write_scenario(tmp_path)
    code = main(["verify-decay", path, "--k", "0"])
    assert code == EXIT_BAD_SCENARIO


@pytest.mark.parametrize(
    "argv",
    [
        ["coboundary", "{path}"],
        ["analyze", "{path}", "--out", "{out}", "--bogus"],
        ["simulate", "{path}", "--out", "{out}", "--threads", "x"],
        ["analyze", "{path}"],
        [],
    ],
    ids=["missing-base", "unknown-flag", "non-integer-threads", "missing-out", "no-command"],
)
def test_malformed_command_line_is_bad_input(tmp_path, capsys, argv):
    path = write_scenario(tmp_path, samples=2, seed=1)
    argv = [a.format(path=path, out=tmp_path / "o") for a in argv]
    assert main(argv) == EXIT_BAD_SCENARIO
    err = capsys.readouterr().err
    assert err.startswith("error: seqclt") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [tmp_path / "scenario.json"]


@pytest.mark.parametrize(
    "argv",
    [
        ["coboundary", "{path}", "--base", "2", "--out", "{out}"],
        ["coboundary", "{path}", "--base", "2", "--threads", "2"],
        ["coboundary", "{path}", "--base", "2", "--dump-samples"],
        ["verify-decay", "{path}", "--k", "3", "--out", "{out}"],
        ["verify-decay", "{path}", "--k", "3", "--threads", "2"],
        ["verify-decay", "{path}", "--k", "3", "--dump-samples"],
        ["analyze", "{path}", "--out", "{out}", "--dump-samples"],
        ["verify-decay", "{path}", "--k", "3", "--trials", "2"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    argv = [a.format(path=path, out=tmp_path / "o") for a in argv]
    assert main(argv) == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_verify_decay_rejects_negative_seed(tmp_path, capsys):
    # verify-decay checks every word, so it reads no seed at all
    path = write_scenario(tmp_path)
    assert main(["verify-decay", path, "--k", "3", "--seed", "-1"]) == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_verify_decay_rejects_seed_beyond_64_bits(tmp_path, capsys):
    path = write_scenario(tmp_path)
    code = main(["verify-decay", path, "--k", "3", "--seed", str(2**64 + 7)])
    assert code == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_analyze_accepts_threads(tmp_path):
    path = write_scenario(tmp_path, n=8)
    assert main(["analyze", path, "--out", str(tmp_path / "a"), "--threads", "1"]) == EXIT_OK


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("usage: seqclt")


def _rejected(tmp_path, capsys, argv, *files):
    """main(argv) exits 1 with one error line, no traceback and no new file."""
    assert main(argv) == EXIT_BAD_SCENARIO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    return captured.err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("n", [2**63, 10**22], ids=["2^63", "10^22"])
def test_horizon_beyond_maxsize_is_bad_input(tmp_path, capsys, command, n):
    # no list of n values exists; an accepted n near sys.maxsize is never run
    path = write_scenario(tmp_path, n=n, samples=10, seed=1)
    argv = [command, path, "--out", str(tmp_path / "h")]
    err = _rejected(tmp_path, capsys, argv, "scenario.json")
    assert "horizon n" in err and str(n) in err


@pytest.mark.parametrize(
    "overrides, named",
    [
        pytest.param({"n": 0}, "horizon n", id="n=0"),
        pytest.param({"samples": 1, "seed": 1}, "samples", id="samples=1"),
        pytest.param({"standardization": "studentized"}, "'studentized'", id="standardization"),
    ],
)
def test_scenario_rule_is_bad_input(tmp_path, capsys, overrides, named):
    argv = ["analyze", write_scenario(tmp_path, **overrides), "--out", str(tmp_path / "r")]
    err = _rejected(tmp_path, capsys, argv, "scenario.json")
    assert named in err


def test_scenario_that_is_not_an_object_is_bad_input(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    argv = ["analyze", str(path), "--out", str(tmp_path / "r")]
    err = _rejected(tmp_path, capsys, argv, "list.json")
    assert "JSON object" in err


def test_missing_scenario_file_is_bad_input(tmp_path, capsys):
    argv = ["analyze", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r")]
    assert "cannot read scenario file" in _rejected(tmp_path, capsys, argv)


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(["coboundary", "{path}", "--base", "1"], "base", id="base=1"),
        pytest.param(["coboundary", "{path}", "--base", "-3"], "base", id="base=-3"),
        pytest.param(["verify-decay", "{path}", "--k", "0"], "k must be >= 1", id="k=0"),
    ],
)
def test_library_rule_on_a_flag_is_bad_input(tmp_path, capsys, argv, named):
    # the CLI does not check these flags itself: coboundary.solve rejects the
    # base, and analysis.decay_certificate k, before any work
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    argv = [a.format(path=path) for a in argv]
    assert named in _rejected(tmp_path, capsys, argv, "scenario.json")


# One mutation of a valid scenario or command line, from a bounded table.
# Scenario mutations set the value at a path, or drop the key there;
# every one is rejected by the scenario parser, so for every command.  The
# sequence is one constant run, on which a horizon accepted by mistake
# fails at once instead of walking, or filling memory, index by index.
_VALID_SCENARIO = {
    "function": [{"freq": 1, "re": 0.5, "im": 0.0}],
    "sequence": {"kind": "constant", "b": 2},
    "n": 8,
    "samples": 4,
    "seed": 1,
}
_DROP = object()
_SCENARIO_MUTATIONS = {
    ("n",): [0, -3, 2**63, 10**22, 2.5, True, "8", [8], None, _DROP],
    ("samples",): [1, 0, -2, 2.5, True, "4", [4]],
    ("seed",): [-1, 2**64, 2.5, False, "1", [1]],
    ("standardization",): ["studentized", "", 1, None],
    ("sequence",): [
        True, 2, "constant", [2], {"kind": "fancy"}, {"b": 2}, _DROP,
        {"kind": "periodic", "values": []},
        {"kind": "periodic", "values": [2, 1]},
        {"kind": "explicit", "values": [2.5], "tail": {"kind": "constant", "b": 2}},
        {"kind": "explicit", "values": [3]},
        {"kind": "triples", "b0": 2, "B": 2, "p0": 10, "r": 2},
        {"kind": "blocks", "D": 1.0},
        {"kind": "blocks", "D": "4"},
    ],
    ("sequence", "kind"): ["periodic", "blocks", 2, _DROP],
    ("sequence", "b"): [1, 0, 2.5, True, "2", [2], _DROP],
    ("sequence", "bogus"): [1],
    ("function",): [[], "cos", 1, {"freq": 1}, [1], _DROP],
    ("function", 0, "freq"): [0, -1, 1.5, True, "1", _DROP],
    ("function", 0, "re"): [math.nan, math.inf, True, "0.5", 10**400, _DROP],
    ("function", 0, "im"): [-math.inf, False, [0.0], _DROP],
    ("function", 0, "bogus"): [0.0],
    ("bogus",): [1],
}
_COMMANDS = {
    "analyze": ["--out", "{out}"],
    "simulate": ["--out", "{out}", "--dump-samples"],
    "coboundary": ["--base", "2"],
    "verify-decay": ["--k", "2"],
}
# (command, flag, value): value replaces the flag's, None drops the flag
_FLAG_MUTATIONS = [
    *(("analyze", "--threads", v) for v in ("0", "-3", "x")),
    *(("simulate", "--threads", v) for v in ("0", "-3", "1.5")),
    ("analyze", "--out", None),
    ("simulate", "--out", None),
    *(("coboundary", "--base", v) for v in ("1", "0", "-3", "2.5", "x", None)),
    *(("verify-decay", "--k", v) for v in ("0", "-1", "x", None)),
    *((c, "--bogus", "1") for c in _COMMANDS),
]


def _mutated(path, value, base=_VALID_SCENARIO):
    obj = json.loads(json.dumps(base))
    *head, last = path
    node = obj
    for key in head:
        node = node[key]
    if value is _DROP:
        del node[last]
    else:
        node[last] = value
    return obj


def _with_flag(flags, flag, value):
    if flag not in flags:
        return [*flags, flag, value]
    i = flags.index(flag)
    rest = flags[:i] + flags[i + 2 :]
    return rest if value is None else [*rest, flag, value]


_MALFORMED = st.one_of(
    st.builds(
        lambda command, mutation: (command, _mutated(*mutation), _COMMANDS[command]),
        st.sampled_from(sorted(_COMMANDS)),
        st.sampled_from([(p, v) for p, vs in _SCENARIO_MUTATIONS.items() for v in vs]),
    ),
    st.sampled_from(_FLAG_MUTATIONS).map(
        lambda m: (m[0], _VALID_SCENARIO, _with_flag(_COMMANDS[m[0]], m[1], m[2]))
    ),
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(_MALFORMED)
def test_malformed_input_is_bad_input(case):
    command, scenario, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(scenario))  # NaN and Infinity as json.load reads them
        argv = [command, path, *(f.format(out=os.path.join(tmp, "o")) for f in flags)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == EXIT_BAD_SCENARIO, (argv, scenario, err.getvalue())
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
        assert os.listdir(tmp) == ["scenario.json"]


# Every field of a scenario, of a coefficient and of each sequence kind, and
# the kind, takes each of these JSON values in turn: parsing returns a
# Scenario or raises InputError, and never turns another error into bad input.
_JSON_VALUES = {
    "null": None, "true": True, "false": False, "0": 0, "1": 1, "-1": -1, "2": 2, "3": 3,
    "2^64": 2**64, "10^400": 10**400, "0.5": 0.5, "2.5": 2.5, "4.0": 4.0, "-0.0": -0.0,
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1e300": 1e300, "empty-str": "",
    "str-2": "2", "str-constant": "constant", "empty-list": [], "list-2": [2],
    "list-2-3": [2, 3], "empty-object": {}, "constant-object": {"kind": "constant", "b": 2},
}
_SEQUENCES = {
    "constant": _CONSTANT,
    "periodic": {"kind": "periodic", "values": [2, 3]},
    "explicit": {"kind": "explicit", "values": [3], "tail": _CONSTANT},
    "triples": {"kind": "triples", "b0": 2, "B": 80, "p0": 10, "r": 2},
    "blocks": {"kind": "blocks", "D": 4},
}
_BASE = {**_VALID_SCENARIO, "standardization": "empirical"}
_FIELDS = [  # (base scenario, path of the field)
    *((_BASE, (key,)) for key in _BASE),
    *((_BASE, ("function", 0, key)) for key in ("freq", "re", "im")),
    *(({**_BASE, "sequence": obj}, ("sequence", key))
      for obj in _SEQUENCES.values() for key in obj if key != "kind"),
    (_BASE, ("sequence", "kind")),
]


@pytest.mark.parametrize(
    "base, path, value",
    [(base, path, value) for base, path in _FIELDS for value in _JSON_VALUES.values()],
    ids=[f"{base['sequence']['kind']}-{'.'.join(map(str, path))}={name}"
         for base, path in _FIELDS for name in _JSON_VALUES],
)
def test_scenario_parsing_fails_only_as_bad_input(base, path, value):
    obj = _mutated(path, value, base)
    try:
        assert isinstance(scenario_from_obj(obj), Scenario)
    except InputError as exc:
        assert exc.__context__ is None, exc  # raised by a rule, not from a caught error


@pytest.mark.parametrize(
    "base, path",
    [
        (_BASE, ("n",)),
        (_BASE, ("function", 0, "im")),
        *(({**_BASE, "sequence": obj}, ("sequence", list(obj)[-1])) for obj in _SEQUENCES.values()),
    ],
    ids=["scenario-n", "coefficient-im", *_SEQUENCES],
)
def test_missing_key_is_named(base, path):
    with pytest.raises(InputError, match=f"is missing key {path[-1]!r}"):
        scenario_from_obj(_mutated(path, _DROP, base))
