import concurrent.futures
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqclt import analysis, cli, montecarlo
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


def test_overflowing_result_is_an_internal_failure(tmp_path, capsys):
    # a valid coefficient whose squared norm overflows: not bad input (1) but
    # a failure of the computation (3), reported before any file is written
    path = write_scenario(tmp_path, function=[{"freq": 1, "re": 1e300, "im": 0.0}])
    assert main(["analyze", path, "--out", str(tmp_path / "big")]) == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "inf in u_norm_sq at k=1" in err
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


def test_verify_decay_rejects_negative_seed(tmp_path):
    path = write_scenario(tmp_path)
    code = main(["verify-decay", path, "--k", "3", "--trials", "2", "--seed", "-1"])
    assert code == EXIT_BAD_SCENARIO


def test_verify_decay_rejects_seed_beyond_64_bits(tmp_path):
    path = write_scenario(tmp_path)
    code = main(["verify-decay", path, "--k", "3", "--trials", "2", "--seed", str(2**64 + 7)])
    assert code == EXIT_BAD_SCENARIO


@pytest.mark.parametrize(
    "exc, message",
    [
        pytest.param(MemoryError("Unable to allocate 745. GiB"), "Unable to allocate", id="numpy"),
        pytest.param(MemoryError(), "allocation failed", id="bare"),
    ],
)
def test_out_of_memory_is_an_internal_failure(tmp_path, capsys, monkeypatch, exc, message):
    # as numpy raises for verify-decay --k 100000000000; nothing is allocated here
    def no_memory(*args):
        raise exc

    monkeypatch.setattr(montecarlo, "counter_generator", no_memory)
    path = write_scenario(tmp_path)
    code = main(["verify-decay", path, "--k", "3", "--trials", "2", "--seed", "1"])
    assert code == EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert message in err


def test_analyze_unwritable_path(tmp_path):
    path = write_scenario(tmp_path)
    assert main(["analyze", path, "--out", "/nonexistent-dir/report"]) == EXIT_IO


def test_analyze_inconsistency_exit_code(tmp_path, monkeypatch):
    path = write_scenario(tmp_path)
    curve = analysis.variance_martingale_curve

    def skewed(f, spec, n, profile=None):
        vals = curve(f, spec, n, profile)
        return [v + 1.0 for v in vals]

    monkeypatch.setattr(cli.analysis, "variance_martingale_curve", skewed)
    assert main(["analyze", path, "--out", str(tmp_path / "bad")]) == EXIT_INCONSISTENT


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
    path = write_scenario(tmp_path, n=64, samples=120, seed=5)
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
        '  "acc_transversality": 2\n}\n'
    )


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


def test_coboundary_rejects_base_one(tmp_path):
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    assert main(["coboundary", path, "--base", "1"]) == EXIT_BAD_SCENARIO


def test_verify_decay_passes(tmp_path, capsys):
    path = write_scenario(
        tmp_path,
        function=[{"freq": 1, "re": 0.5, "im": 0.0}, {"freq": 3, "re": 0.5, "im": 0.0}],
    )
    code = main(["verify-decay", path, "--k", "10", "--trials", "25", "--seed", "3"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("worst ratio: ")
    assert float(out.split(":")[1]) <= 1.0


def test_verify_decay_rejects_k_zero(tmp_path):
    path = write_scenario(tmp_path)
    code = main(["verify-decay", path, "--k", "0", "--trials", "5", "--seed", "3"])
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
        ["verify-decay", "{path}", "--k", "3", "--trials", "2", "--seed", "1", "--out", "{out}"],
        ["verify-decay", "{path}", "--k", "3", "--trials", "2", "--seed", "1", "--threads", "2"],
        ["verify-decay", "{path}", "--k", "3", "--trials", "2", "--seed", "1", "--dump-samples"],
        ["analyze", "{path}", "--out", "{out}", "--dump-samples"],
    ],
)
def test_flags_a_command_does_not_read_are_rejected(tmp_path, capsys, argv):
    path = write_scenario(tmp_path, function=F1_FUNCTION)
    argv = [a.format(path=path, out=tmp_path / "o") for a in argv]
    assert main(argv) == EXIT_BAD_SCENARIO
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
