"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the measured values
next to each verdict.  Monte Carlo criteria share one set of runs through a
module-scoped fixture, and every random input is seeded, so the whole module
is deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import random_poly
from seqclt import analysis, cli, coboundary, montecarlo
from seqclt.analysis import (
    accumulated_transversality,
    angle_profile,
    block_shadowing_check,
    example1_threshold,
    separation_bound_check,
    variance_covariance,
    variance_covariance_curve,
    variance_martingale,
    variance_martingale_curve,
)
from seqclt.sequences import Blocks, Constant, Explicit, Periodic, Triples
from seqclt.trigpoly import cosine, koopman, linear_combine, make_trigpoly

COS = cosine(1)
F1 = linear_combine([(1.0, cosine(2)), (-1.0, cosine(1))])

N_LONG = 10**4
MC_N = 1024
MC_M = 10**4


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")


def _scenario_file(tmp_path, name, function, sequence, **extra):
    obj = {"function": function, "sequence": sequence, "n": extra.pop("n", 1)}
    obj.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


COS_FUNCTION = [{"freq": 1, "re": 0.5, "im": 0.0}]
F1_FUNCTION = [{"freq": 1, "re": -0.5, "im": 0.0}, {"freq": 2, "re": 0.5, "im": 0.0}]


def test_criterion_01_variance_cross_identity():
    rng = np.random.default_rng(813)
    scenarios = [
        ("cos/constant2", COS, Constant(2)),
        ("f1/constant2", F1, Constant(2)),
        ("f1/blocks4", F1, Blocks(4)),
        ("cos/triples70", COS, Triples(b0=2, B=70, p0=10, r=2)),
        ("rand8/periodic2325", random_poly(rng, 8, density=1.0), Periodic((2, 3, 2, 5))),
    ]
    worst = 0.0
    for _, f, spec in scenarios:
        cov = variance_covariance(f, spec, N_LONG)
        mart = variance_martingale(f, spec, N_LONG)
        worst = max(worst, abs(cov - mart) / max(1.0, abs(cov)))
    ok = worst <= 1e-9
    _verdict(1, ok, f"worst relative gap {worst:.3e} over 5 scenarios at n={N_LONG}")
    assert ok


def test_criterion_02_exact_variance_values():
    cov_curve = variance_covariance_curve(COS, Constant(2), N_LONG)
    mart_curve = variance_martingale_curve(COS, Constant(2), N_LONG)
    worst_cos = max(
        max(abs(cov_curve[n - 1] - n / 2), abs(mart_curve[n - 1] - n / 2)) / (1e-12 * n)
        for n in (1, 10, 10**3, 10**4)
    )
    f1_cov = variance_covariance_curve(F1, Constant(2), N_LONG)
    f1_mart = variance_martingale_curve(F1, Constant(2), N_LONG)
    exact_ones = all(v == 1.0 for v in f1_cov) and all(v == 1.0 for v in f1_mart)
    ok = worst_cos <= 1.0 and exact_ones
    _verdict(
        2,
        ok,
        f"cos: worst |Var - n/2| within {worst_cos:.3f} of budget; "
        f"f1: Var(S_n) == 1 exactly for all n<=1e4: {exact_ones}",
    )
    assert ok


def test_criterion_03_decay_bound_via_cli(tmp_path, capsys):
    rng = np.random.default_rng(165)
    rand16 = random_poly(rng, 16, density=1.0)
    from seqclt.trigpoly import trigpoly_to_obj

    cases = {
        "cos1_cos3": [
            {"freq": 1, "re": 0.5, "im": 0.0},
            {"freq": 3, "re": 0.5, "im": 0.0},
        ],
        "rand16": trigpoly_to_obj(rand16),
    }
    worst = 0.0
    codes = []
    for name, function in cases.items():
        path = _scenario_file(
            tmp_path, f"{name}.json", function, {"kind": "constant", "b": 2}
        )
        code = cli.main(["verify-decay", path, "--k", "20"])
        codes.append(code)
        out = capsys.readouterr().out
        worst = max(worst, float(out.strip().split(":")[1]))
    ok = codes == [0, 0] and worst <= 1.0
    _verdict(3, ok, f"exit codes {codes}, worst ratio {worst:.6f} (K=20, every word)")
    assert ok


def test_criterion_04_separation_pipeline():
    cert = example1_threshold(COS)
    spec = Triples(b0=2, B=80, p0=10, r=2)
    spikes = list(spec.spike_positions(N_LONG))
    all_spikes_pass = all(
        separation_bound_check(COS, spec, cert, k)
        for p in spikes
        for k in (p, p + 1)
    )
    profile = angle_profile(COS, spec, N_LONG + 1)
    max_u_sq = max(rec.u_norm_sq for rec in profile)
    per_spike = cert.delta**2 * cert.eps / (64.0 * max_u_sq)
    acc = 0.0
    lower_ok = True
    for n in range(1, N_LONG + 1):
        acc += min(profile[n - 1].sin_sq, profile[n].sin_sq)
        count = sum(1 for p in spikes if p <= n)
        if acc < per_spike * count:
            lower_ok = False
            break
    curve = variance_covariance_curve(COS, spec, N_LONG)
    growing = curve[N_LONG - 1] > curve[10**3 - 1]
    ok = cert.L <= 70 and 80 > cert.L and all_spikes_pass and lower_ok and growing
    _verdict(
        4,
        ok,
        f"L={cert.L}<=70, {len(spikes)} spikes all pass, transversality lower "
        f"bound holds, Var({N_LONG})={curve[-1]:.1f} > Var(1000)={curve[999]:.1f}",
    )
    assert ok


def test_criterion_05_variance_suppression():
    n = 4**6
    curve = variance_covariance_curve(F1, Blocks(4), n)
    ratio = curve[n - 1] / n
    caps_ok = all(curve[4**l - 1] <= 8.0 * 4 ** (l - 1) for l in (3, 4, 5, 6))
    ok = ratio <= 0.05 and caps_ok
    _verdict(
        5,
        ok,
        f"Var(S_4096)/4096 = {ratio:.5f} <= 0.05; "
        f"Var(S_(4^l)) <= 8*4^(l-1) for l=3..6: {caps_ok}",
    )
    assert ok


def test_criterion_06_block_shadowing():
    spec = Explicit((2,) * 5 + (3,) * 20, Constant(2))
    value = block_shadowing_check(F1, spec, 17, 23)
    ok = value <= 1e-3
    _verdict(6, ok, f"shadowing distance {value:.3e} <= 1e-3 in a 20-run of 3s")
    assert ok


def test_criterion_07_coboundary_dichotomy():
    res2 = coboundary.solve(F1, 2)
    res3 = coboundary.solve(F1, 3)
    named_ok = (
        res2.solvable
        and res2.solution == cosine(1)
        and not res3.solvable
        and res3.root == 1
        and abs(res3.residual - (-0.5)) <= 1e-15
        and coboundary.verify(F1, 2, res2)
        and coboundary.verify(F1, 3, res3)
    )
    rng = np.random.default_rng(77)
    round_trips = 0
    for _ in range(500):
        u = random_poly(rng, max_degree=64, density=0.4, quantize=20)
        b = int(rng.integers(2, 8))
        f = linear_combine([(1.0, koopman(b, u)), (-1.0, u)])
        res = coboundary.solve(f, b)
        if res.solvable and res.solution == u:
            round_trips += 1
    ok = named_ok and round_trips == 500
    _verdict(
        7,
        ok,
        f"named cases {'ok' if named_ok else 'BAD'}, "
        f"{round_trips}/500 random round trips exact",
    )
    assert ok


@pytest.fixture(scope="module")
def mc_runs():
    runs = {}
    for name, f, spec in [
        ("cos/constant2", COS, Constant(2)),
        ("cos/periodic23", COS, Periodic((2, 3))),
        ("f1/constant2", F1, Constant(2)),
    ]:
        t0 = time.time()
        sums = montecarlo.birkhoff_samples(f, spec, MC_N, MC_M, seed=2718)
        report = montecarlo.report_from_samples(
            sums, f, spec, MC_N, seed=2718, standardization="exact"
        )
        elapsed = time.time() - t0
        exact_var = analysis.variance_covariance(f, spec, MC_N)
        runs[name] = (report, sums, elapsed, exact_var)
    return runs


def test_criterion_08_monte_carlo_clt(mc_runs):
    pos1, _, t1, _ = mc_runs["cos/constant2"]
    pos2, _, t2, _ = mc_runs["cos/periodic23"]
    neg, neg_sums, _, _ = mc_runs["f1/constant2"]
    bounded = max(abs(s) for s in neg_sums) <= 2.0
    ok = (
        pos1.ks <= 0.035
        and pos2.ks <= 0.035
        and t1 <= 120.0
        and t2 <= 120.0
        and bounded
        and neg.ks >= 0.1
    )
    _verdict(
        8,
        ok,
        f"ks(constant2)={pos1.ks:.4f}, ks(periodic23)={pos2.ks:.4f} (<=0.035), "
        f"runtimes {t1:.1f}s/{t2:.1f}s, negative control bounded={bounded}, "
        f"ks(negative)={neg.ks:.4f} (required >=0.1)",
    )
    assert pos1.ks <= 0.035 and pos2.ks <= 0.035
    assert t1 <= 120.0 and t2 <= 120.0
    assert bounded
    assert neg.ks >= 0.1, (
        "negative-control KS distance: the telescoped coboundary law "
        f"(difference of two arcsine variables) is {neg.ks:.4f} from the "
        "standard normal; 0.1 is not attainable for it"
    )


def test_criterion_09_variance_estimator_matches_exact(mc_runs):
    worst = 0.0
    for name, (report, _, _, exact_var) in mc_runs.items():
        tol = 4.0 * exact_var * math.sqrt(2.0 / (MC_M - 1))
        worst = max(worst, abs(report.var_hat - exact_var) / tol)
    ok = worst <= 1.0
    _verdict(9, ok, f"worst |var_hat - Var|/tolerance = {worst:.3f} over 3 scenarios")
    assert ok


def test_criterion_10_thread_count_determinism(tmp_path):
    outputs = {}
    for name, function, sequence in [
        ("constant2", COS_FUNCTION, {"kind": "constant", "b": 2}),
        ("periodic23", COS_FUNCTION, {"kind": "periodic", "values": [2, 3]}),
    ]:
        path = _scenario_file(
            tmp_path,
            f"{name}.json",
            function,
            sequence,
            n=MC_N,
            samples=MC_M,
            seed=2718,
            standardization="exact",
        )
        blobs = []
        for threads in ("1", "8"):
            out = str(tmp_path / f"{name}-t{threads}")
            code = cli.main(["simulate", path, "--out", out, "--threads", threads])
            assert code == 0
            blobs.append((tmp_path / f"{name}-t{threads}.mc.json").read_bytes())
        outputs[name] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    _verdict(10, ok, f"byte-identical MCReport JSON per scenario: {outputs}")
    assert ok
