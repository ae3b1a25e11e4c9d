"""Traced run: time calls into each layer of `seqclt` from the benchmark.

One pass replays, in this process, the library calls a workload's CLI
command makes (plus a few per-call layer probes) and times each.  It then
runs `seqclt.cli.main` on the same scenario twice: once as is (cli.main_s),
and once with those library calls stubbed to return the replayed results,
which times the CLI's own work (cli.self_s).  Both runs must write the same
bytes, and the replayed variances and samples must match the output files
exactly.  A pass whose check fails is a failed pass: its timings would
belong to a different program.

`coboundary` is not traced: it costs microseconds per scenario.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager

from seqclt import analysis, cli, montecarlo, sequences, trigpoly

from workloads import Workload, cli_argv

# Monte Carlo probe size on `analyze` workloads, whose scenarios carry no
# sample count; the montecarlo metrics there should stay flat.
PROBE_SAMPLES = 2

# Each per-layer metric, with the end-to-end metric it should move and where.
LAYER_METRICS = {
    "sequences.generate_ns": ("ns", "wall_s on an-rand64-blocks4; flat elsewhere"),
    "trigpoly.transfer_ns": ("ns", "wall_s on an-rand64-blocks4"),
    "trigpoly.l2_inner_ns": ("ns", "wall_s on an-rand64-blocks4"),
    "trigpoly.linear_combine_ns": ("ns", "wall_s on an-rand64-blocks4"),
    "trigpoly.coeff_count": ("count", "wall_s on an-rand64-blocks4 (input property)"),
    "analysis.u_sequence_s": ("s", "wall_s, peak_rss_mb on an-rand64-blocks4; negligible on mc-*"),
    "analysis.angle_profile_s": ("s", "wall_s, peak_rss_mb on an-rand64-blocks4; negligible on mc-*"),
    "analysis.covariance_curve_s": ("s", "wall_s, peak_rss_mb on an-rand64-blocks4; negligible on mc-*"),
    "analysis.martingale_curve_s": ("s", "wall_s, peak_rss_mb on an-rand64-blocks4; negligible on mc-*"),
    "analysis.variance_covariance_s": ("s", "wall_s, peak_rss_mb on an-rand64-blocks4; negligible on mc-*"),
    "analysis.distinct_windows": ("count", "wall_s on an-rand64-blocks4 (input property for a window memo)"),
    "analysis.window_repeat_share": ("ratio", "wall_s on an-rand64-blocks4 (input property for a window memo)"),
    "montecarlo.birkhoff_samples_s": ("s", "wall_s, cpu_s on mc-*; flat on an-rand64-blocks4"),
    "montecarlo.ns_per_orbit_step": ("ns", "wall_s, cpu_s on mc-*; flat on an-rand64-blocks4"),
    "montecarlo.draw_numerator_s": ("s", "wall_s, cpu_s on mc-*; flat on an-rand64-blocks4"),
    "montecarlo.report_s": ("s", "wall_s, cpu_s on mc-*; flat on an-rand64-blocks4"),
    "montecarlo.ks_statistic_s": ("s", "wall_s, cpu_s on mc-*; flat on an-rand64-blocks4"),
    "montecarlo.bits": ("count", "wall_s, cpu_s on mc-* (input property)"),
    "montecarlo.parallel_efficiency": ("ratio", "wall_s vs cpu_s on mc-f1-p23-w2"),
    "cli.main_s": ("s", "wall_s, peak_rss_mb on an-rand64-blocks4"),
    "cli.self_s": ("s", "wall_s, peak_rss_mb on an-rand64-blocks4"),
    "cli.output_bytes": ("count", "wall_s, peak_rss_mb on an-rand64-blocks4"),
}


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _per_call_ns(fn, *args, budget: float = 0.05) -> float:
    """Median over 3 batches of the per-call time, each batch >= budget seconds."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        if time.perf_counter() - t0 >= budget:
            break
        reps *= 2
    batches = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn(*args)
        batches.append((time.perf_counter() - t0) / reps)
    return sorted(batches)[1] * 1e9


def _generate_all(spec, n: int) -> None:
    for k in range(1, n + 2):
        sequences.generate(spec, k)


def _draw_all(seed: int, m: int, bits: int) -> None:
    for i in range(m):
        montecarlo.draw_numerator(seed, i, bits)


def _standardized(sums, f, spec, n, standardization):
    # Mirrors montecarlo.report_from_samples, so ks_statistic sees its input.
    m = len(sums)
    if standardization == "exact":
        sd = math.sqrt(analysis.variance_covariance(f, spec, n))
        return [s / sd for s in sums]
    mean = math.fsum(sums) / m
    sd = math.sqrt(math.fsum((s - mean) ** 2 for s in sums) / (m - 1))
    return [(s - mean) / sd for s in sums] if sd > 0.0 else [0.0] * m


def traced_pass(w: Workload, scenario_path: str, out_prefix: str) -> tuple[dict, list[str]]:
    """One traced pass; returns (metric values, oracle problems)."""
    with open(scenario_path, encoding="utf-8") as fh:
        sc = cli.scenario_from_obj(json.load(fh))
    f, spec, n = sc.function, sc.sequence, sc.n
    v: dict[str, float] = {}
    problems: list[str] = []

    _, t = _timed(_generate_all, spec, n)
    v["sequences.generate_ns"] = t / (n + 1) * 1e9

    a1 = sequences.generate(spec, 1)
    g = trigpoly.transfer(a1, f)
    v["trigpoly.transfer_ns"] = _per_call_ns(trigpoly.transfer, a1, f)
    v["trigpoly.l2_inner_ns"] = _per_call_ns(trigpoly.l2_inner, f, f)
    v["trigpoly.linear_combine_ns"] = _per_call_ns(trigpoly.linear_combine, [(1.0, f), (1.0, g)])
    v["trigpoly.coeff_count"] = len(f.coeffs)

    _, v["analysis.u_sequence_s"] = _timed(analysis.u_sequence, f, spec, n)
    profile, v["analysis.angle_profile_s"] = _timed(analysis.angle_profile, f, spec, n)
    cov_curve, v["analysis.covariance_curve_s"] = _timed(
        analysis.variance_covariance_curve, f, spec, n)
    mart_curve, v["analysis.martingale_curve_s"] = _timed(
        analysis.variance_martingale_curve, f, spec, n, profile)
    var_cov, v["analysis.variance_covariance_s"] = _timed(analysis.variance_covariance, f, spec, n)
    if var_cov != cov_curve[-1]:
        problems.append("variance_covariance differs from the covariance curve")

    simulate = w.command == "simulate"
    m = sc.samples if simulate else PROBE_SAMPLES
    seed = sc.seed if simulate else 0
    bits = montecarlo.required_bits(spec, n)
    v["montecarlo.bits"] = bits
    _, v["montecarlo.draw_numerator_s"] = _timed(_draw_all, seed, m, bits)
    sums, t1 = _timed(montecarlo.birkhoff_samples, f, spec, n, m, seed, 1)
    sums2, t2 = _timed(montecarlo.birkhoff_samples, f, spec, n, m, seed, 2)
    if sums2 != sums:
        problems.append("birkhoff_samples depends on the worker count")
    v["montecarlo.birkhoff_samples_s"] = t1
    v["montecarlo.ns_per_orbit_step"] = t1 / (n * m) * 1e9
    v["montecarlo.parallel_efficiency"] = t1 / (2.0 * t2)
    standardization = sc.standardization if simulate else "empirical"
    report, v["montecarlo.report_s"] = _timed(
        montecarlo.report_from_samples, sums, f, spec, n, seed, standardization)
    z = _standardized(sums, f, spec, n, standardization)
    ks, v["montecarlo.ks_statistic_s"] = _timed(montecarlo.ks_statistic, z)
    if ks != report.ks:
        problems.append("ks_statistic differs from the report's KS distance")

    code, v["cli.main_s"] = _timed(cli.main, cli_argv(w, scenario_path, out_prefix))
    if code != cli.EXIT_OK:
        problems.append(f"cli.main exited {code}")
    v["cli.output_bytes"] = sum(os.path.getsize(out_prefix + s) for s in w.outputs)
    if simulate:
        stubs = {montecarlo: {"birkhoff_samples": sums, "report_from_samples": report}}
    else:
        stubs = {analysis: {"angle_profile": profile, "variance_covariance_curve": cov_curve,
                            "variance_martingale_curve": mart_curve}}
    replay_prefix = out_prefix + "-replay"
    with _stubbed(stubs):
        code, v["cli.self_s"] = _timed(cli.main, cli_argv(w, scenario_path, replay_prefix))
    if code != cli.EXIT_OK:
        problems.append(f"cli.main on the replayed results exited {code}")
    for suffix in w.outputs:
        if not _same_bytes(out_prefix + suffix, replay_prefix + suffix):
            problems.append(f"{suffix} from the replayed results differs from the CLI's")

    try:
        if simulate:
            _check_simulate(w, out_prefix, sums, report, problems)
        else:
            _check_analyze(out_prefix, cov_curve[-1], mart_curve[-1], problems)
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable CLI output: {exc!r}")
    return v, problems


@contextmanager
def _stubbed(stubs: dict):
    """Make each named module function return a fixed value, then restore it."""
    saved = [(mod, name, getattr(mod, name)) for mod, fns in stubs.items() for name in fns]
    try:
        for mod, fns in stubs.items():
            for name, value in fns.items():
                setattr(mod, name, lambda *args, _value=value, **kwargs: _value)
        yield
    finally:
        for mod, name, fn in saved:
            setattr(mod, name, fn)


def _same_bytes(a: str, b: str) -> bool:
    try:
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return fa.read() == fb.read()
    except OSError:
        return False


def _check_simulate(w, out_prefix, sums, report, problems) -> None:
    with open(out_prefix + ".mc.json", encoding="utf-8") as fh:
        written = json.load(fh)
    if written.get("mean") != report.mean:
        problems.append(".mc.json mean differs from the replayed mean")
    if w.dump_samples:
        with open(out_prefix + ".samples.csv", encoding="utf-8") as fh:
            dumped = [float(line) for line in fh]
        if dumped != sums:
            problems.append(".samples.csv differs from birkhoff_samples")


def _check_analyze(out_prefix, var_cov, var_mart, problems) -> None:
    with open(out_prefix + ".json", encoding="utf-8") as fh:
        written = json.load(fh)
    if written.get("var_cov") != var_cov:
        problems.append(".json var_cov differs from the covariance curve")
    if written.get("var_mart") != var_mart:
        problems.append(".json var_mart differs from the martingale curve")
