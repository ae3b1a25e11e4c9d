"""Benchmark of the `seqclt` command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload in turn

With --trace 0 the benchmark writes the seeded scenario file, then for
--seconds seconds runs the workload's CLI command in a fresh interpreter per
invocation, one invocation at a time, and reports the median wall time, CPU
time (the invocation and its workers), peak resident set and set-up time
(interpreter start, `import seqclt` and the scenario parse).  Every
invocation's exit code and output bytes are checked: at DEFAULT_SEED against
`fingerprints.json`, at other seeds against the first invocation, whose
contents are validated.  Whatever the seed, every run also runs the
workload's command once, untimed, on a tiny scenario at DEFAULT_SEED and
checks its output bytes against `fingerprints.json`, so a wrong result is
caught without comparing the program with itself.

With --trace 1 it instead replays the command's library calls in this
process, timing each layer (see layers.py), and checks them bit for bit
against the CLI's own output files.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
A host-speed probe (a fixed pure-Python loop) is printed beside the metrics
for reading drift between runs; it never rescales a metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FINGERPRINTS = BENCH / "fingerprints.json"
WORK = ROOT / ".bench_run"

SETUP_PER_INVOCATION = 3
PREFIX_CHECKED = 64  # leading samples / CSV rows re-derived from the library
MIN_INVOCATIONS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
SETUP_CODE = (
    "import json, sys, seqclt.cli as c\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    c.scenario_from_obj(json.load(fh))\n"
)
LAUNCHER = (
    "import resource, subprocess, sys, time\n"
    "with open(sys.argv[1], 'wb') as err:\n"
    "    t0 = time.perf_counter()\n"
    "    code = subprocess.call(sys.argv[2:], stdout=subprocess.DEVNULL, stderr=err)\n"
    "    wall = time.perf_counter() - t0\n"
    "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
    "print(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)\n"
)
END_TO_END = {
    "wall_s": ("s", "median wall time of one invocation in a fresh interpreter"),
    "cpu_s": ("s", "median user+sys CPU of one invocation and its workers"),
    "setup_s": ("s", "median of a fresh interpreter's start, import seqclt and scenario parse"),
    "peak_rss_mb": ("MB", "median over invocations of the largest resident set of any process"),
}


def keep_going(start: float, seconds: float, rounds: list[float], min_rounds: int) -> bool:
    """Start another round if it should end within `seconds` or fewer than
    `min_rounds` have run."""
    elapsed = time.perf_counter() - start
    return len(rounds) < min_rounds or elapsed + statistics.median(rounds) <= seconds


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def invoke(argv: list[str], env: dict, stderr_path: Path) -> tuple[int, float, float, float]:
    """Run argv to completion: (exit code, wall s, user+sys CPU s, peak RSS MB).

    CPU and peak RSS cover the process and every worker it reaped.  A small
    launcher process starts argv and measures it, because a process started
    directly from this one inherits this one's peak RSS on record.
    """
    out = subprocess.run(
        [sys.executable, "-c", LAUNCHER, str(stderr_path), *argv],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    code, wall, cpu, rss_kb = out.stdout.split()
    return int(code), float(wall), float(cpu), int(rss_kb) / 1024.0


def host_probe() -> float:
    """Median of 3 timings of a fixed pure-Python loop (reporting only)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples beyond it."""
    for q in TAIL_PERCENTILES:
        if len(values) * (1.0 - q / 100.0) >= 10:
            return q, statistics.quantiles(values, n=1000, method="inclusive")[round(q * 10) - 1]
    return None


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def properties(obj: dict) -> dict:
    """Input properties later claims can cite, computed from the scenario."""
    from seqclt import cli, montecarlo

    import workloads

    sc = cli.scenario_from_obj(obj)
    a = workloads.multipliers(sc.sequence, sc.n + 1)
    distinct, share = workloads.window_counts(a, sc.function.degree, sc.n)
    return {
        "n": sc.n,
        "m": sc.samples,
        "degree": sc.function.degree,
        "montecarlo.bits": montecarlo.required_bits(sc.sequence, sc.n),
        "analysis.distinct_windows": distinct,
        "analysis.window_repeat_share": share,
    }


def expected_csv_rows(f, spec, n: int) -> list[list[float]]:
    """The first PREFIX_CHECKED rows of `analyze`'s CSV, from the library.

    Row k depends only on indices <= k + 1, so a short prefix is cheap.
    """
    from seqclt import analysis

    k = min(PREFIX_CHECKED, n - 1)
    profile = analysis.angle_profile(f, spec, k + 1)
    cov = analysis.variance_covariance_curve(f, spec, k)
    mart = analysis.variance_martingale_curve(f, spec, k, profile)
    rows = []
    acc = 0.0
    for i in range(1, k + 1):
        rec = profile[i - 1]
        pair = min(rec.sin_sq, profile[i].sin_sq)
        acc += pair
        rows.append([i, rec.u_norm_sq, rec.cos_sq, rec.sin_sq, pair, acc, cov[i - 1], mart[i - 1]])
    return rows


def validate_outputs(w, obj: dict, prefix: str) -> list[str]:
    """Content checks on one invocation's output files, including its first
    samples or rows against the library."""
    from seqclt import cli, montecarlo

    sc = cli.scenario_from_obj(obj)
    f, spec = sc.function, sc.sequence
    problems = []
    if w.command == "simulate":
        with open(prefix + ".mc.json", encoding="utf-8") as fh:
            mc = json.load(fh)
        for key in ("n", "seed", "standardization"):
            if mc.get(key) != obj[key]:
                problems.append(f".mc.json {key} is {mc.get(key)!r}, expected {obj[key]!r}")
        if mc.get("m") != obj["samples"]:
            problems.append(f".mc.json m is {mc.get('m')!r}, expected {obj['samples']}")
        if not 0.0 <= mc.get("ks", -1.0) <= 1.0 or sum(mc.get("histogram", [])) > obj["samples"]:
            problems.append(".mc.json KS distance or histogram out of range")
        if w.dump_samples:
            with open(prefix + ".samples.csv", encoding="utf-8") as fh:
                sums = [float(line) for line in fh]
            if len(sums) != obj["samples"] or math.fsum(sums) / len(sums) != mc.get("mean"):
                problems.append(".samples.csv does not reproduce the .mc.json mean")
            head = montecarlo.birkhoff_samples(f, spec, sc.n, min(PREFIX_CHECKED, sc.samples), sc.seed)
            if sums[: len(head)] != head:
                problems.append(".samples.csv differs from birkhoff_samples on the first samples")
    else:
        with open(prefix + ".json", encoding="utf-8") as fh:
            summary = json.load(fh)
        var_cov, var_mart = summary.get("var_cov"), summary.get("var_mart")
        if summary.get("n") != obj["n"]:
            problems.append(f".json n is {summary.get('n')!r}, expected {obj['n']}")
        if not isinstance(var_cov, float) or not isinstance(var_mart, float) or (
            abs(var_cov - var_mart) > 1e-9 * max(1.0, abs(var_cov))
        ):
            problems.append(".json variance routes disagree")
        with open(prefix + ".csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != obj["n"] + 1 or float(rows[-1].split(",")[6]) != var_cov:
            problems.append(".csv rows or final var_cov_prefix do not match the .json")
        else:
            expected_rows = expected_csv_rows(f, spec, sc.n)
            cells = (row.split(",") for row in rows[1 : len(expected_rows) + 1])
            if [[int(c[0])] + [float(x) for x in c[1:]] for c in cells] != expected_rows:
                problems.append(".csv differs from the library on the first rows")
        with open(prefix + ".svg", encoding="utf-8") as fh:
            svg = fh.read()
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            problems.append(".svg is not a complete document")
    return problems


def check_invocation(w, obj, code: int, prefix: str, expected: dict | None) -> tuple[dict, list[str]]:
    """Hashes of the outputs and the reasons this invocation failed, if any.

    With `expected` None the contents are validated instead of compared.
    """
    problems = [] if code == 0 else [f"exit code {code}, expected 0"]
    hashes = {}
    for suffix in w.outputs:
        path = Path(prefix + suffix)
        if not path.is_file():
            problems.append(f"missing output {suffix}")
            continue
        hashes[suffix] = sha256(path)
        if expected is not None and hashes[suffix] != expected.get(suffix):
            problems.append(f"{suffix} sha256 {hashes[suffix][:12]} differs from the recorded hash")
    if expected is None and not problems:
        try:
            problems.extend(validate_outputs(w, obj, prefix))
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return hashes, problems


def clear_outputs(w, prefix: str) -> None:
    for suffix in w.outputs:
        Path(prefix + suffix).unlink(missing_ok=True)


def load_fingerprints() -> dict:
    with open(FINGERPRINTS, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(w, seed: int, work: Path) -> tuple[dict, str, str, dict | None, list[str]]:
    """Write the scenario; return (scenario, its path, output prefix,
    recorded output hashes or None, problems)."""
    import workloads

    obj = w.make(seed)
    scen = work / "scenario.json"
    scen.write_bytes(workloads.scenario_bytes(obj))
    expected, problems = None, []
    if seed == workloads.DEFAULT_SEED:
        recorded = load_fingerprints()[w.name]
        expected = recorded["outputs"]
        if sha256(scen) != recorded["scenario"]:
            problems.append("generated scenario differs from the fingerprinted one")
    return obj, str(scen), str(work / "out" / "run"), expected, problems


def check_reference(w, work: Path) -> list[str]:
    """Run the workload's command once on its reference scenario and compare
    every output file with the recorded sha256; return the problems."""
    import workloads

    recorded = load_fingerprints()[w.name]["reference"]
    obj = workloads.reference_scenario(w)
    scen = work / "reference.json"
    scen.write_bytes(workloads.scenario_bytes(obj))
    if sha256(scen) != recorded["scenario"]:
        return ["generated reference scenario differs from the fingerprinted one"]
    prefix = str(work / "out" / "reference")
    argv = [sys.executable, "-m", "seqclt.cli"] + workloads.cli_argv(w, str(scen), prefix)
    code, _, _, _ = invoke(argv, child_env(), work / "stderr.txt")
    _, problems = check_invocation(w, obj, code, prefix, recorded["outputs"])
    return [f"reference scenario: {p}" for p in problems]


def run_untraced(w, seed: int, seconds: float, work: Path) -> tuple[dict, int, int, list[str]]:
    import workloads

    obj, scen, prefix, expected, problems = prepare(w, seed, work)
    env = child_env()
    argv = [sys.executable, "-m", "seqclt.cli"] + workloads.cli_argv(w, scen, prefix)
    setup_argv = [sys.executable, "-c", SETUP_CODE, scen]
    stderr_path = work / "stderr.txt"

    invoke(setup_argv, env, stderr_path)  # untimed: compiles bytecode caches
    probe_before = host_probe()
    setup, walls, cpus, rss, rounds = [], [], [], [], []
    failed = 0
    start = time.perf_counter()
    # Set-up probes are interleaved with the invocations so that both sample
    # the host's speed over the whole run.
    while keep_going(start, seconds, rounds, MIN_INVOCATIONS):
        t0 = time.perf_counter()
        for _ in range(SETUP_PER_INVOCATION):
            code, wall, _, _ = invoke(setup_argv, env, stderr_path)
            if code != 0:
                problems.append(f"set-up probe exited {code}")
            setup.append(wall)
        clear_outputs(w, prefix)
        code, wall, cpu, peak = invoke(argv, env, stderr_path)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        hashes, bad = check_invocation(w, obj, code, prefix, expected)
        if bad:
            failed += 1
            err = stderr_path.read_text(errors="replace").strip().splitlines()
            problems.extend(bad + err[-1:])
        elif expected is None:
            expected = hashes
        rounds.append(time.perf_counter() - t0)
    probe_after = host_probe()

    attempted = len(walls)
    print(f"host_probe_s {probe_before:.6f} before, {probe_after:.6f} after (reporting only)")
    tail = tail_percentile(walls)
    tail_text = f", p{tail[0]:g} {tail[1]:.6f}" if tail else ", too few for a tail percentile"
    print(f"wall_s over {attempted} invocations: min {min(walls):.6f}, max {max(walls):.6f}{tail_text}")
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }
    return metrics, attempted, failed, problems


def run_traced(w, seed: int, seconds: float, work: Path, props: dict) -> tuple[dict, int, int, list[str]]:
    import layers

    obj, scen, prefix, expected, problems = prepare(w, seed, work)
    samples: dict[str, list[float]] = {}
    rounds: list[float] = []
    failed = 0
    start = time.perf_counter()
    while keep_going(start, seconds, rounds, 1):
        clear_outputs(w, prefix)
        clear_outputs(w, prefix + "-replay")
        t0 = time.perf_counter()
        values, bad = layers.traced_pass(w, scen, prefix)
        rounds.append(time.perf_counter() - t0)
        hashes, bad_bytes = check_invocation(w, obj, 0, prefix, expected)
        if bad or bad_bytes:
            failed += 1
            problems.extend(bad + bad_bytes)
        elif expected is None:
            expected = hashes
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: statistics.median(vals) for name, vals in samples.items()}
    for name in ("analysis.distinct_windows", "analysis.window_repeat_share"):
        metrics[name] = props[name]
    print(f"traced passes {len(rounds)}, failed {failed}")
    return metrics, len(rounds), failed, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads

    w = workloads.WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "out").mkdir(parents=True)
    try:
        props = properties(w.make(seed))
        print(f"workload {name} seed {seed} trace {int(trace)} properties {json.dumps(props)}")
        reference_problems = check_reference(w, work)
        if trace:
            import layers

            metrics, attempted, failed, problems = run_traced(w, seed, seconds, work, props)
            described = layers.LAYER_METRICS
        else:
            metrics, attempted, failed, problems = run_untraced(w, seed, seconds, work)
            described = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # The reference invocation counts as one more attempt.
    attempted += 1
    failed += bool(reference_problems)
    problems = reference_problems + problems
    print(f"error_rate {failed / attempted:.6g} ratio  ({failed} of {attempted} attempts failed)")
    for metric, (unit, note) in described.items():
        print(f"{metric} {metrics[metric]:.6g} {unit}  ({note})")
    for problem in problems:
        print(f"FAILURE {name}: {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, (unit, _) in described.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "seqclt" / "__init__.py").is_file():
        print(f"error: no seqclt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import seqclt

    if Path(seqclt.__file__).resolve().parent != SRC / "seqclt":
        print(f"error: imported seqclt from {seqclt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown or args.seconds <= 0:
        print(f"error: unknown workload {unknown} or non-positive --seconds", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed

    print(f"env {json.dumps(environment())}")
    results = {name: run_workload(name, seed, args.seconds, bool(args.trace)) for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
