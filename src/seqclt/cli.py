"""Command-line front end: scenario files in, reports (JSON/CSV/SVG) out.

Commands
--------
analyze       variance and transversality curves for (function, sequence, n)
simulate      exact-orbit Monte Carlo summary (requires samples and seed)
coboundary    solve f = (u o T_b) - u for the scenario's function
verify-decay  certified transfer-operator decay over random map words

Exit codes: 0 success; 1 malformed scenario or arguments (a non-finite
number, a boolean or string where a number belongs, non-integral where an
integer belongs, seed outside [0, 2^64), --threads < 1, a flag that is
missing, unknown or not read by the command); 2 I/O failure;
3 internal failure: a consistency check (variance cross-check or decay
bound) or an error raised while computing, such as a result that overflows
to a non-finite value (the message names the CSV column and k, or the JSON
key) or an allocation beyond memory; 10 coboundary obstruction (so shell pipelines can branch on the
dichotomy).

All real numbers in outputs are printed with 17 significant digits and are
finite, and every output byte is a deterministic function of the inputs and
flags.  simulate --threads N starts at most min(N, cpu count, samples)
worker processes; N changes wall time only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass

from . import analysis, coboundary, montecarlo
from ._strict import check_u64, strict_int
from .sequences import SequenceSpec, sequence_from_obj
from .trigpoly import TrigPoly, trigpoly_from_obj, trigpoly_to_obj

__all__ = ["Scenario", "scenario_from_obj", "scenario_to_obj", "main", "main_entry"]

EXIT_OK = 0
EXIT_BAD_SCENARIO = 1
EXIT_IO = 2
EXIT_INCONSISTENT = 3
EXIT_OBSTRUCTION = 10


class ScenarioError(ValueError):
    """Scenario file or command line failed to parse or validate."""


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as bad input (exit 1); argparse
    itself would exit 2, the code of an I/O failure."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class Scenario:
    function: TrigPoly
    sequence: SequenceSpec
    n: int
    samples: int | None = None
    seed: int | None = None
    standardization: str = "empirical"


def _check_seed(seed: int) -> None:
    try:
        check_u64(seed, "seed")
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def scenario_from_obj(obj) -> Scenario:
    if not isinstance(obj, dict):
        raise ScenarioError("scenario must be a JSON object")
    try:
        function = trigpoly_from_obj(obj["function"])
        sequence = sequence_from_obj(obj["sequence"])
        n = strict_int(obj["n"], "n")
        samples = None if obj.get("samples") is None else strict_int(obj["samples"], "samples")
        seed = None if obj.get("seed") is None else strict_int(obj["seed"], "seed")
    except (KeyError, ValueError, TypeError) as exc:
        raise ScenarioError(f"bad scenario: {exc}") from exc
    if function.is_zero:
        raise ScenarioError("scenario function must be nonzero")
    if n < 1:
        raise ScenarioError("scenario horizon n must be >= 1")
    if samples is not None and samples < 2:
        raise ScenarioError("samples must be >= 2")
    if seed is not None:
        _check_seed(seed)
    standardization = obj.get("standardization", "empirical")
    if standardization not in ("empirical", "exact"):
        raise ScenarioError(f"unknown standardization {standardization!r}")
    return Scenario(function, sequence, n, samples, seed, standardization)


def scenario_to_obj(scenario: Scenario) -> dict:
    obj = {
        "function": trigpoly_to_obj(scenario.function),
        "sequence": scenario.sequence.to_obj(),
        "n": scenario.n,
    }
    if scenario.samples is not None:
        obj["samples"] = scenario.samples
    if scenario.seed is not None:
        obj["seed"] = scenario.seed
    obj["standardization"] = scenario.standardization
    return obj


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError:  # json.load recurses once per nested object
        raise ScenarioError("scenario file nests too deeply") from None
    try:
        return scenario_from_obj(obj)
    except RecursionError:  # so does sequence_from_obj, once per explicit tail
        raise ScenarioError("scenario sequence nests too deeply") from None


# ---------------------------------------------------------------------------
# deterministic serialisation helpers (17 significant digits everywhere)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot write the non-finite value {x!r}")
    return f"{x:.17g}"


def _dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = []
        for k, v in obj.items():
            try:
                rows.append(f'{pad}  {json.dumps(k)}: {_dumps(v, indent + 1)}')
            except ValueError as exc:
                raise ValueError(f"{exc} in {k}") from None
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(_dumps(v, indent + 1) for v in obj)
        return f"[{inner}]"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    return _fmt(obj)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# SVG line plots (hand-emitted, dependency-free, deterministic bytes)


def _svg_polyline(points, color: str) -> str:
    coords = " ".join(f"{px:.2f},{py:.2f}" for px, py in points)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{coords}"/>'


def _svg_curves(path: str, n: int, curves) -> None:
    """curves: list of (label, color, values); each scaled to its own max."""
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
        parts.append(_svg_polyline(pts, color))
        parts.append(
            f'<text x="{left + 8}" y="{top + 14 + 16 * idx}" font-size="12" '
            f'fill="{color}">{label} (max {_fmt(peak)})</text>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# commands

_CSV_COLUMNS = (
    "u_norm_sq", "cos_sq", "sin_sq", "min_pair_sin_sq", "acc_transversality",
    "var_cov_prefix", "var_mart_prefix",
)


def _csv_row(k: int, cells) -> str:
    """Row k of the analyze CSV; None is an empty cell."""
    try:
        return f"{k}," + ",".join(["" if c is None else _fmt(c) for c in cells])
    except ValueError as exc:
        bad = next(
            name for name, c in zip(_CSV_COLUMNS, cells)
            if c is not None and not math.isfinite(c)
        )
        raise ValueError(f"{exc} in {bad} at k={k}") from None


def cmd_analyze(scenario: Scenario, out_prefix: str) -> int:
    n = scenario.n
    report = analysis.variance_report(scenario.function, scenario.sequence, n)
    profile, acc_curve = report.per_step, report.acc_curve
    lines = ["k," + ",".join(_CSV_COLUMNS)]
    for k in range(1, n + 1):
        rec = profile[k - 1]
        last = k == n
        lines.append(_csv_row(k, (
            rec.u_norm_sq, rec.cos_sq, rec.sin_sq,
            None if last else min(rec.sin_sq, profile[k].sin_sq),
            None if last else acc_curve[k - 1],
            report.cov_curve[k - 1], report.mart_curve[k - 1],
        )))
    summary = _dumps({
        "n": n,
        "var_cov": report.var_cov,
        "var_mart": report.var_mart,
        "acc_transversality": report.acc_transversality,
    })
    _write_text(out_prefix + ".csv", "\n".join(lines) + "\n")
    _write_text(out_prefix + ".json", summary + "\n")
    _svg_curves(
        out_prefix + ".svg",
        n,
        [
            ("Var(S_k)", "#1f77b4", report.cov_curve),
            ("accumulated transversality", "#d62728", acc_curve or [0.0]),
        ],
    )
    if not report.consistent():
        print(
            f"variance cross-check failed: cov={report.var_cov!r} "
            f"mart={report.var_mart!r}",
            file=sys.stderr,
        )
        return EXIT_INCONSISTENT
    return EXIT_OK


def cmd_simulate(
    scenario: Scenario, out_prefix: str, threads: int, dump_samples: bool
) -> int:
    if scenario.samples is None or scenario.seed is None:
        raise ScenarioError("simulate needs 'samples' and 'seed' in the scenario")
    f, spec, n = scenario.function, scenario.sequence, scenario.n
    sums = montecarlo.birkhoff_samples(
        f, spec, n, scenario.samples, scenario.seed, threads
    )
    report = montecarlo.report_from_samples(
        sums, f, spec, n, scenario.seed, scenario.standardization
    )
    _write_text(out_prefix + ".mc.json", _dumps(asdict(report)) + "\n")
    if dump_samples:
        _write_text(out_prefix + ".samples.csv", "\n".join(_fmt(s) for s in sums) + "\n")
    return EXIT_OK


def cmd_coboundary(scenario: Scenario, base: int) -> int:
    if base < 2:
        raise ScenarioError(f"base must be >= 2, got {base}")
    result = coboundary.solve(scenario.function, base)
    print(_dumps(coboundary.result_to_obj(result)))
    return EXIT_OK if result.solvable else EXIT_OBSTRUCTION


def cmd_verify_decay(scenario: Scenario, k: int, trials: int, seed: int) -> int:
    if k < 1 or trials < 1:
        raise ScenarioError("verify-decay needs --k >= 1 and --trials >= 1")
    _check_seed(seed)
    f = scenario.function
    worst = 0.0
    for trial in range(trials):
        gen = montecarlo.counter_generator(seed, trial)
        word = [int(v) for v in gen.integers(2, 11, size=k)]
        report = analysis.verify_decay(f, word)
        trial_worst = max(report.ratios)
        if trial_worst > worst:
            worst = trial_worst
    print(f"worst ratio: {_fmt(worst)}")
    return EXIT_OK if worst <= 1.0 else EXIT_INCONSISTENT


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="seqclt",
        description="Exact variance, coboundary and Monte Carlo analysis of "
        "time-dependent expanding circle maps.",
    )
    # each command takes only the flags it reads; analyze takes --threads
    # as well, so that one command line serves both report commands
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("scenario", help="JSON scenario file")
    report = argparse.ArgumentParser(add_help=False, parents=[scenario])
    report.add_argument("--out", required=True, metavar="PREFIX", help="output path prefix")
    report.add_argument("--threads", type=int, default=1, metavar="N")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", parents=[report])
    p_sim = sub.add_parser("simulate", parents=[report])
    p_sim.add_argument("--dump-samples", action="store_true")
    p_cob = sub.add_parser("coboundary", parents=[scenario])
    p_cob.add_argument("--base", type=int, required=True, metavar="B")
    p_dec = sub.add_parser("verify-decay", parents=[scenario])
    p_dec.add_argument("--k", type=int, required=True, metavar="K")
    p_dec.add_argument("--trials", type=int, required=True, metavar="T")
    p_dec.add_argument("--seed", type=int, required=True, metavar="S")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; --help exits 0 itself."""
    try:
        args = _build_parser().parse_args(argv)
        if getattr(args, "threads", 1) < 1:
            raise ScenarioError(f"--threads must be >= 1, got {args.threads}")
        scenario = _load_scenario(args.scenario)
        if args.command == "analyze":
            return cmd_analyze(scenario, args.out)
        if args.command == "simulate":
            return cmd_simulate(scenario, args.out, args.threads, args.dump_samples)
        if args.command == "coboundary":
            return cmd_coboundary(scenario, args.base)
        if args.command == "verify-decay":
            return cmd_verify_decay(scenario, args.k, args.trials, args.seed)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OverflowError as exc:  # e.g. an fsum whose running sum leaves float range
        print(f"error: overflow: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except MemoryError as exc:  # e.g. verify-decay with a word too long to hold
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
