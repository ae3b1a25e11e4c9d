"""Command-line front end: scenario files in, reports (JSON/CSV/SVG) out.

Commands
--------
analyze       variance and transversality curves for (function, sequence, n)
simulate      exact-orbit Monte Carlo summary (requires samples and seed)
coboundary    solve f = (u o T_b) - u for the scenario's function, verified
verify-decay  certified transfer-operator decay over every map word

Exit codes: 0 success; 1 bad input: a value that an input rule rejects
(``_strict.InputError``), wherever that rule runs, such as a number that
``_strict.strict_float`` rejects (a boolean, a string, inf, nan), a
scenario, sequence or coefficient that is not a JSON object, lacks a key
that is read or holds a key that nothing reads, a flag that is missing,
unknown or not read by the command (analyze takes --threads, unread, so that
one command line serves both report commands), an --out prefix that names
the scenario file as one of the command's outputs (nothing is written then),
or an integer that ``_strict.strict_int``, the one integer rule, rejects as
non-integral or out of its bounds: a horizon n outside [1, sys.maxsize],
samples below 2, a seed outside [0, 2^64), a multiplier or a base below 2,
--k < 1 or --threads < 1; 2 I/O failure; 3 internal failure: any other
error, such as a failed consistency check (variance cross-check, decay
bound, or a coboundary result that `coboundary.verify` rejects, which then
prints nothing to stdout), a result that overflows to a non-finite value
(the message names the CSV column and k, or the JSON key), an allocation
beyond memory, or an exception of any other type; 10 coboundary obstruction
(so shell pipelines can branch on the dichotomy).

All real numbers in outputs are printed with 17 significant digits and are
finite (a JSON real keeps its point, as 1.0 and -0.0), and every output
byte is a deterministic function of the inputs and flags.  A CSV is
checked on the text it writes, where only inf, -inf and nan hold an "n";
analyze formats each distinct angle record once, and scales each SVG curve
to its peak, a subnormal one too, without overflow.

Every output is written in chunks of at most _CHUNK_ROWS rows or points to
a temporary file beside it, then renamed over it: an output appears
complete or not at all, and a failed run leaves a previous run's file as
it was.  Beyond the report itself, the CSV and SVG cost one chunk of
memory, whatever n is.  analyze runs every check, the CSV's as it streams,
then the summary's, then the variance cross-check, before any output
appears: a failed cross-check exits 3 and writes nothing.

analyze and coboundary never import numpy; simulate imports it, with
montecarlo, when it runs, and verify-decay through c1_norm only.  No
command calls BLAS (a tier-1 test keeps numpy's BLAS entry points, and the
numpy functions known to reach them, out of src), so `main_entry` gives
OpenBLAS one thread before any command runs: numpy then loads without the
idle thread pool that would cost CPU at start and exit, in this process
and in every worker.  simulate --threads N starts at most min(N, the
CPUs the process may run on, number of 256-sample tiles) worker
processes; N changes wall time only.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict, dataclass

from . import analysis, coboundary
from ._strict import (
    InputError, check_horizon, check_keys, check_standardization, check_u64, strict_int,
)
from .sequences import SequenceSpec, sequence_from_obj
from .trigpoly import TrigPoly, trigpoly_from_obj, trigpoly_to_obj

__all__ = ["Scenario", "scenario_from_obj", "scenario_to_obj", "main", "main_entry"]

EXIT_OK = 0
EXIT_BAD_SCENARIO = 1
EXIT_IO = 2
EXIT_INCONSISTENT = 3
EXIT_OBSTRUCTION = 10


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as bad input (exit 1); argparse
    itself would exit 2, the code of an I/O failure."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


@dataclass(frozen=True)
class Scenario:
    function: TrigPoly
    sequence: SequenceSpec
    n: int
    samples: int | None = None
    seed: int | None = None
    standardization: str = "empirical"


def scenario_from_obj(obj) -> Scenario:
    check_keys(obj, ("function", "sequence", "n"), "scenario",
               ("samples", "seed", "standardization"))
    function = trigpoly_from_obj(obj["function"])
    sequence = sequence_from_obj(obj["sequence"])
    n = check_horizon(obj["n"])
    samples = None if obj.get("samples") is None else strict_int(obj["samples"], "samples", 2)
    seed = None if obj.get("seed") is None else check_u64(obj["seed"], "seed")
    if function.is_zero:
        raise InputError("scenario function must be nonzero")
    standardization = check_standardization(obj.get("standardization", "empirical"))
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
        raise InputError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise InputError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError:  # json.load recurses once per nested object
        raise InputError("scenario file nests too deeply") from None
    try:
        return scenario_from_obj(obj)
    except RecursionError:  # so does sequence_from_obj, once per explicit tail
        raise InputError("scenario sequence nests too deeply") from None


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
    text = _fmt(obj)  # an integral float keeps its point, so that JSON reads it back as a float
    return text + ".0" if isinstance(obj, float) and text.lstrip("-").isdigit() else text


def _check_outputs(args: argparse.Namespace, *paths: str) -> None:
    """Reject an output path that is the scenario file, before anything is
    written: writing it would replace the input the command just read."""
    for path in paths:
        if os.path.exists(path) and os.path.samefile(path, args.scenario):
            raise InputError(f"--out {args.out} would overwrite the scenario file {path}")


def _write_chunks(path: str, chunks) -> None:
    """Write the chunks to a sibling temporary file, then move it over path: path
    holds its old bytes or all the new ones, never a part.  On any exception,
    the chunks' own included, the temporary file is removed."""
    tmp = f"{path}.{os.getpid()}.tmp"
    # created exclusively, with the umask's permissions, as open(path, "w") would create path
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _write_text(path: str, text: str) -> None:
    _write_chunks(path, (text,))


_CHUNK_ROWS = 1024  # CSV rows or SVG points formatted and written at a time


def _csv_text(names, rows) -> Iterator[str]:
    """The rows joined _CHUNK_ROWS at a time, each chunk once its every cell is finite:
    of what "%d" and "%.17g" write, only inf, -inf and nan hold an "n".  A chunk with
    one raises ValueError naming the first such cell by its line k and, through names,
    its column."""
    rows = iter(rows)
    for start in itertools.count(0, _CHUNK_ROWS):
        text = "".join(itertools.islice(rows, _CHUNK_ROWS))
        if not text:
            return
        if "n" in text:
            k, line = next((k, line) for k, line in enumerate(text.splitlines(), start + 1)
                           if "n" in line)
            name, cell = next((name, cell) for name, cell in zip(names, line.split(","))
                              if "n" in cell)
            raise ValueError(f"cannot write the non-finite value {cell} in {name} at k={k}")
        yield text


# ---------------------------------------------------------------------------
# SVG line plots (hand-emitted, dependency-free, deterministic bytes)


def _svg_curves(n: int, curves) -> Iterator[str]:
    """The plot's text in chunks; curves: list of (label, color, values), each
    scaled to its own max and written _CHUNK_ROWS points at a time."""
    width, height = 720, 420
    left, right, top, bottom = 60, 20, 24, 40
    span_x = width - left - right
    span_y = height - top - bottom
    last = max(n - 1, 1)
    yield "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{left + span_x // 2}" y="{height - 10}" font-size="12" '
        f'text-anchor="middle">k (1..{n})</text>\n'])
    for idx, (label, color, values) in enumerate(curves):
        peak = max(map(abs, values), default=0.0)
        scale = span_y / peak if peak > 0 else 0.0
        if scale == math.inf:  # a subnormal peak: scale each value to the peak first
            values, scale = (v / peak for v in values), span_y
        yield f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="'
        values = iter(values)
        for start in range(0, n, _CHUNK_ROWS):
            pairs = ["%.2f,%.2f" % (left + (span_x * i / last), (height - bottom) - v * scale)
                     for i, v in zip(range(start, n), itertools.islice(values, _CHUNK_ROWS))]
            if not pairs:
                break
            yield (" " if start else "") + " ".join(pairs)
        yield (f'"/>\n<text x="{left + 8}" y="{top + 14 + 16 * idx}" font-size="12" '
               f'fill="{color}">{label} (max {_fmt(peak)})</text>\n')
    yield "</svg>\n"


# ---------------------------------------------------------------------------
# commands

_ANALYZE_HEADER = (  # the CSV's first line, and its column names
    "k,u_norm_sq,cos_sq,sin_sq,min_pair_sin_sq,acc_transversality,var_cov_prefix,var_mart_prefix")


def _analyze_csv(report: analysis.VarianceReport) -> Iterator[str]:
    """Row k: record k, its min-pair sine with record k + 1, and the three
    running sums; the last row, which has no record k + 1, leaves two empty."""
    profile, acc, cov, mart = report.per_step, report.acc_curve, report.cov_curve, report.mart_curve
    # indices that share a record share its object: format each distinct (record, next
    # record) once, keyed by identity, as records equal by value may differ in a zero's sign
    cells: dict[tuple[int, int], str] = {}

    def record_cells(rec, nxt) -> str:
        key = (id(rec), id(nxt))
        if key not in cells:
            cells[key] = "%.17g,%.17g,%.17g,%.17g" % (
                rec.u_norm_sq, rec.cos_sq, rec.sin_sq, min(rec.sin_sq, nxt.sin_sq))
        return cells[key]

    n, last = report.n, profile[-1]
    rows = zip(range(1, n), map(record_cells, profile, itertools.islice(profile, 1, None)),
               acc, cov, mart)
    yield _ANALYZE_HEADER + "\n"
    yield from _csv_text(_ANALYZE_HEADER.split(","), itertools.chain(
        map("%d,%s,%.17g,%.17g,%.17g\n".__mod__, rows),
        ["%d,%.17g,%.17g,%.17g,,,%.17g,%.17g\n"  # no record k + 1: two empty cells
         % (n, last.u_norm_sq, last.cos_sq, last.sin_sq, cov[-1], mart[-1])]))


def cmd_analyze(scenario: Scenario, args: argparse.Namespace) -> int:
    csv_path, json_path, svg_path = paths = [args.out + s for s in (".csv", ".json", ".svg")]
    _check_outputs(args, *paths)
    n = scenario.n
    report = analysis.variance_report(scenario.function, scenario.sequence, n)
    summary = None

    def csv_then_summary():
        # every check runs before the CSV is moved into place: the CSV's as it is written,
        # then the summary's, then the variance cross-check, so that no output appears,
        # and the CSV's message comes first
        nonlocal summary
        yield from _analyze_csv(report)
        summary = _dumps({
            "n": n,
            "var_cov": report.var_cov,
            "var_mart": report.var_mart,
            "acc_transversality": report.acc_transversality,
        })
        if not report.consistent():
            raise ValueError(f"variance cross-check failed: cov={report.var_cov!r} "
                             f"mart={report.var_mart!r}")

    _write_chunks(csv_path, csv_then_summary())
    _write_text(json_path, summary + "\n")
    _write_chunks(svg_path, _svg_curves(n, [
        ("Var(S_k)", "#1f77b4", report.cov_curve),
        ("accumulated transversality", "#d62728", report.acc_curve or [0.0]),
    ]))
    return EXIT_OK


def cmd_simulate(scenario: Scenario, args: argparse.Namespace) -> int:
    if scenario.samples is None or scenario.seed is None:
        raise InputError("simulate needs 'samples' and 'seed' in the scenario")
    mc_path, samples_path = args.out + ".mc.json", args.out + ".samples.csv"
    _check_outputs(args, mc_path, *([samples_path] if args.dump_samples else []))
    from . import montecarlo  # and numpy, which analyze and coboundary never import
    f, spec, n = scenario.function, scenario.sequence, scenario.n
    sums = montecarlo.birkhoff_samples(
        f, spec, n, scenario.samples, scenario.seed, args.threads
    )
    report = montecarlo.report_from_samples(
        sums, f, spec, n, scenario.seed, scenario.standardization
    )
    _write_text(mc_path, _dumps(asdict(report)) + "\n")
    if args.dump_samples:
        _write_chunks(samples_path, _csv_text(["sample"], map("%.17g\n".__mod__, sums)))
    return EXIT_OK


def cmd_coboundary(scenario: Scenario, args: argparse.Namespace) -> int:
    result = coboundary.solve(scenario.function, args.base)
    if not coboundary.verify(scenario.function, args.base, result):
        raise ValueError(f"the coboundary {result.status} fails its independent check")
    print(_dumps(coboundary.result_to_obj(result)))
    return EXIT_OK if result.solvable else EXIT_OBSTRUCTION


def cmd_verify_decay(scenario: Scenario, args: argparse.Namespace) -> int:
    worst, _ = analysis.decay_certificate(scenario.function, args.k)
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
    sub.add_parser("analyze", parents=[report]).set_defaults(run=cmd_analyze)
    p_sim = sub.add_parser("simulate", parents=[report])
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("--dump-samples", action="store_true")
    p_cob = sub.add_parser("coboundary", parents=[scenario])
    p_cob.set_defaults(run=cmd_coboundary)
    p_cob.add_argument("--base", type=int, required=True, metavar="B")
    p_dec = sub.add_parser("verify-decay", parents=[scenario])
    p_dec.set_defaults(run=cmd_verify_decay)
    p_dec.add_argument("--k", type=int, required=True, metavar="K")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; --help exits 0 itself."""
    try:
        args = _build_parser().parse_args(argv)
        strict_int(getattr(args, "threads", 1), "--threads", 1)
        return args.run(_load_scenario(args.scenario), args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SCENARIO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OverflowError as exc:  # e.g. an fsum whose running sum leaves float range
        print(f"error: overflow: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except MemoryError as exc:  # e.g. c1_norm's grid for a degree beyond memory
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except Exception as exc:  # any other failure is internal too, never bad input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def main_entry() -> None:
    """The `seqclt` script and `python -m seqclt.cli`: run main, exit with its code.

    seqclt calls no BLAS, so OpenBLAS, loaded with numpy, gets one
    thread: it starts no pool, here or in a worker, which inherits the
    environment."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
