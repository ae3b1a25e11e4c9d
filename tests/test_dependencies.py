import ast
import inspect
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from seqclt import _strict, analysis, coboundary, montecarlo, sequences, trigpoly

SRC = Path(__file__).resolve().parents[1] / "src" / "seqclt"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "seqclt"}


def _imported_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_runtime_imports_are_stdlib_or_numpy():
    # no runtime dependency beyond numpy: scipy and the rest are test-only
    sources = sorted(SRC.glob("*.py"))
    assert len(sources) >= 8
    foreign = {
        path.name: sorted(_imported_modules(path) - ALLOWED) for path in sources
    }
    assert {name: mods for name, mods in foreign.items() if mods} == {}


def test_every_imported_name_is_read():
    # no linter runs here: a deletion must not leave its imports behind;
    # __init__ re-exports, so it imports names it never reads
    unread = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - read:
            unread[path.name] = sorted(imported - read)
    assert unread == {}


def test_every_public_name_resolves():
    # an __all__ entry left behind by a deleted function breaks `import *`
    import importlib

    exporting = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"seqclt.{path.stem}".removesuffix(".__init__"))
        names = getattr(module, "__all__", None)
        if names is not None:
            exporting += 1
            assert [name for name in names if not hasattr(module, name)] == [], path.name
    assert exporting >= 6


def _modules_loaded_by(code: str) -> set[str]:
    """Modules in sys.modules after a fresh interpreter runs code."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(out.stdout.split())


def test_analysis_walks_backward_in_one_place():
    # one backward-walk primitive: every transfer in analysis is a step of
    # _backward_images, which ends the walk where the images vanish, and
    # keeps no product bookkeeping of its own: the cut lives in _walks
    tree = ast.parse((SRC / "analysis.py").read_text(encoding="utf-8"))
    callers = {
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call)
        and "transfer" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    }
    assert callers == {"_backward_images"}
    walk = next(stmt for stmt in tree.body if getattr(stmt, "name", None) == "_backward_images")
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(walk)}
    assert "degree" not in names


def test_only_trigpoly_reads_a_functions_coefficients():
    # trigpoly owns the coefficient format (positive frequencies with a
    # Hermitian factor 2, and the exact integer pairs): every other module
    # calls it, coboundary's chain elimination included
    readers = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "coeffs"
    }
    assert readers == {"trigpoly.py"}


def test_montecarlo_runs_one_grain_of_work():
    # one task, a tile of samples: only _tile_sums draws a tile and sums it,
    # for the in-process path and the pool alike; draw_numerator draws one
    # index and orbit_birkhoff sums one orbit, and nothing loops over samples
    tree = ast.parse((SRC / "montecarlo.py").read_text(encoding="utf-8"))

    def users(name, within=ast.AST):
        return {
            getattr(stmt, "name", "<module>")
            for stmt in tree.body
            for scope in ast.walk(stmt)
            if isinstance(scope, within)
            for node in ast.walk(scope)
            if isinstance(node, ast.Name) and node.id == name
        }

    assert users("_draw_numerators") == {"_tile_sums", "draw_numerator"}
    assert users("_orbit_sums") == {"_tile_sums", "orbit_birkhoff"}
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert users("_orbit_sums", loops) == set()


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether a call may open a file for writing: os.open, a method named
    open, fdopen, write_text or write_bytes, or the open builtin in a mode
    that is not a literal read mode."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in ("fdopen", "write_text", "write_bytes") or name == "open" and isinstance(
            func, ast.Attribute):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    return not (mode is None or isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) <= set("rbt"))


def test_cli_opens_files_for_writing_in_one_place():
    # every output goes through _write_chunks, which writes a temporary file and
    # moves it into place, so that an output appears complete or not at all
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    openers = {
        getattr(stmt, "name", "<module>")
        for stmt in tree.body
        for node in ast.walk(stmt)
        if isinstance(node, ast.Call) and _opens_for_writing(node)
    }
    assert openers == {"_write_chunks"}


def test_no_except_clause_catches_key_or_type_errors():
    # check_keys rejects a missing key and a non-object before any field is
    # read, so no parser turns a KeyError or a TypeError into bad input
    catchers = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {getattr(n, "id", None) for n in ast.walk(node.type)}
                if names & {"KeyError", "TypeError"}:
                    catchers.setdefault(path.name, []).append(node.lineno)
    assert catchers == {}


def test_import_leaves_the_process_pool_out():
    assert "concurrent.futures.process" not in _modules_loaded_by("import seqclt")


def test_single_worker_simulate_leaves_numpy_random_out(tmp_path):
    # the orbit kernel draws Philox words itself, and verify-decay checks
    # every word instead of sampling: no command loads numpy.random
    scenario = {
        "function": [{"freq": 1, "re": 0.5, "im": 0.0}],
        "sequence": {"kind": "periodic", "values": [2, 3]},
        "n": 40,
        "samples": 30,
        "seed": 5,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    argv = ["simulate", str(path), "--out", str(tmp_path / "s"), "--threads", "1"]
    modules = _modules_loaded_by(f"from seqclt import cli\nassert cli.main({argv!r}) == 0")
    assert (tmp_path / "s.mc.json").exists()
    assert "numpy.random" not in modules
    assert "concurrent.futures.process" not in modules
    decay = ["verify-decay", str(path), "--k", "20"]
    modules = _modules_loaded_by(f"from seqclt import cli\nassert cli.main({decay!r}) == 0")
    assert "numpy" in modules  # c1_norm's grid
    assert "numpy.random" not in modules and "seqclt.montecarlo" not in modules


_BLAS_NAMES = {
    # numpy's entry points into BLAS, the @ operator among them
    "dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg", "@",
    "vecdot", "matvec", "vecmat",
    # numpy functions that reach BLAS through one of them
    "cov", "corrcoef", "polyfit", "polynomial",
}


def test_library_makes_no_blas_call():
    # main_entry gives OpenBLAS one thread; that costs nothing only while no
    # name above appears here (a numpy function missing from the list could
    # still reach BLAS unseen)
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = set()
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                names = {alias.name for alias in node.names} | set(node.module.split("."))
            elif isinstance(node, ast.Import):
                names = {part for alias in node.names for part in alias.name.split(".")}
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                names = {"@"}
            for name in sorted(names & _BLAS_NAMES):
                calls.setdefault(path.name, []).append((node.lineno, name))
    assert calls == {}


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or os.cpu_count() == 1,
    reason="needs /proc/self/task, and more than one CPU for OpenBLAS to start a pool",
)
def test_commands_that_load_numpy_run_on_one_thread(tmp_path):
    # the process entry pins OpenBLAS to one thread, so numpy starts no idle
    # pool; the count is taken at exit, after the command has run
    path = _write_scenario(tmp_path, samples=30, seed=5)
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    env.pop("OPENBLAS_NUM_THREADS", None)
    code = (
        "import atexit, os, sys\n"
        "atexit.register(lambda: print('threads', len(os.listdir('/proc/self/task'))))\n"
        "from seqclt.cli import main_entry\n"
        "sys.argv[1:] = {argv!r}\n"
        "main_entry()\n"
    )
    for argv in (
        ["simulate", path, "--out", str(tmp_path / "m"), "--threads", "1"],
        ["verify-decay", path, "--k", "3"],
    ):
        out = subprocess.run(
            [sys.executable, "-c", code.format(argv=argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "threads 1", (argv[0], out.stdout)
    assert (tmp_path / "m.mc.json").exists()


def test_input_rules_raise_input_error():
    # one error type marks bad input: the CLI maps it, and it alone, to exit 1
    from seqclt import _strict, cli

    bad_calls = {
        "strict_int": (2.5, "n"),
        "strict_float": (True, "re"),
        "strict_complex": ("0.5", "coefficient"),
        "check_keys": ({"bogus": 1}, ("n",), "scenario"),
        "check_multiplier": (1,),
        "check_u64": (-1, "seed"),
        "check_horizon": (0,),
        "check_standardization": ("exacts",),
    }
    rules = sorted(
        name for name, obj in vars(_strict).items()
        if inspect.isfunction(obj) and obj.__module__ == _strict.__name__
    )
    # shown is the one function here that rejects nothing: it writes what a rule rejected
    assert rules == sorted([*bad_calls, "shown"])
    for name, args in bad_calls.items():
        with pytest.raises(_strict.InputError):
            getattr(_strict, name)(*args)
    assert issubclass(_strict.InputError, ValueError)
    own_classes = [
        name for name, obj in vars(cli).items()
        if inspect.isclass(obj) and obj.__module__ == cli.__name__
        and issubclass(obj, BaseException)
    ]
    assert own_classes == []


def _write_scenario(tmp_path, **extra) -> str:
    scenario = {
        "function": [{"freq": 1, "re": -0.5, "im": 0.0}, {"freq": 2, "re": 0.5, "im": 0.0}],
        "sequence": {"kind": "blocks", "D": 4},
        "n": 40,
        **extra,
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return str(path)


def test_operator_commands_leave_numpy_out(tmp_path):
    # the exact operators are pure Python: only the Monte Carlo commands,
    # c1_norm and the threshold search import numpy.  Their exact sums are
    # Python ints: no command loads fractions or decimal, which would cost
    # every run of it their import
    path = _write_scenario(tmp_path)
    analyze = ["analyze", path, "--out", str(tmp_path / "r")]
    coboundary = ["coboundary", path, "--base", "2"]
    for code in (
        "import seqclt",
        "import seqclt.cli",
        f"from seqclt import cli\nassert cli.main({analyze!r}) == 0",
        f"from seqclt import cli\nassert cli.main({coboundary!r}) == 0",
    ):
        modules = _modules_loaded_by(code)
        assert not modules & {"numpy", "fractions", "decimal"}, code
    assert (tmp_path / "r.csv").exists()
    simulate = ["simulate", _write_scenario(tmp_path, samples=20, seed=3), "--out",
                str(tmp_path / "m"), "--threads", "1"]
    modules = _modules_loaded_by(f"from seqclt import cli\nassert cli.main({simulate!r}) == 0")
    assert "numpy" in modules and not modules & {"fractions", "decimal"}


def test_monte_carlo_names_load_through_the_package():
    # each is montecarlo's own object, loaded on first use, also by `import *`
    code = (
        "import sys, seqclt\n"
        "assert 'seqclt.montecarlo' not in sys.modules\n"
        "import seqclt.montecarlo as mc\n"
        "names = [n for n in seqclt.__all__ if getattr(vars(mc).get(n), '__module__', '') == mc.__name__]\n"
        "assert len(names) == 7, names\n"
        "assert all(getattr(seqclt, n) is getattr(mc, n) for n in names)\n"
        "star = {}\n"
        "exec('from seqclt import *', star)\n"
        "assert all(star[n] is getattr(mc, n) for n in names)\n"
        "assert set(star) - {'__builtins__'} == set(seqclt.__all__)\n"
    )
    assert "numpy" in _modules_loaded_by(code)
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        import seqclt

        seqclt.bogus


def test_monte_carlo_commands_still_run(tmp_path):
    path = _write_scenario(tmp_path, samples=20, seed=3)
    simulate = ["simulate", path, "--out", str(tmp_path / "m"), "--dump-samples"]
    decay = ["verify-decay", path, "--k", "3"]
    code = f"from seqclt import cli\nassert cli.main({simulate!r}) == 0\nassert cli.main({decay!r}) == 0"
    assert "numpy" in _modules_loaded_by(code)
    assert (tmp_path / "m.mc.json").exists() and (tmp_path / "m.samples.csv").exists()


_F = trigpoly.cosine(1)
_ZERO = trigpoly.make_trigpoly([])
_CERT = analysis.ThresholdCert(0.0, 0.5, 0.25, 0.1, 10)
_PROFILE = analysis.angle_profile(_F, sequences.Constant(2), 4)
_KINDS = (
    sequences.Constant(2),
    sequences.Periodic((2, 3)),
    sequences.Explicit((3, 2, 5), sequences.Periodic((2, 3))),
    sequences.Triples(2, 80, 2, 3),
    sequences.Blocks(2),
)
# rejected numbers that a message shows by their value, in a line under 200
# bytes: a long int by a prefix and its digit count, a numpy float32 or
# complex64 by its repr
_SHOWN_NUMBERS = {
    (lambda: trigpoly.cosine(1, 10**400)): "1" + "0" * 39 + "... (401 digits)",
    (lambda: sequences.Blocks(np.float32("inf"))): "np.float32(inf)",
    (lambda: trigpoly.make_trigpoly([(1, np.complex64("nan"))])): "np.complex64(nan+0j)",
}


@pytest.mark.parametrize(
    "call",
    [
        lambda: sequences.Triples(2, 2, 10, 2),
        lambda: sequences.Triples(2, 5, 1, 2),
        lambda: sequences.Blocks(1.0),
        lambda: sequences.Blocks(1.2),
        lambda: sequences.Periodic(()),
        lambda: sequences.Explicit((), sequences.Constant(2)),
        lambda: sequences.Explicit((2,), 3),
        lambda: sequences.Constant(2).value_at(0),
        lambda: sequences.sequence_from_obj({"kind": "fancy"}),
        lambda: sequences.sequence_from_obj({"kind": "constant"}),
        lambda: trigpoly.make_trigpoly([(0, 1.0)]),
        lambda: trigpoly.make_trigpoly([(1, 1.0), (1, 2.0)]),
        lambda: trigpoly.make_trigpoly([(1, float("nan"))]),
        lambda: trigpoly.trigpoly_from_obj("cos"),
        lambda: trigpoly.trigpoly_from_obj([{"freq": 1}]),
        lambda: analysis.u_at(_F, sequences.Constant(2), 0),
        lambda: analysis.accumulated_transversality([], -1),
        lambda: analysis.accumulated_transversality(
            analysis.angle_profile(_F, sequences.Constant(2), 2), 2),
        lambda: analysis.variance_martingale_curve(
            _F, sequences.Constant(2), 3, analysis.angle_profile(_F, sequences.Constant(2), 2)),
        lambda: analysis.verify_decay(_ZERO, [2]),
        lambda: analysis.decay_certificate(_ZERO, 3),
        lambda: analysis.block_shadowing_check(_F, sequences.Constant(3), 0, 5),
        lambda: analysis.block_shadowing_check(_F, sequences.Constant(3), 5, 5),
        lambda: analysis.block_shadowing_check(_F, sequences.Periodic((2, 3)), 2, 5),
        lambda: analysis.example1_threshold(_ZERO),
        lambda: analysis.separation_bound_check(_F, sequences.Constant(3), _CERT, 1),
        lambda: montecarlo.DyadicPoint(0, 0),
        lambda: montecarlo.DyadicPoint(2, 4),
        lambda: montecarlo.orbit_birkhoff(
            _F, sequences.Constant(2), 8, montecarlo.DyadicPoint(8, 1)),
        lambda: montecarlo.birkhoff_samples(_F, sequences.Constant(2), 4, 0, 1),
        lambda: montecarlo.birkhoff_samples(_F, sequences.Constant(2), 4, 4, 1, threads=0),
        lambda: montecarlo.report_from_samples([1.0], _F, sequences.Constant(2), 4, 1),
        lambda: montecarlo.report_from_samples(
            [1.0, 2.0], _F, sequences.Constant(2), 4, 1, "studentized"),
        lambda: montecarlo.sample_birkhoff(_F, sequences.Constant(2), 4, 1, 1),
        lambda: montecarlo.ks_statistic([]),
        lambda: trigpoly.grid_values(trigpoly.cosine(8), 16),
        # values that mean something else than they say are rejected, not coerced;
        # a walk over n = 2.5 would step past 0 and never end
        lambda: next(analysis._walks(sequences.Periodic((2, 3)), 4, 2.5)),
        lambda: analysis.variance_report(_F, sequences.Constant(2), True),
        lambda: analysis.variance_martingale_curve(
            _F, sequences.Constant(2), 2.5, analysis.angle_profile(_F, sequences.Constant(2), 3)),
        lambda: sequences.Blocks("4"),
        lambda: sequences.Blocks(b"4"),
        lambda: trigpoly.make_trigpoly([(1, "0.5")]),
        lambda: trigpoly.make_trigpoly([(1, True)]),
        lambda: sequences.Triples(2, 80, True, 4),
        lambda: montecarlo.DyadicPoint(True, 1),
        lambda: montecarlo.DyadicPoint(64, 1.5),
        lambda: montecarlo.birkhoff_samples(_F, sequences.Constant(2), 4, 4, True),
        lambda: montecarlo.birkhoff_samples(_F, sequences.Constant(2), 4, 4, 1, threads=True),
        lambda: montecarlo.birkhoff_samples(_F, sequences.Constant(2), 4, 2.5, 1),
        lambda: montecarlo.sample_birkhoff(_F, sequences.Constant(2), 4, "4", 1),
        lambda: montecarlo.required_bits(sequences.Constant(2), 2.5),
        lambda: analysis.decay_certificate(_F, 1.5),
        lambda: analysis.accumulated_transversality(_PROFILE, 2.5),
        lambda: analysis.accumulated_transversality(_PROFILE, True),
        lambda: analysis.block_shadowing_check(_F, sequences.Constant(3), 2.5, 5),
        lambda: analysis.block_shadowing_check(_F, sequences.Constant(3), True, 5),
        lambda: analysis.u_at(_F, sequences.Constant(2), 2.5),
        lambda: analysis.u_at(_F, sequences.Constant(2), True),
        lambda: analysis.separation_bound_check(_F, sequences.Constant(11), _CERT, 2.5),
        lambda: trigpoly.grid_values(trigpoly.cosine(1), 8.5),
        lambda: trigpoly.grid_values(trigpoly.cosine(1), True),
        lambda: sequences.Blocks(4).block_start(2.5),
        lambda: sequences.Blocks(4).block_start(True),
        lambda: montecarlo.report_from_samples(
            [1.0, 2.0, 3.0], _F, sequences.Constant(2), True, 1),
        lambda: montecarlo.report_from_samples(
            [1.0, 2.0, 3.0], _F, sequences.Constant(2), 4, 2.5),
        lambda: coboundary.verify(
            _F, 1, coboundary.CoboundaryResult("obstruction", None, 1, 0.5j)),
        lambda: montecarlo.draw_numerator(1, 0, 0),
        lambda: montecarlo.draw_numerator(1, 0, 2.5),
        # a bound past the 4300 digits that str() writes is still one message
        lambda: montecarlo.DyadicPoint(20_000, 1 << 20_000),
        # a word that is not iterable is rejected before it is iterated
        lambda: sequences.Periodic(5),
        lambda: sequences.Explicit(5, sequences.Constant(2)),
        # a rejected int of over 4300 digits, which repr() refuses, is still shown
        lambda: sequences.Periodic(10**5000),
        lambda: sequences.Blocks(10**5000),
        lambda: _strict.strict_float(10**5000, "re"),
        lambda: _strict.strict_complex(10**5000, "c"),
        lambda: trigpoly.make_trigpoly([(1, 10**5000)]),
        lambda: _strict.strict_int(Fraction(10**5000, 3), "n"),
        # a sequence index is an integer too, on every kind
        *(lambda spec=spec, k=k: spec.value_at(k) for spec in _KINDS for k in (2.5, True)),
        # every real argument is a finite number, read once by one rule
        *(lambda s=s: trigpoly.linear_combine([(s, _F)])
          for s in ("2", True, math.nan, math.inf, 1j, 10**400)),
        *(lambda a=a: trigpoly.cosine(1, a) for a in (True, "2", 1j, 10**400)),
        *(lambda x=x: trigpoly.evaluate(_F, x)
          for x in (True, "0.25", math.inf, math.nan, 10**400)),
        lambda: trigpoly.evaluate(_ZERO, True),
        lambda: sequences.Triples(2, 80, 10, 2).spike_positions(True),
        lambda: sequences.Triples(2, 80, 10, 2).spike_positions("x"),
        *_SHOWN_NUMBERS,
    ],
    ids=[
        "spike", "spikes-overlap", "blocks-D=1", "blocks-overlap", "empty-word",
        "empty-head", "bad-tail", "index-0", "bad-kind", "missing-field",
        "frequency-0", "duplicate-frequency", "non-finite", "not-an-array", "bad-entry",
        "u_at-index-0", "N<0", "profile-short-for-N", "profile-short-for-n",
        "decay-zero-f", "certificate-zero-f", "K<1", "run-before-1", "run-not-constant",
        "threshold-zero-f",
        "multiplier<=L", "dyadic-bits", "dyadic-numerator", "x0-bits", "m<1", "threads<1",
        "report-m<2", "standardization", "sample-m<2", "ks-empty", "grid-too-small",
        "horizon-2.5", "horizon-true", "profile-horizon-2.5", "blocks-D-str", "blocks-D-bytes",
        "coefficient-str", "coefficient-true", "triples-p0-true", "dyadic-bits-true",
        "dyadic-numerator-1.5", "seed-true", "threads-true", "m-2.5", "sample-m-str",
        "required-bits-2.5", "certificate-k-1.5", "N-2.5", "N-true", "K-2.5", "K-true",
        "u_at-2.5", "u_at-true", "separation-k-2.5", "grid-8.5", "grid-true",
        "block-start-2.5", "block-start-true", "report-n-true", "report-seed-2.5",
        "verify-base-1", "draw-bits-0", "draw-bits-2.5", "dyadic-numerator-wide",
        "periodic-word-int", "explicit-head-int",
        "periodic-word-wide-int", "blocks-D-wide-int", "float-wide-int", "complex-wide-int",
        "coefficient-wide-int", "int-wide-fraction",
        *(f"value_at-{spec.kind}-{k}" for spec in _KINDS for k in (2.5, True)),
        *(f"scalar-{s}" for s in ("str", "true", "nan", "inf", "complex", "wide-int")),
        *(f"amplitude-{a}" for a in ("true", "str", "complex", "wide-int")),
        *(f"evaluate-x-{x}" for x in ("true", "str", "inf", "nan", "wide-int")),
        "evaluate-zero-x-true", "spike-limit-true", "spike-limit-str",
        "amplitude-401-digits", "blocks-D-float32-inf", "coefficient-complex64-nan",
    ],
)
def test_library_input_rules_raise_input_error(call):
    # a library caller tells bad input from a failed computation by its type
    with pytest.raises(_strict.InputError) as info:
        call()
    if call in _SHOWN_NUMBERS:
        message = str(info.value)
        assert len(message.encode()) < 200 and _SHOWN_NUMBERS[call] in message, message


_RECORD = "a result record: the library builds it from values its rules have read"
# public callables whose numeric parameters read no rule, each with its reason
_NUMERIC_RULE_EXEMPT = {
    **dict.fromkeys((
        "seqclt.analysis.AngleRecord", "seqclt.trigpoly.C1Norm", "seqclt.analysis.ThresholdCert",
        "seqclt.analysis.DecayReport", "seqclt.analysis.VarianceReport",
        "seqclt.montecarlo.MCReport", "seqclt.coboundary.CoboundaryResult", "seqclt.cli.Scenario",
    ), _RECORD),
    "seqclt.montecarlo.normal_cdf": "it reads a sample of the kernel: a non-finite sample is "
                                    "an internal failure (exit 3), not bad input (exit 1)",
}
# valid arguments of every other public callable with a numeric parameter
_NUMERIC_VALID = {
    "seqclt.analysis.accumulated_transversality": dict(profile=_PROFILE, N=2),
    "seqclt.analysis.angle_profile": dict(f=_F, spec=sequences.Constant(2), n=3),
    "seqclt.analysis.block_shadowing_check": dict(f=_F, spec=sequences.Constant(3), K=2, k=5),
    "seqclt.analysis.decay_certificate": dict(f=_F, k=2),
    "seqclt.analysis.neumann_sum": dict(f=_F, b=2),
    "seqclt.analysis.separation_bound_check": dict(
        f=_F, spec=sequences.Constant(11), cert=_CERT, k=2),
    "seqclt.analysis.u_at": dict(f=_F, spec=sequences.Constant(2), k=2),
    **{f"seqclt.analysis.{name}": dict(f=_F, spec=sequences.Constant(2), n=3) for name in (
        "u_sequence", "variance_covariance", "variance_covariance_curve",
        "variance_martingale", "variance_martingale_curve", "variance_report")},
    "seqclt.coboundary.solve": dict(f=_F, b=2),
    "seqclt.coboundary.verify": dict(f=_F, b=2, result=coboundary.solve(_F, 2)),
    "seqclt.montecarlo.DyadicPoint": dict(bits=8, numerator=1),
    "seqclt.montecarlo.birkhoff_samples": dict(
        f=_F, spec=sequences.Constant(2), n=4, m=4, seed=1, threads=1),
    "seqclt.montecarlo.draw_numerator": dict(seed=1, index=0, bits=8),
    "seqclt.montecarlo.orbit_birkhoff": dict(
        f=_F, spec=sequences.Constant(2), n=4, x0=montecarlo.DyadicPoint(64, 1)),
    "seqclt.montecarlo.report_from_samples": dict(
        sums=[1.0, 2.0, 3.0], f=_F, spec=sequences.Constant(2), n=4, seed=1),
    "seqclt.montecarlo.required_bits": dict(spec=sequences.Constant(2), n=4),
    "seqclt.montecarlo.sample_birkhoff": dict(
        f=_F, spec=sequences.Constant(2), n=4, m=4, seed=1, threads=1),
    "seqclt.sequences.Blocks": dict(D=2),
    "seqclt.sequences.Blocks.block_start": dict(l=2),
    "seqclt.sequences.Constant": dict(b=2),
    "seqclt.sequences.Triples": dict(b0=2, B=80, p0=2, r=3),
    "seqclt.sequences.Triples.spike_positions": dict(limit=100),
    **{f"seqclt.sequences.{type(spec).__name__}.value_at": dict(k=2) for spec in _KINDS},
    "seqclt.sequences.generate": dict(spec=sequences.Constant(2), k=2),
    "seqclt.trigpoly.cosine": dict(n=1, amplitude=1.0),
    "seqclt.trigpoly.evaluate": dict(g=_F, x=0.25),
    "seqclt.trigpoly.grid_values": dict(g=_F, size=8),
    **{f"seqclt.trigpoly.{name}": dict(a=2, g=_F)
       for name in ("koopman", "transfer", "project_measurable")},
}


def _numeric_parameters() -> dict:
    """{name: (callable, its parameters annotated int, float or complex)} over the
    package's and each module's __all__ and the public methods of the sequence
    kinds and DyadicPoint, each method bound to an instance."""
    import seqclt
    from seqclt import cli

    callables = {}
    for module in (seqclt, analysis, cli, coboundary, montecarlo, sequences, trigpoly):
        for name in module.__all__:
            obj = getattr(module, name)
            if callable(obj):
                callables[f"{obj.__module__}.{obj.__qualname__}"] = obj
    for instance in (*_KINDS, montecarlo.DyadicPoint(8, 1)):
        cls = type(instance)
        for name, method in inspect.getmembers(instance, inspect.ismethod):
            if not name.startswith("_"):
                callables[f"{cls.__module__}.{cls.__name__}.{name}"] = method
    found = {}
    for key, obj in callables.items():
        names = [
            name for name, param in inspect.signature(obj).parameters.items()
            if str(param.annotation).removesuffix(" | None") in ("int", "float", "complex")
        ]
        if names:
            found[key] = (obj, names)
    return found


def test_every_numeric_parameter_has_its_rule():
    # a boolean or a string where a number belongs is rejected, never read as one
    found = _numeric_parameters()
    for key in _NUMERIC_RULE_EXEMPT:  # an exemption names a public object
        module, _, name = key.rpartition(".")
        assert name in sys.modules[module].__all__, key
    assert sorted(found.keys() - _NUMERIC_RULE_EXEMPT.keys()) == sorted(_NUMERIC_VALID)
    accepted = []
    for key, valid in _NUMERIC_VALID.items():
        call, names = found[key]
        call(**valid)
        for name in names:
            for bad in (True, "2"):
                try:
                    call(**{**valid, name: bad})
                except _strict.InputError:
                    continue
                except Exception as exc:  # any other type is a rule missing: named below
                    accepted.append(f"{key}({name}={bad!r}) raised {type(exc).__name__}")
                else:
                    accepted.append(f"{key}({name}={bad!r}) returned")
    # linear_combine's scalar has no annotation
    for bad in (True, "2"):
        try:
            trigpoly.linear_combine([(bad, _F)])
        except _strict.InputError:
            continue
        accepted.append(f"seqclt.trigpoly.linear_combine(scalar={bad!r}) returned")
    assert accepted == []


def test_numpy_integers_and_integral_floats_read_as_ints():
    # one integer rule: each reads as the int it equals, in results and in fields
    import numpy as np

    f = trigpoly.make_trigpoly([(1, 0.5), (3, 0.25j), (6, -1.0), (12, 0.125)])
    assert sequences.Constant(np.int64(2)) == sequences.Constant(2)
    assert type(sequences.Constant(2.0).b) is int
    assert sequences.Periodic((2.0, np.int32(3))).values == (2, 3)
    assert all(type(v) is int for v in sequences.Periodic((2.0, np.int32(3))).values)
    triples = sequences.Triples(np.int64(2), 80.0, np.uint8(10), 2.0)
    assert triples == sequences.Triples(2, 80, 10, 2)
    assert all(type(v) is int for v in vars(triples).values())
    spec = sequences.sequence_from_obj({"kind": "periodic", "values": [2.0, 3]})
    assert spec == sequences.Periodic((2, 3)) and spec.to_obj()["values"] == [2, 3]
    for spec in _KINDS:
        assert spec.value_at(3.0) == spec.value_at(np.int64(3)) == spec.value_at(3), spec
    for op in (trigpoly.koopman, trigpoly.transfer, trigpoly.project_measurable):
        image = op(np.int64(3), f)
        assert image == op(3, f) and all(type(n) is int for n, _ in image.coeffs)
    assert coboundary.solve(f, np.int64(2)) == coboundary.solve(f, 2)
    assert analysis.verify_decay(f, [np.int64(2)]) == analysis.verify_decay(f, [2])
    point = montecarlo.DyadicPoint(np.int64(64), 5.0)
    assert point == montecarlo.DyadicPoint(64, 5) and type(point.numerator) is int
    report = montecarlo.report_from_samples(
        [1.0, 2.0, 3.0], _F, sequences.Constant(2), np.int64(4), 7.0)
    assert (type(report.n), type(report.seed)) == (int, int)


@pytest.mark.parametrize(
    "call, message",
    [
        # an arc of length 2^-10 spans a full period of cos(2 pi 2000 x)
        (lambda: analysis.example1_threshold(trigpoly.cosine(2000)), "no separated arc pair"),
        # Var(S_8) of an amplitude of 1e-200 underflows to 0.0
        (lambda: montecarlo.report_from_samples(
            [1.0, 2.0], trigpoly.cosine(1, 1e-200), sequences.Constant(2), 8, 1, "exact"),
         "exact variance"),
    ],
    ids=["no-arc-pair", "zero-exact-variance"],
)
def test_failed_computations_stay_plain_value_errors(call, message):
    # valid arguments, failed computation: not bad input
    with pytest.raises(ValueError, match=message) as exc:
        call()
    assert not isinstance(exc.value, _strict.InputError)
