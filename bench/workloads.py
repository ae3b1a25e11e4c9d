"""Benchmark workloads: seeded scenario generators and their input properties.

Each workload is one `seqclt` CLI command on one generated scenario file.
The same (workload, seed) always yields the same scenario bytes; at
DEFAULT_SEED the output bytes are pinned by `fingerprints.json`, and so are
those of each workload's tiny reference scenario (`reference_scenario`).

Why these three (each later optimisation gets one workload that exercises
it and one that bypasses it):

* mc-cos-const2      single-term branch of the orbit kernel, one worker;
                     the operator side is idle.
* mc-f1-p23-w2       multi-term orbit branch, wider bigints, process pool
                     and the samples dump.
* an-rand64-blocks4  long backward walks over few distinct multiplier
                     windows (a window memo hits almost always); the
                     mc-* workloads leave the operator side idle.

Every run times a workload for the same fixed span; the host's speed drifts
over minutes, so fewer, longer runs are steadier than more, shorter ones.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 2718
REFERENCE_N = 64
REFERENCE_SAMPLES = 100


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "simulate" or "analyze"
    threads: int
    dump_samples: bool
    make: Callable[[int], dict]
    outputs: tuple[str, ...]  # suffixes appended to the output prefix


def _coef(freq: int, re: float, im: float = 0.0) -> dict:
    return {"freq": freq, "re": re, "im": im}


def _random_observable(rng: random.Random, degree: int) -> list[dict]:
    """Dense random observable with dyadic coefficients (multiples of 2^-7).

    Dyadic values keep the scenario file exact under JSON round trips; the
    top frequency is forced nonzero so the degree is exactly `degree`.
    """
    out = []
    for freq in range(1, degree + 1):
        re = rng.randint(-64, 64) / 128
        im = rng.randint(-64, 64) / 128
        while freq == degree and re == 0.0 and im == 0.0:
            re = rng.randint(-64, 64) / 128
        out.append(_coef(freq, re, im))
    return out


def _mc_seed(seed: int) -> int:
    return seed % (1 << 64)


def _mc_cos_const2(seed: int) -> dict:
    # demos/scenarios/cos_constant2.json with the Monte Carlo seed taken from
    # the workload seed (identical to the committed file at DEFAULT_SEED).
    return {
        "function": [_coef(1, 0.5)],
        "sequence": {"kind": "constant", "b": 2},
        "n": 1024,
        "samples": 10000,
        "seed": _mc_seed(seed),
        "standardization": "exact",
    }


def _mc_f1_p23(seed: int) -> dict:
    return {
        "function": [_coef(1, -0.5), _coef(2, 0.5)],
        "sequence": {"kind": "periodic", "values": [2, 3]},
        "n": 1024,
        "samples": 6000,
        "seed": _mc_seed(seed),
        "standardization": "empirical",
    }


def _an_rand64_blocks4(seed: int) -> dict:
    rng = random.Random(f"an-rand64-blocks4:{seed}")
    return {
        "function": _random_observable(rng, 64),
        "sequence": {"kind": "blocks", "D": 4},
        "n": 20000,
    }


_MC = (".mc.json",)
_AN = (".csv", ".json", ".svg")

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("mc-cos-const2", "simulate", 1, False, _mc_cos_const2, _MC),
        Workload("mc-f1-p23-w2", "simulate", 2, True, _mc_f1_p23, _MC + (".samples.csv",)),
        Workload("an-rand64-blocks4", "analyze", 1, False, _an_rand64_blocks4, _AN),
    )
}


def scenario_bytes(obj: dict) -> bytes:
    """Canonical bytes of a scenario file (what the program receives)."""
    return (json.dumps(obj, indent=1) + "\n").encode("utf-8")


def reference_scenario(w: Workload) -> dict:
    """The workload at DEFAULT_SEED shrunk to REFERENCE_N steps (and
    REFERENCE_SAMPLES samples): cheap enough to check in every run."""
    obj = dict(w.make(DEFAULT_SEED), n=REFERENCE_N)
    if "samples" in obj:
        obj["samples"] = REFERENCE_SAMPLES
    return obj


def cli_argv(w: Workload, scenario_path: str, out_prefix: str) -> list[str]:
    """Arguments for `seqclt.cli.main` (and `python -m seqclt.cli`)."""
    argv = [w.command, scenario_path, "--out", out_prefix, "--threads", str(w.threads)]
    if w.dump_samples:
        argv.append("--dump-samples")
    return argv


def multipliers(spec, count: int) -> list[int]:
    """a_1 .. a_count of a parsed `seqclt.sequences.SequenceSpec`."""
    return [spec.value_at(k) for k in range(1, count + 1)]


def window_counts(a: list[int], degree: int, n: int) -> tuple[int, float]:
    """Distinct multiplier windows over k = 1..n and the share of repeats.

    u_k, the k-th covariance increment and the angle record at k depend on
    f only through the window: a_k, a_{k-1}, ... while the running product
    stays <= degree (with a flag for reaching index 1), plus a_{k+1}.
    `a` holds a_1 .. a_{n+1}.
    """
    keys = set()
    for k in range(1, n + 1):
        walk = []
        mult = 1
        j = k
        reached_start = True
        while j >= 2:
            mult *= a[j - 1]
            if mult > degree:
                reached_start = False
                break
            walk.append(a[j - 1])
            j -= 1
        keys.add((tuple(walk), reached_start, a[k]))
    return len(keys), (n - len(keys)) / n
