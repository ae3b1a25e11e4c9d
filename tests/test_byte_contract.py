"""The CLI's output bytes on each benchmark workload's reference scenario.

`bench/fingerprints.json` records the sha256 of every output file the CLI
writes for each workload's tiny reference scenario (`bench/workloads.py`).
A change to any output byte fails here, not only in the benchmark run.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from seqclt import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

FINGERPRINTS = json.loads((BENCH / "fingerprints.json").read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_outputs_match_fingerprints(tmp_path, name):
    w = workloads.WORKLOADS[name]
    recorded = FINGERPRINTS[name]["reference"]
    scenario = workloads.scenario_bytes(workloads.reference_scenario(w))
    assert _sha256(scenario) == recorded["scenario"]
    path = tmp_path / "scenario.json"  # not reference.json, which --out reference writes
    path.write_bytes(scenario)
    prefix = str(tmp_path / "reference")
    assert cli.main(workloads.cli_argv(w, str(path), prefix)) == cli.EXIT_OK
    written = {suffix: _sha256(Path(prefix + suffix).read_bytes()) for suffix in w.outputs}
    assert written == recorded["outputs"]
