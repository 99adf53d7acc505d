"""Differential test: this tree against the frozen copy in perfbench/reference.

Both trees run through `python -m godeaux.cli` in subprocesses, with only the
tree's own source directory on PYTHONPATH. Every output must be identical,
apart from the `timing_ms` field of JSON reports. The frozen copy is read,
never written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = {"program": ROOT / "src", "reference": ROOT / "perfbench" / "reference"}

if not (TREES["reference"] / "godeaux" / "cli.py").is_file():
    pytest.skip("frozen reference tree not present", allow_module_level=True)

# One cubic relation of weight 0 with coefficients in Q(z5).
Z5_RING = """\
field Q(z5)
torsion_order 5
x1 1 1
x2 1 2
x3 1 3
x4 1 4
rel x1^2*x3 + z5*x1*x2^2 - (z5^2 - 1/2)*x3^2*x4 + 3*x2*x4^2
"""


def run_both(args, tmp_path, files=()):
    """Run the CLI on both trees in sibling directories; return, per tree,
    the exit code, stdout, stderr and the bytes of the named output files."""
    results = {}
    for tree, src in TREES.items():
        workdir = tmp_path / tree
        workdir.mkdir()
        (workdir / "z5.ring").write_text(Z5_RING)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
        proc = subprocess.run(
            [sys.executable, "-m", "godeaux.cli", *args],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=300,
        )
        outputs = {name: (workdir / name).read_bytes() for name in files}
        results[tree] = (proc.returncode, proc.stdout, proc.stderr, outputs)
    return results["program"], results["reference"]


def without_timing(text):
    payload = json.loads(text)
    payload.pop("timing_ms")
    return payload


@pytest.mark.parametrize(
    "args",
    [
        ["--scenario", "z3", "--mode", "both", "--max-degree", "8"],
        ["--scenario", "z4", "--max-degree", "8"],
        ["--scenario", "z5"],
        ["--scenario", "sc", "--max-degree", "10"],
        # The benchmark's sc-census pass.
        ["--scenario", "sc", "--max-degree", "11"],
        # Fraction relations take the row spaces' denominator-clearing path.
        ["--scenario", "z3", "--mode", "both", "--max-degree", "10",
         "--alpha=3/2", "--beta=-7", "--gamma=2/3"],
    ],
    ids=["z3", "z4", "z5", "sc", "sc-census", "z3-fractions"],
)
def test_verify_reports_match(args, tmp_path):
    ours, ref = run_both(["verify", *args, "--format", "json"], tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert without_timing(ours[1]) == without_timing(ref[1])


@pytest.mark.parametrize("preset", ["z3", "z4", "z5", "z5-invariants", "sc"])
def test_hilbert_presets_match(preset, tmp_path):
    ours, ref = run_both(["hilbert", "--preset", preset, "--max-degree", "10"], tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


def test_hilbert_cyclotomic_ring_file_matches(tmp_path):
    ours, ref = run_both(
        ["hilbert", "--ring", "z5.ring", "--max-degree", "10", "--format", "json"], tmp_path
    )
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


def test_sc_build_outputs_match(tmp_path):
    # Relation lists depend on pivot order, so this pins it.
    files = ("gens.txt", "pres.json")
    ours, ref = run_both(
        ["sc-build", "--max-degree", "11", "--generators-out", files[0], "--report", files[1]],
        tmp_path,
        files,
    )
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]
