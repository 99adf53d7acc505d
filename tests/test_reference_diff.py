"""Differential test: this tree against the frozen copy in perfbench/reference.

Both trees run through `python -m godeaux.cli` (or one `python -c` program)
in subprocesses, with only the tree's own source directory on PYTHONPATH.
Every output must be identical, apart from the `timing_ms` field of JSON
reports. The frozen copy is read, never written.
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


# The ring of the benchmark's cyclo-z5 workload at seed 1: the quintic of the
# five planes and a seeded cubic over Q(z5).
CYCLO_Z5_RING = """\
field Q(z5)
torsion_order 5
x1 1 1
x2 1 2
x3 1 3
x4 1 4
rel (x1 + x2 + x3 + x4)*(z5*x1 + z5^2*x2 + z5^3*x3 + z5^4*x4)*(z5^2*x1 + z5^4*x2 + z5*x3 + z5^3*x4)*(z5^3*x1 + z5*x2 + z5^4*x3 + z5^2*x4)*(z5^4*x1 + z5^3*x2 + z5^2*x3 + z5*x4)
rel (-3 + 4*z5 - 4*z5^2 - z5^3)*x3^3 + (-4 + 2*z5 + 2*z5^2 + 2*z5^3)*x2*x3*x4 + (5 + z5 - 2*z5^2 - 4*z5^3)*x1*x4^2 + (2 - 5*z5 + z5^2 + z5^3)*x1^2*x2
"""


# No relations, and a degree-0 variable, which monomials carry at exponent
# at most 1.
FREE_RING = """\
torsion_order 3
x 1 0
y 1 1
z 2 2
t 0 1
"""


# Relation lines that do not parse, each with its own error and position.
BAD_RELATIONS = {"dangling-power": "a^ + 1", "zero-denominator": "1/0*a",
                 "unclosed": "(a + b", "double-sign": "a + + b"}

# Every polynomial of every fixture, as its list of (exponents, coefficient)
# pairs in the key order the parser left, coefficient types included.
FIXTURE_TERMS = """
from godeaux.scenarios import fixtures as f
dump = lambda p: repr(list(p.terms.items()))
for name in ("z3", "z4", "z5", "sc"):
    print(repr(f.descriptor(name)))
for name, deg, wt, p in f.z3_relations():
    print(name, deg, wt, dump(p))
print(repr(sorted(f.z3_claimed_bases().items())))
for p in [*f.z5_planes(), f.sc_conic(), *f.sc_claimed_generators()]:
    print(dump(p))
for images in (f.sc_restriction(), f.sc_involution()):
    for var, p in images.items():
        print(var, dump(p))
"""


def run_both(args, tmp_path, files=(), module=("-m", "godeaux.cli")):
    """Run the CLI (or the given `-c` program) on both trees in sibling
    directories; return, per tree, the exit code, stdout, stderr and the
    bytes of the named output files."""
    results = {}
    for tree, src in TREES.items():
        workdir = tmp_path / tree
        workdir.mkdir()
        (workdir / "z5.ring").write_text(Z5_RING)
        (workdir / "cyclo_z5.ring").write_text(CYCLO_Z5_RING)
        (workdir / "free.ring").write_text(FREE_RING)
        for name, rel in BAD_RELATIONS.items():
            (workdir / f"{name}.ring").write_text(f"a 1 0\nb 1 0\nrel {rel}\n")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
        proc = subprocess.run(
            [sys.executable, *module, *args],
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
        # The benchmark's z3-tables pass at seed 1.
        ["--scenario", "z3", "--mode", "both", "--max-degree", "12", "--seed", "140892",
         "--alpha=16", "--beta=-4", "--gamma=11/2"],
        # Past the last relations the census computes no kernel at all.
        pytest.param(["--scenario", "sc", "--max-degree", "13"], marks=pytest.mark.slow),
        # Ideal pieces of dense random relations, well past the default bound.
        ["--scenario", "z4", "--max-degree", "16", "--seed", "140892"],
    ],
    ids=["z3", "z4", "z5", "sc", "sc-census", "z3-fractions", "z3-tables", "sc-13", "z4-16"],
)
def test_verify_reports_match(args, tmp_path):
    ours, ref = run_both(["verify", *args, "--format", "json"], tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert without_timing(ours[1]) == without_timing(ref[1])


@pytest.mark.parametrize(
    "preset, max_degree",
    [("z3", "10"), ("z4", "10"), ("z5", "10"), ("z5-invariants", "10"), ("sc", "10"),
     # Past the z3 lead certificate's degree 9 the table is its count.
     ("z3", "14")],
    ids=["z3", "z4", "z5", "z5-invariants", "sc", "z3-14"],
)
def test_hilbert_presets_match(preset, max_degree, tmp_path):
    ours, ref = run_both(["hilbert", "--preset", preset, "--max-degree", max_degree], tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


def test_fixture_terms_match(tmp_path):
    ours, ref = run_both([], tmp_path, module=("-c", FIXTURE_TERMS))
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1] and ours[1:] == ref[1:]


@pytest.mark.parametrize("name", sorted(BAD_RELATIONS))
def test_hilbert_bad_relation_errors_match(name, tmp_path):
    ours, ref = run_both(["hilbert", "--ring", f"{name}.ring"], tmp_path)
    assert ours[0] == ref[0] == 2
    assert ours[1:] == ref[1:] and ours[2].startswith("error: ")


def test_hilbert_sc_past_the_census_bound_matches(tmp_path):
    # dim V_m well past the degrees the sc-build cases reach.
    ours, ref = run_both(["hilbert", "--preset", "sc", "--max-degree", "18"], tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


def test_hilbert_cyclotomic_ring_file_matches(tmp_path):
    ours, ref = run_both(
        ["hilbert", "--ring", "z5.ring", "--max-degree", "10", "--format", "json"], tmp_path
    )
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


def test_hilbert_relation_free_ring_file_matches(tmp_path):
    ours, ref = run_both(["hilbert", "--ring", "free.ring", "--max-degree", "10"], tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


@pytest.mark.slow
def test_hilbert_benchmark_cyclotomic_ring_matches(tmp_path):
    ours, ref = run_both(
        ["hilbert", "--ring", "cyclo_z5.ring", "--max-degree", "12", "--format", "json"],
        tmp_path,
    )
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


def _sc_build_outputs(max_degree, tmp_path):
    files = ("gens.txt", "pres.json")
    return run_both(
        ["sc-build", "--max-degree", max_degree,
         "--generators-out", files[0], "--report", files[1]],
        tmp_path,
        files,
    )


def test_sc_build_outputs_match(tmp_path):
    # Relation lists depend on pivot order, so this pins it.
    ours, ref = _sc_build_outputs("11", tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]


@pytest.mark.slow
def test_sc_build_outputs_match_past_the_last_relations(tmp_path):
    ours, ref = _sc_build_outputs("13", tmp_path)
    assert ours[0] == ref[0] == 0, ours[2]
    assert ours[1:] == ref[1:]
