"""Memory guard: deep runs keep their peak resident size small.  Pivot rows
are stored as their nonzeros, so a row space grows with the nonzeros of its
rows, not with rows x columns.  Each run is a fresh interpreter that reads
its own high-water mark (`VmHWM`); no time is asserted."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STATUS = Path("/proc/self/status")

PROBE = """
import contextlib, io, sys
from godeaux.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
hwm = next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:"))
print(code, hwm)
"""

needs_status = pytest.mark.skipif(not STATUS.exists(), reason="no /proc/self/status")


def peak_mb(*args):
    """(exit code, peak resident MB) of `godeaux` run with args in a fresh
    interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *args], env=env, capture_output=True, text=True, check=True
    ).stdout
    code, kib = out.split()
    return int(code), int(kib) / 1024


@needs_status
def test_z3_numeric_to_degree_24_peaks_under_80_mb():
    code, mb = peak_mb("verify", "--scenario", "z3", "--mode", "numeric", "--max-degree", "24")
    assert code == 0
    assert mb <= 80, f"peak {mb:.0f} MB"


@needs_status
@pytest.mark.slow
def test_sc_to_degree_22_peaks_under_60_mb():
    code, mb = peak_mb("verify", "--scenario", "sc", "--max-degree", "22")
    assert code == 0
    assert mb <= 60, f"peak {mb:.0f} MB"


@needs_status
@pytest.mark.slow
def test_sc_to_degree_24_peaks_under_60_mb():
    code, mb = peak_mb("verify", "--scenario", "sc", "--max-degree", "24")
    assert code == 0
    assert mb <= 60, f"peak {mb:.0f} MB"


@needs_status
@pytest.mark.slow
def test_sc_to_degree_30_peaks_under_100_mb():
    code, mb = peak_mb("verify", "--scenario", "sc", "--max-degree", "30")
    assert code == 0
    assert mb <= 100, f"peak {mb:.0f} MB"


@needs_status
@pytest.mark.slow
def test_sc_to_degree_40_peaks_under_62_mb():
    # V_m is kept once, as its basis dicts, and a degree's products are
    # dropped once its factors are fixed: about 57 MB.  A row space of each
    # V_m beside the dicts peaked at about 69 MB, and keeping every degree's
    # products to the end at about 112 MB.
    code, mb = peak_mb("verify", "--scenario", "sc", "--max-degree", "40")
    assert code == 0
    assert mb <= 62, f"peak {mb:.0f} MB"
