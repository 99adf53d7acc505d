"""Start-up guard: importing the command line pulls in no heavy standard
library module.  `dataclasses` alone brings `inspect`, `ast`, `dis` and
`tokenize`, about half of a fresh `godeaux verify` process's import time."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "string")

PROBE = """
import json, sys
before = set(sys.modules)
import godeaux.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_adds_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    added = set(json.loads(out))
    assert "godeaux.cli" in added and "godeaux.subring" in added
    assert sorted(added.intersection(HEAVY)) == []
