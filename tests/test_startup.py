"""Start-up guard: importing the command line pulls in no heavy standard
library module.  `dataclasses` alone brings `inspect`, `ast`, `dis` and
`tokenize`, about half of a fresh `godeaux verify` process's import time.
`importlib.resources` brings `pathlib`, `tempfile` and about two dozen more;
fixtures are read with `open` relative to the package instead.  `typing`
is not needed either: annotations are lazy, `Mapping` and `Sequence` come
from `collections.abc`, and `Scalar` is the union `Fraction | Cyclo`."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "string")
# Only visible without `site`: a `.pth` file of an installed package may
# import `importlib.resources` before any probe runs.
NO_SITE_HEAVY = ("importlib.resources", "pathlib", "tempfile", "zipfile", "typing")

PROBE = """
import json, sys
before = set(sys.modules)
import godeaux.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def added_by_import(*flags):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, *flags, "-c", PROBE], env=env, capture_output=True, text=True,
        check=True,
    ).stdout
    added = set(json.loads(out))
    assert "godeaux.cli" in added and "godeaux.subring" in added
    return added


def test_import_adds_no_heavy_module():
    assert sorted(added_by_import().intersection(HEAVY)) == []


def test_import_without_site_adds_no_resource_machinery():
    added = added_by_import("-S")
    assert sorted(added.intersection(HEAVY + NO_SITE_HEAVY)) == []
