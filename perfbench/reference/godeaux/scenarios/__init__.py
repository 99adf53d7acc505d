"""Scenario suites: fixture data, dimension oracles, and the four verification runs."""

from .oracles import oracle_curve_dim, oracle_plurigenus
from .simply_connected import run_sc, sc_predicate
from .torsion3 import run_z3, z3_presentation
from .torsion4 import run_z4
from .torsion5 import run_z5, z5_quintic

__all__ = [
    "oracle_curve_dim",
    "oracle_plurigenus",
    "run_sc",
    "run_z3",
    "run_z4",
    "run_z5",
    "sc_predicate",
    "z3_presentation",
    "z5_quintic",
]
