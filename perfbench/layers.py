"""Per-layer metrics derived from one traced pass's span summary.

Each entry is (name, unit, better, extractor).  The layers are the modules of
godeaux; see README.md for which end-to-end metric each should move.
"""

from __future__ import annotations


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _calls(name):
    return lambda s: s["calls"].get(name, 0)


def _self(name):
    return lambda s: s["self_s"].get(name, 0.0)


def _counter(key):
    return lambda s: s["counters"].get(key, 0)


def _maximum(key):
    return lambda s: s["maxima"].get(key, 0)


def _per_add(key, adds):
    return lambda s: _ratio(s["counters"].get(key, 0), s["counters"].get(adds, 0))


PER_LAYER = [
    ("subring.subspace_basis.calls", "count", "lower", _calls("subring.subspace_basis")),
    ("subring.subspace_basis.hit_ratio", "ratio", "higher",
     lambda s: _ratio(s["counters"].get("subring.subspace_basis.hits", 0),
                      s["calls"].get("subring.subspace_basis", 0))),
    ("subring.subspace_basis.self_s", "s", "lower", _self("subring.subspace_basis")),
    ("subring.dim.calls", "count", "lower", _calls("subring.dim")),
    ("subring.dim.self_s", "s", "lower", _self("subring.dim")),
    ("subring.contains.calls", "count", "lower", _calls("subring.contains")),
    ("subring.contains.self_s", "s", "lower", _self("subring.contains")),
    ("subring.presentation.self_s", "s", "lower", _self("subring.presentation")),
    ("subring.verify_generator_list.self_s", "s", "lower",
     _self("subring.verify_generator_list")),
    ("subring.closure_spot_checks.self_s", "s", "lower",
     _self("subring.closure_spot_checks")),
    ("graded.piece.queries", "count", "lower", _calls("graded.piece")),
    ("graded.piece.builds", "count", "lower", _counter("graded.piece.builds")),
    ("graded.piece.reuse_ratio", "ratio", "higher",
     lambda s: _ratio(s["calls"].get("graded.piece", 0)
                      - s["counters"].get("graded.piece.builds", 0),
                      s["calls"].get("graded.piece", 0))),
    ("graded.piece.self_s", "s", "lower", _self("graded.piece")),
    ("graded.piece.max_cols", "count", "lower", _maximum("graded.piece.max_cols")),
    ("graded.reduces_to_zero.calls", "count", "lower", _calls("graded.reduces_to_zero")),
    ("graded.reduces_to_zero.self_s", "s", "lower", _self("graded.reduces_to_zero")),
    ("graded.multiplication_injectivity.self_s", "s", "lower",
     _self("graded.multiplication_injectivity")),
    ("graded.koszul_check.self_s", "s", "lower", _self("graded.koszul_check")),
    ("linalg.rowspace.int.adds", "count", "lower", _counter("linalg.rowspace.int.adds")),
    ("linalg.rowspace.int.useful_ratio", "ratio", "higher",
     _per_add("linalg.rowspace.int.useful", "linalg.rowspace.int.adds")),
    ("linalg.rowspace.int.nnz_mean", "count", "lower",
     _per_add("linalg.rowspace.int.nnz", "linalg.rowspace.int.adds")),
    ("linalg.rowspace.int.cols_mean", "count", "lower",
     _per_add("linalg.rowspace.int.cols", "linalg.rowspace.int.adds")),
    ("linalg.rowspace.int.max_bits", "bits", "lower",
     _maximum("linalg.rowspace.int.max_bits")),
    ("linalg.rowspace.int.self_s", "s", "lower", _self("linalg.rowspace.int")),
    ("linalg.rowspace.field.adds", "count", "lower", _counter("linalg.rowspace.field.adds")),
    ("linalg.rowspace.field.useful_ratio", "ratio", "higher",
     _per_add("linalg.rowspace.field.useful", "linalg.rowspace.field.adds")),
    ("linalg.rowspace.field.self_s", "s", "lower", _self("linalg.rowspace.field")),
    ("linalg.rref.calls", "count", "lower", _calls("linalg.rref")),
    ("linalg.rref.cells", "count", "lower", _counter("linalg.rref.cells")),
    ("linalg.rref.self_s", "s", "lower", _self("linalg.rref")),
    ("linalg.kernel.calls", "count", "lower", _calls("linalg.kernel")),
    ("linalg.kernel.cells", "count", "lower", _counter("linalg.kernel.cells")),
    ("linalg.kernel.self_s", "s", "lower", _self("linalg.kernel")),
    ("linalg.solve.calls", "count", "lower", _calls("linalg.solve")),
    ("linalg.solve.self_s", "s", "lower", _self("linalg.solve")),
    ("poly.mul.calls", "count", "lower", _calls("poly.mul")),
    ("poly.mul.terms_out", "count", "lower", _counter("poly.mul.terms_out")),
    ("poly.mul.self_s", "s", "lower", _self("poly.mul")),
    ("poly.substitute.calls", "count", "lower", _calls("poly.substitute")),
    ("poly.substitute.self_s", "s", "lower", _self("poly.substitute")),
    ("poly.enumerate_monomials.calls", "count", "lower", _calls("poly.enumerate_monomials")),
    ("poly.enumerate_monomials.self_s", "s", "lower", _self("poly.enumerate_monomials")),
    ("poly.parse.self_s", "s", "lower", _self("poly.parse")),
    ("scenarios.fixtures.self_s", "s", "lower", _self("scenarios.fixtures")),
    ("action.weight_space_dim.calls", "count", "lower", _calls("action.weight_space_dim")),
    ("action.weight_space_dim.self_s", "s", "lower", _self("action.weight_space_dim")),
    ("scalars.cyclo.ops", "count", "lower", _calls("scalars.cyclo")),
    ("scalars.cyclo.self_s", "s", "lower", _self("scalars.cyclo")),
    ("scalars.inv.calls", "count", "lower", _calls("scalars.inv")),
    ("report.to_json.self_s", "s", "lower", _self("report.to_json")),
    ("report.to_json.bytes", "bytes", "lower", _counter("report.to_json.bytes")),
    ("cli.main.self_s", "s", "lower", _self("cli.main")),
    ("scenarios.run.self_s", "s", "lower", _self("scenarios.run")),
]

# Computed from the traced and untraced passes together, not from one summary.
TRACE_QUALITY = [
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
]


def per_layer(summary: dict) -> dict[str, float]:
    return {name: extract(summary) for name, _, _, extract in PER_LAYER}


def units() -> dict[str, str]:
    out = {name: unit for name, unit, _, _ in PER_LAYER}
    out.update({name: unit for name, unit, _ in TRACE_QUALITY})
    return out
