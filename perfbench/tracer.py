"""Outside-in tracing of godeaux: wrap public functions and methods in spans.

Nothing in the program is edited.  Functions are replaced in every module that
binds them, so ``from .linalg import solve_columns`` in ``graded`` is traced
as well as ``linalg.solve_columns``.  Methods are replaced on their class.

Spans (name, start, end, parent) are kept in compact in-memory arrays and are
only reduced to per-layer totals when the pass ends.  A span's self time is
its duration minus the durations of the spans nested directly inside it.
Counter updates run inside the span they describe.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.maxima: defaultdict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, pre=None, post=None):
        """Return fn wrapped in a span; pre(args) runs first and its result
        reaches post(tracer, args, result, state) on success."""
        sid = self._ids.setdefault(name, len(self._ids))
        if sid == len(self.names):
            self.names.append(name)
        span_name, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                state = pre(args) if pre else None
                result = fn(*args, **kwargs)
                if post:
                    post(self, args, result, state)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Calls, self seconds and root seconds per span name, plus counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        nested = [0.0] * n
        root = 0.0
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                nested[p] += dur[i]
            else:
                root += dur[i]
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += dur[i] - nested[i]
        return {
            "spans": n,
            "root_s": root,
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
        }


# ---------------------------------------------------------------------------
# Counter hooks


def _count_subspace_pre(args):
    return args[1] in args[0]._cache


def _count_subspace(tr, args, result, was_cached):
    tr.counters["subring.subspace_basis.hits"] += was_cached


def _piece_pre(args):
    pres, m, w = args
    return (m, w % pres.descriptor.torsion_order) in pres._pieces


def _count_piece(tr, args, piece, existed):
    tr.counters["graded.piece.builds"] += not existed
    cols = len(piece.monomials)
    if cols > tr.maxima["graded.piece.max_cols"]:
        tr.maxima["graded.piece.max_cols"] = cols


def _count_int_add(tr, args, useful, _):
    rs, row = args
    c = tr.counters
    c["linalg.rowspace.int.adds"] += 1
    c["linalg.rowspace.int.cols"] += len(row)
    c["linalg.rowspace.int.nnz"] += len(row) - row.count(0)
    if useful:
        c["linalg.rowspace.int.useful"] += 1
        # A useful add inserts its pivot row last; dicts keep insertion order.
        stored = next(reversed(rs._pivots.values()))
        bits = max(map(abs, stored)).bit_length()
        if bits > tr.maxima["linalg.rowspace.int.max_bits"]:
            tr.maxima["linalg.rowspace.int.max_bits"] = bits


def _count_field_add(tr, args, useful, _):
    tr.counters["linalg.rowspace.field.adds"] += 1
    tr.counters["linalg.rowspace.field.useful"] += bool(useful)


def _count_matrix_cells(key):
    def post(tr, args, result, _):
        tr.counters[key] += args[0].rows * args[0].cols
    return post


def _count_row_cells(key):
    def post(tr, args, result, _):
        rows, ncols = args[0], args[1]
        tr.counters[key] += len(rows) * ncols
    return post


def _count_mul(tr, args, result, _):
    tr.counters["poly.mul.terms_out"] += len(result.terms)


def _count_json(tr, args, result, _):
    tr.counters["report.to_json.bytes"] += len(result.encode("utf-8"))


# ---------------------------------------------------------------------------
# What to wrap


def _targets():
    """(span name, owner, attribute, pre, post) for every traced callable."""
    from godeaux import action, cli, graded, linalg, poly, report, scalars, subring
    from godeaux.scenarios import fixtures, simply_connected, torsion3, torsion4, torsion5

    t = [
        ("cli.main", cli, "main", None, None),
        ("report.to_json", report.VerificationReport, "to_json", None, _count_json),
        ("scenarios.run", simply_connected, "run_sc", None, None),
        ("scenarios.run", torsion3, "run_z3", None, None),
        ("scenarios.run", torsion4, "run_z4", None, None),
        ("scenarios.run", torsion5, "run_z5", None, None),
        ("subring.subspace_basis", subring.MembershipPredicate, "subspace_basis",
         _count_subspace_pre, _count_subspace),
        ("subring.dim", subring.MembershipPredicate, "dim", None, None),
        ("subring.contains", subring.MembershipPredicate, "contains", None, None),
        ("subring.presentation", subring.SubringBuilder, "presentation", None, None),
        ("subring.verify_generator_list", subring.SubringBuilder,
         "verify_generator_list", None, None),
        ("subring.closure_spot_checks", subring.SubringBuilder,
         "closure_spot_checks", None, None),
        ("graded.piece", graded.GradedPresentation, "_piece", _piece_pre, _count_piece),
        ("graded.reduces_to_zero", graded.GradedPresentation, "reduces_to_zero",
         None, None),
        ("graded.multiplication_injectivity", graded.GradedPresentation,
         "multiplication_injectivity", None, None),
        ("graded.koszul_check", graded.GradedPresentation, "koszul_check", None, None),
        ("linalg.rowspace.int", linalg.IntRowSpace, "add", None, _count_int_add),
        ("linalg.rowspace.int", linalg.IntRowSpace, "contains", None, None),
        ("linalg.rowspace.field", graded.GenericRowSpace, "add", None, _count_field_add),
        ("linalg.rowspace.field", graded.GenericRowSpace, "contains", None, None),
        ("linalg.rref", linalg.Matrix, "rref", None, _count_matrix_cells("linalg.rref.cells")),
        ("linalg.rref", linalg, "int_rref", None, _count_row_cells("linalg.rref.cells")),
        ("linalg.kernel", linalg, "int_kernel_basis", None,
         _count_row_cells("linalg.kernel.cells")),
        ("linalg.kernel", linalg, "kernel_basis", None, _count_matrix_cells("linalg.kernel.cells")),
        ("linalg.solve", linalg, "solve_columns", None, None),
        ("poly.mul", poly.Polynomial, "__mul__", None, _count_mul),
        ("poly.substitute", poly.Polynomial, "substitute", None, None),
        ("poly.enumerate_monomials", poly, "enumerate_monomials", None, None),
        ("poly.parse", poly, "parse_polynomial", None, None),
        ("poly.parse", poly, "parse_ring_file", None, None),
        ("poly.parse", poly, "load_ring_file", None, None),
        ("poly.parse", poly, "parse_scalar", None, None),
        ("action.weight_space_dim", action, "weight_space_dim", None, None),
        ("scalars.inv", scalars, "scalar_inv", None, None),
    ]
    for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse"):
        if attr in vars(scalars.Cyclo):
            t.append(("scalars.cyclo", scalars.Cyclo, attr, None, None))
    for attr, value in vars(fixtures).items():
        if callable(value) and not attr.startswith("_") and getattr(
                value, "__module__", None) == fixtures.__name__:
            t.append(("scenarios.fixtures", fixtures, attr, None, None))
    return t


def install(tracer: Tracer) -> None:
    """Wrap every target wherever it is bound."""
    import godeaux.cli  # noqa: F401  (imports every module of the package)

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "godeaux" or name.startswith("godeaux."))]
    for span, owner, attr, pre, post in _targets():
        original = vars(owner)[attr]
        wrapped = tracer.wrap(span, original, pre, post)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for name in [n for n, v in vars(module).items() if v is original]:
                setattr(module, name, wrapped)
