"""Command-line front end: verification suites, Hilbert tables, subring builds.

Exit codes: 0 all checks pass, 1 some check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .graded import GradedPresentation
from .poly import load_ring_file, render_polynomial
from .report import VerificationReport, merge_reports
from .scenarios import fixtures, run_sc, run_z3, run_z4, run_z5, sc_predicate, torsion5
from .scenarios.torsion3 import family_certificate, hilbert_table, numeric_presentation
from .scenarios.torsion4 import sampled_presentation
from .subring import SubringBuilder

SCENARIOS = ("z3", "z4", "z5", "sc", "all")
HILBERT_PRESETS = ("z3", "z4", "z5", "z5-invariants", "sc")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="godeaux",
        description="Exact verification of graded canonical-ring presentations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--scenario", required=True, choices=SCENARIOS)
    verify.add_argument("--max-degree", type=int, default=12)
    verify.add_argument(
        "--mode", choices=("symbolic", "numeric", "both"), default="both",
        help="z3 only: which families of checks to run",
    )
    verify.add_argument("--alpha", type=_fraction, default=Fraction(0))
    verify.add_argument("--beta", type=_fraction, default=Fraction(0))
    verify.add_argument("--gamma", type=_fraction, default=Fraction(0))
    verify.add_argument("--seed", type=int, default=42)
    verify.add_argument("--format", choices=("table", "json"), default="table")
    verify.add_argument("--report", help="write the JSON report to this path")
    verify.set_defaults(func=cmd_verify)

    hilbert = sub.add_parser("hilbert", help="print a (degree, weight) dimension table")
    group = hilbert.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=HILBERT_PRESETS)
    group.add_argument("--ring", help="descriptor(+relations) file")
    hilbert.add_argument("--max-degree", type=int, default=12)
    hilbert.add_argument("--seed", type=int, default=42)
    hilbert.add_argument("--format", choices=("table", "json"), default="table")
    hilbert.set_defaults(func=cmd_hilbert)

    scb = sub.add_parser("sc-build", help="compute the simply connected subring")
    scb.add_argument("--max-degree", type=int, default=12)
    scb.add_argument("--generators-out", default="sc_generators_computed.txt")
    scb.add_argument("--report", default="sc_presentation.json")
    scb.set_defaults(func=cmd_sc_build)
    return parser


def _run_scenario(name: str, args) -> VerificationReport:
    if name == "z3":
        return run_z3(
            params=(args.alpha, args.beta, args.gamma),
            mode=args.mode,
            max_degree=args.max_degree,
            seed=args.seed,
        )
    if name == "z4":
        return run_z4(seed=args.seed, max_degree=args.max_degree)
    if name == "z5":
        return run_z5(max_degree=args.max_degree)
    if name == "sc":
        return run_sc(max_degree=args.max_degree, seed=args.seed)
    raise ValueError(f"unknown scenario {name!r}")


def cmd_verify(args) -> int:
    if args.max_degree < 1:
        print("error: --max-degree must be >= 1", file=sys.stderr)
        return 2
    try:
        if args.scenario == "all":
            names = ["z3", "z4", "z5", "sc"]
            reports = [_run_scenario(n, args) for n in names]
            config = {
                "scenarios": names,
                "max_degree": args.max_degree,
                "mode": args.mode,
                "seed": args.seed,
            }
            report = merge_reports(reports, config)
        else:
            report = _run_scenario(args.scenario, args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 2
    print(report.to_json() if args.format == "json" else report.to_table())
    return 0 if report.passed() else 1


def _preset_table(preset: str, max_degree: int, seed: int):
    """Rows (m, dims-per-weight) for a named preset ring."""
    degrees = range(max_degree + 1)
    if preset == "sc":
        pred = sc_predicate()
        return 1, [(m, [pred.dim(m)]) for m in degrees]
    if preset in ("z5", "z5-invariants"):
        weights = range(5) if preset == "z5" else (0,)
        return len(weights), [
            (m, [torsion5.quotient_dim(m, w) for w in weights]) for m in degrees
        ]
    if preset == "z3":
        # The lead certificate's counts when it holds, as in `verify`.
        sample = (Fraction(0),) * 3
        pres = numeric_presentation(sample)
        table = hilbert_table(pres, max_degree, family_certificate(), sample)[0]
    elif preset == "z4":
        table = sampled_presentation(seed).hilbert(max_degree)
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return table.torsion_order, [(m, list(table.row(m))) for m in degrees]


def cmd_hilbert(args) -> int:
    if args.max_degree < 0:
        print("error: --max-degree must be >= 0", file=sys.stderr)
        return 2
    try:
        if args.preset:
            torsion, rows = _preset_table(args.preset, args.max_degree, args.seed)
            name = args.preset
        else:
            desc, relations = load_ring_file(args.ring)
            dim = GradedPresentation(desc, relations).quotient_dim
            torsion = desc.torsion_order
            rows = [
                (m, [dim(m, w) for w in range(torsion)]) for m in range(args.max_degree + 1)
            ]
            name = args.ring
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        payload = {
            "ring": name,
            "max_degree": args.max_degree,
            "torsion_order": torsion,
            "rows": {str(m): dims for m, dims in rows},
        }
        print(json.dumps(payload, indent=2))
    else:
        print(f"ring: {name}  (dimensions per weight 0..{torsion - 1})")
        for m, dims in rows:
            body = "  ".join(f"{x:>4}" for x in dims)
            print(f"m={m:<3} {body}   total {sum(dims)}")
    return 0


def cmd_sc_build(args) -> int:
    if args.max_degree < 1:
        print("error: --max-degree must be >= 1", file=sys.stderr)
        return 2
    try:
        builder = SubringBuilder(sc_predicate())
        presentation = builder.presentation(args.max_degree)
        comparison = []
        for i, p in enumerate(fixtures.sc_claimed_generators()):
            # A zero or inhomogeneous claim is no member, with its reason.
            member = builder.claimed_membership(i, p)[1]
            entry = {"index": i, "generator": render_polynomial(p),
                     "in_computed_subring": member is True}
            if isinstance(member, str):
                entry["reason"] = member
            comparison.append(entry)
    except (KeyError, ValueError) as exc:
        # A substitution with a missing image raises KeyError.
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return 2
    try:
        with open(args.generators_out, "w", encoding="utf-8") as fh:
            for g, _ in presentation.generators:
                fh.write(render_polynomial(g) + "\n")
        payload = {
            "max_degree": args.max_degree,
            "generator_census": {str(k): v for k, v in presentation.generator_census.items()},
            "generators": [
                {"degree": d, "polynomial": render_polynomial(g)}
                for g, d in presentation.generators
            ],
            "relation_census": {str(k): v for k, v in presentation.relation_census.items()},
            "relation_total": sum(presentation.relation_census.values()),
            "relations": [render_polynomial(r) for r in presentation.relations],
            "subspace_dimensions": {str(m): n for m, n in presentation.hilbert.items()},
            "claimed_generator_comparison": comparison,
        }
        if presentation.warning:
            payload["warning"] = presentation.warning
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    print(
        f"wrote {len(presentation.generators)} generators to {args.generators_out}; "
        f"census and comparison to {args.report}"
    )
    if presentation.warning:
        print(f"warning: {presentation.warning}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
