"""Cross-suite report invariants and edge-case branches."""

import json
from fractions import Fraction

import pytest

from godeaux.cli import main
from godeaux.report import Check, VerificationReport
from godeaux.scenarios import run_sc, run_z3, run_z4, run_z5
from godeaux.scenarios import torsion4


@pytest.fixture(scope="module")
def all_reports():
    return [
        run_z3(max_degree=6),
        run_z4(seed=3, max_degree=6),
        run_z5(6),
        run_sc(max_degree=10),
    ]


def test_every_check_carries_reference_and_values(all_reports):
    for rep in all_reports:
        assert rep.checks, rep.scenario
        for check in rep.checks:
            assert check.paper_ref.strip(), check.id
            assert check.description.strip(), check.id
            assert check.id.startswith(f"{rep.scenario}.")
        ids = [c.id for c in rep.checks]
        assert len(ids) == len(set(ids))


def test_reports_embed_no_floats(all_reports):
    def walk(value):
        assert not isinstance(value, float), value
        if isinstance(value, dict):
            for k, v in value.items():
                walk(k)
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    for rep in all_reports:
        walk(rep.to_dict())


def test_truncation_bound_stated(all_reports):
    for rep in all_reports:
        assert "truncation" in rep.config


def test_z4_degenerate_draw_resamples_once(monkeypatch):
    real_draw = torsion4.draw_relation
    calls = {"n": 0}

    def rigged(rng, desc, degree, weight):
        calls["n"] += 1
        if calls["n"] == 1:
            # Degenerate: q1 = x1^4 so that q2 (also divisible patterns) cannot
            # rescue regularity; simplest is q1 = q2-shaped monomial that makes
            # the pair fail the Koszul prediction.
            return desc.variable("x1") ** 4
        if calls["n"] == 2:
            return desc.variable("x1") ** 2 * desc.variable("y1")
        return real_draw(rng, desc, degree, weight)

    monkeypatch.setattr(torsion4, "draw_relation", rigged)
    rep = torsion4.run_z4(seed=11, max_degree=6)
    assert rep.config["resampled"] is True
    assert rep.config["used_seed"] == 12
    by_id = {c.id: c for c in rep.checks}
    assert by_id["z4.sample-valid"].status == "pass"
    assert rep.passed()


def test_cli_exit_1_on_failing_check(monkeypatch, capsys):
    from godeaux import cli

    failing = VerificationReport(
        "z5", {"max_degree": 1}, [Check("z5.rigged", "d", "r", 1, 2)]
    )
    monkeypatch.setattr(cli, "run_z5", lambda max_degree: failing)
    code = main(["verify", "--scenario", "z5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_cli_all_runs_every_suite(capsys):
    code = main(["verify", "--scenario", "all", "--max-degree", "10", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["scenario"] == "all"
    prefixes = {c["id"].split(".")[0] for c in payload["checks"]}
    assert prefixes == {"z3", "z4", "z5", "sc"}


def test_cli_rejects_degree_zero(capsys):
    assert main(["verify", "--scenario", "z5", "--max-degree", "0"]) == 2
    assert "max-degree" in capsys.readouterr().err


def test_cli_bad_rational_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", "z3", "--alpha", "x"])
    assert exc.value.code == 2


def test_symbolic_checks_ignore_user_parameters():
    a = run_z3(mode="symbolic", max_degree=6)
    b = run_z3(params=(Fraction(5), Fraction(-3), Fraction(1, 2)), mode="symbolic", max_degree=6)
    assert [c.to_dict() for c in a.checks] == [c.to_dict() for c in b.checks]
