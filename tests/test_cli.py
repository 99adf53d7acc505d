"""Command-line behaviour: exit codes, JSON schema, file outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import godeaux
from godeaux.cli import main
from godeaux.report import VerificationReport

JSON_CHECK_KEYS = {"id", "description", "paper_ref", "status", "expected", "actual"}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerify:
    def test_z5_table(self, capsys):
        code, out, _ = run_cli(["verify", "--scenario", "z5", "--max-degree", "6"], capsys)
        assert code == 0
        assert "z5.invariant-dimensions" in out
        assert "0 failed" in out

    def test_json_schema(self, capsys, tmp_path):
        report_path = tmp_path / "out.json"
        code, out, _ = run_cli(
            [
                "verify",
                "--scenario",
                "z4",
                "--max-degree",
                "6",
                "--format",
                "json",
                "--report",
                str(report_path),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert set(payload) == {"scenario", "config", "checks", "timing_ms", "version"}
        assert payload["scenario"] == "z4"
        for check in payload["checks"]:
            assert set(check) == JSON_CHECK_KEYS
        assert json.loads(out)["scenario"] == "z4"

    def test_sc_report_census(self, capsys, tmp_path):
        report_path = tmp_path / "sc.json"
        code, _, _ = run_cli(
            [
                "verify",
                "--scenario",
                "sc",
                "--max-degree",
                "10",
                "--format",
                "json",
                "--report",
                str(report_path),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(report_path.read_text())
        census = next(c for c in payload["checks"] if c["id"] == "sc.relation-census")
        assert census["status"] == "pass"
        assert {k: v for k, v in census["expected"].items() if v} == {
            "6": 6, "7": 12, "8": 18, "9": 12, "10": 6,
        }

    @pytest.mark.slow
    def test_sc_census_stays_zero_through_degree_14(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "14", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["status"] == "pass" for c in payload["checks"])
        census = next(c for c in payload["checks"] if c["id"] == "sc.relation-census")
        assert [census["actual"][str(m)] for m in range(11, 15)] == [0, 0, 0, 0]

    def test_z3_with_parameters(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "z3", "--alpha", "1", "--beta", "1",
             "--gamma", "1", "--max-degree", "6"],
            capsys,
        )
        assert code == 0

    def test_unknown_scenario_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "godeaux.cli", "verify", "--scenario", "z9"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "usage" in result.stderr

    def test_sc_degree_too_small_exits_2(self, capsys):
        code, _, err = run_cli(["verify", "--scenario", "sc", "--max-degree", "8"], capsys)
        assert code == 2
        assert "max_degree" in err

    def test_json_deterministic_modulo_timing(self, capsys):
        def payload():
            code, out, _ = run_cli(
                ["verify", "--scenario", "z4", "--max-degree", "5", "--format", "json"],
                capsys,
            )
            assert code == 0
            data = json.loads(out)
            data.pop("timing_ms")
            return json.dumps(data)

        assert payload() == payload()

    def test_misplaced_claimed_basis_monomial_fails_its_check(self, capsys, monkeypatch):
        from godeaux.scenarios import fixtures

        claimed = dict(fixtures.z3_claimed_bases())
        x2_4 = (4,) + (0,) * 8  # bidegree (4, 2), listed under (4, 0)
        claimed[(4, 0)] = claimed[(4, 0)][:-1] + [x2_4]
        monkeypatch.setattr(fixtures, "z3_claimed_bases", lambda: claimed)
        code, out, _ = run_cli(
            ["verify", "--scenario", "z3", "--mode", "numeric", "--max-degree", "6",
             "--format", "json"],
            capsys,
        )
        assert code == 1
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        bases = checks["z3.table-bases.s0"]
        assert bases["status"] == "fail"
        assert {k for k, ok in bases["actual"].items() if not ok} == {"4.0"}


class TestHilbert:
    def test_z3_preset_row_six(self, capsys):
        code, out, _ = run_cli(["hilbert", "--preset", "z3", "--max-degree", "6"], capsys)
        assert code == 0
        assert "m=6      5     5     5   total 15" in out

    def test_z5_invariants(self, capsys):
        code, out, _ = run_cli(
            ["hilbert", "--preset", "z5-invariants", "--max-degree", "4", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [rows[str(m)][0] for m in range(5)] == [1, 0, 2, 4, 7]

    def test_missing_ring_file_exits_2(self, capsys):
        code, _, err = run_cli(["hilbert", "--ring", "missing.ring"], capsys)
        assert code == 2
        assert "missing.ring" in err

    def test_user_ring_file(self, capsys, tmp_path):
        path = tmp_path / "user.ring"
        path.write_text("field Q\ntorsion_order 1\nx 1 0\ny 1 0\nrel x*y\n")
        code, out, _ = run_cli(
            ["hilbert", "--ring", str(path), "--max-degree", "3", "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        # C[x, y]/(xy): dimensions 1, 2, 2, 2.
        assert [rows[str(m)][0] for m in range(4)] == [1, 2, 2, 2]


class TestScBuild:
    def test_truncated_run_warns(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        report = tmp_path / "pres.json"
        code, out, _ = run_cli(
            [
                "sc-build",
                "--max-degree",
                "8",
                "--generators-out",
                str(gens),
                "--report",
                str(report),
            ],
            capsys,
        )
        assert code == 0
        assert "census may be truncated" in out
        payload = json.loads(report.read_text())
        assert payload["warning"] == "census may be truncated"
        assert len(gens.read_text().strip().splitlines()) == 13

    def test_full_run_outputs(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        report = tmp_path / "pres.json"
        code, _, _ = run_cli(
            [
                "sc-build",
                "--max-degree",
                "10",
                "--generators-out",
                str(gens),
                "--report",
                str(report),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["generator_census"] == {"2": 2, "3": 4, "4": 4, "5": 3}
        assert payload["relation_total"] == 54
        assert "warning" not in payload
        comparison = payload["claimed_generator_comparison"]
        assert len(comparison) == 13
        assert all(entry["in_computed_subring"] for entry in comparison)
        assert len(gens.read_text().strip().splitlines()) == 13

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        code, _, err = run_cli(
            [
                "sc-build",
                "--max-degree",
                "10",
                "--generators-out",
                str(tmp_path / "nodir" / "gens.txt"),
                "--report",
                str(tmp_path / "pres.json"),
            ],
            capsys,
        )
        assert code == 2
        assert "cannot write" in err


def test_one_version_literal(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == godeaux.__version__
    assert VerificationReport("z5", {}, []).version == godeaux.__version__
    # The literal is written once, in the package; pyproject reads it from there.
    root = Path(__file__).resolve().parents[1]
    literal = f'"{godeaux.__version__}"'
    holders = [
        p.relative_to(root).as_posix()
        for p in sorted((root / "src" / "godeaux").rglob("*.py"))
        if literal in p.read_text(encoding="utf-8")
    ]
    assert holders == ["src/godeaux/__init__.py"]
    pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
    assert literal not in pyproject
    assert 'version = {attr = "godeaux.__version__"}' in pyproject
