"""Scenario suites: oracle tables, reports, determinism."""

import json
from fractions import Fraction

import pytest

from godeaux.cli import main
from godeaux.report import Check, VerificationReport, merge_reports
from godeaux.scenarios import (
    fixtures,
    oracle_curve_dim,
    oracle_plurigenus,
    run_sc,
    run_z3,
    run_z4,
    run_z5,
)


LOADERS = [
    "z3_relations",
    "z3_claimed_bases",
    "z5_planes",
    "sc_restriction",
    "sc_involution",
    "sc_claimed_generators",
]


class TestFixtures:
    @pytest.mark.parametrize("name", LOADERS)
    def test_mutating_a_result_leaves_the_next_call_intact(self, name):
        load = getattr(fixtures, name)
        expected = load()
        first = load()
        assert first == expected and first is not expected
        if isinstance(first, dict):
            for value in first.values():
                if isinstance(value, list):
                    value.clear()
            first[next(iter(first))] = None
            first["stray"] = None
        else:
            first.reverse()
            first.pop()
            first.append(None)
        assert load() == expected

    @pytest.mark.parametrize("name", LOADERS + ["sc_conic"])
    def test_each_file_is_parsed_once(self, name, monkeypatch):
        load = getattr(fixtures, name)
        expected = load()

        def refuse(*args):
            raise AssertionError("fixture parsed again")

        monkeypatch.setattr(fixtures, "parse_polynomial", refuse)
        assert load() == expected


class TestOracles:
    def test_plurigenus(self):
        assert oracle_plurigenus(0) == 1
        assert oracle_plurigenus(1) == 0
        assert oracle_plurigenus(2) == 2
        assert [oracle_plurigenus(m) for m in (3, 4, 5, 12)] == [4, 7, 11, 67]

    def test_curve_table(self):
        assert [oracle_curve_dim(1, i) for i in range(3)] == [0, 0, 1]
        assert [oracle_curve_dim(2, i) for i in range(3)] == [1, 2, 1]
        assert oracle_curve_dim(2, 1) == 2
        assert oracle_curve_dim(7, 0) == 6
        for m in range(3, 13):
            assert all(oracle_curve_dim(m, i) == m - 1 for i in range(3))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            oracle_curve_dim(2, 3)
        with pytest.raises(ValueError):
            oracle_plurigenus(-1)


class TestZ5:
    def test_report(self):
        rep = run_z5(8)
        assert rep.passed()
        ids = {c.id for c in rep.checks}
        assert {
            "z5.quintic-invariant",
            "z5.triple-points",
            "z5.fixed-points-off-quintic",
            "z5.invariant-dimensions",
        } <= ids


class TestZ4:
    def test_report(self):
        rep = run_z4(seed=42, max_degree=8)
        assert rep.passed()
        by_id = {c.id: c for c in rep.checks}
        assert by_id["z4.koszul"].actual is True
        assert by_id["z4.dimension-table"].expected["1.0"] == 0
        assert by_id["z4.dimension-table"].expected["1.1"] == 1
        assert by_id["z4.dimension-table"].expected["4.0"] == 7
        assert rep.config["resampled"] is False

    def test_seed_changes_sample_not_table(self):
        a = run_z4(seed=1, max_degree=6)
        b = run_z4(seed=2, max_degree=6)
        assert a.config["q1"] != b.config["q1"]
        ta = next(c for c in a.checks if c.id == "z4.dimension-table").actual
        tb = next(c for c in b.checks if c.id == "z4.dimension-table").actual
        assert ta == tb


class TestZ3:
    def test_symbolic_mode(self):
        rep = run_z3(mode="symbolic", max_degree=6)
        assert rep.passed()
        ids = [c.id for c in rep.checks]
        assert "z3.syzygy.0" in ids and "z3.h-membership.2" in ids
        assert not any(i.startswith("z3.hilbert") for i in ids)
        assert "skipped" in rep.config["hilbert"]

    def test_numeric_mode_samples(self):
        rep = run_z3(params=(Fraction(2), Fraction(0), Fraction(-1)), mode="numeric", max_degree=6)
        assert rep.passed()
        assert len(rep.config["samples"]) == 4  # user triple + three defaults
        assert rep.config["samples"][0] == ["2", "0", "-1"]

    def test_default_params_give_three_samples(self):
        rep = run_z3(mode="numeric", max_degree=5)
        assert len(rep.config["samples"]) == 3

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown mode"):
            run_z3(mode="fast")

    @pytest.mark.parametrize("mode", ["both", "symbolic", "numeric"])
    @pytest.mark.parametrize("name", ["h0", "H1"])
    def test_inhomogeneous_relation_gives_fail_checks(self, mode, name, monkeypatch, capsys):
        # The report keeps every check id; each check that needs a
        # presentation fails with the error text, and the exit code is 1.
        args = ["verify", "--scenario", "z3", "--mode", mode, "--max-degree", "5",
                "--format", "json"]
        assert main(args) == 0
        good = json.loads(capsys.readouterr().out)
        relations = fixtures.z3_relations()

        def bad_relations():
            return [
                (n, d, w, p + p.descriptor.variable("x2") if n == name else p)
                for n, d, w, p in relations
            ]

        monkeypatch.setattr(fixtures, "z3_relations", bad_relations)
        assert main(args) == 1
        bad = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in bad["checks"]] == [c["id"] for c in good["checks"]]
        failed = {c["id"]: c["actual"] for c in bad["checks"] if c["status"] == "fail"}
        if mode != "numeric":
            assert failed.pop(f"z3.placement.{name}") == "inhomogeneous"
            failed.pop("z3.syzygy.1", None)  # h0 appears in the second syzygy
        ids = {c["id"] for c in good["checks"]}
        # Every numeric sample presents all ten relations; the membership
        # subideal holds h0, and H1 is only the target of the second check.
        expected = {i for i in ids if i.startswith(("z3.hilbert", "z3.table-bases",
                                                    "z3.x2-injective"))}
        if name == "h0":
            expected |= {i for i in ids if i.startswith("z3.h-membership")}
        else:
            expected |= {"z3.h-membership.1"} & ids
        assert set(failed) == expected
        assert failed
        assert all("bihomogeneous" in actual for actual in failed.values())


class TestSC:
    def test_requires_degree_ten(self):
        with pytest.raises(ValueError, match="max_degree >= 10"):
            run_sc(max_degree=8)

    def test_report_at_ten(self):
        rep = run_sc(max_degree=10)
        assert rep.passed()
        by_id = {c.id: c for c in rep.checks}
        census = by_id["sc.relation-census"].actual
        assert census == {
            "1": 0, "2": 0, "3": 0, "4": 0, "5": 0,
            "6": 6, "7": 12, "8": 18, "9": 12, "10": 6,
        }
        assert by_id["sc.relation-total"].actual == 54
        assert by_id["sc.generator-census"].actual == {2: 2, 3: 4, 4: 4, 5: 3}


class TestReports:
    def test_check_status_is_equality(self):
        assert Check("a", "", "", 1, 1).status == "pass"
        assert Check("a", "", "", 1, 2).status == "fail"

    def test_duplicate_ids_rejected(self):
        c = Check("same", "", "", 1, 1)
        with pytest.raises(ValueError, match="duplicate check ids"):
            VerificationReport("x", {}, [c, c])

    def test_report_requires_checks_to_pass(self):
        rep = VerificationReport("x", {}, [])
        assert not rep.passed()

    def test_json_deterministic_modulo_timing(self):
        a = run_z5(6)
        b = run_z5(6)
        da, db = a.to_dict(), b.to_dict()
        da.pop("timing_ms")
        db.pop("timing_ms")
        assert json.dumps(da) == json.dumps(db)

    def test_merge_prefixed_ids(self):
        merged = merge_reports([run_z5(4)], {"scenarios": ["z5"]})
        assert merged.scenario == "all"
        assert all(c.id.startswith("z5.") for c in merged.checks)
