"""Command-line behaviour: exit codes, JSON schema, file outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import godeaux
from godeaux.cli import main
from godeaux.poly import Polynomial, parse_polynomial
from godeaux.report import VerificationReport

JSON_CHECK_KEYS = {"id", "description", "paper_ref", "status", "expected", "actual"}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_z3_tables_hold(max_degree, capsys):
    """m - 1 sections per weight for 3 <= m <= max_degree, and x2 injective,
    on every numeric sample."""
    code, out, _ = run_cli(
        ["verify", "--scenario", "z3", "--mode", "numeric", "--max-degree", str(max_degree),
         "--format", "json"],
        capsys,
    )
    assert code == 0
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    samples = range(len(checks) // 3)
    assert len(samples) >= 3
    for s in samples:
        table = checks[f"z3.hilbert.s{s}"]["actual"]
        assert {k: v for k, v in table.items() if int(k.split(".")[0]) >= 3} == {
            f"{m}.{w}": m - 1 for m in range(3, max_degree + 1) for w in range(3)
        }
        assert checks[f"z3.x2-injective.s{s}"]["actual"] is True
    assert all(c["status"] == "pass" for c in checks.values())


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

    def test_sc_census_stays_zero_through_degree_14(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "14", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["status"] == "pass" for c in payload["checks"])
        census = next(c for c in payload["checks"] if c["id"] == "sc.relation-census")
        assert [census["actual"][str(m)] for m in range(11, 15)] == [0, 0, 0, 0]

    @pytest.mark.slow
    def test_sc_census_stays_zero_through_degree_16(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "16", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["status"] == "pass" for c in payload["checks"])
        census = next(c for c in payload["checks"] if c["id"] == "sc.relation-census")
        assert [census["actual"][str(m)] for m in range(11, 17)] == [0] * 6

    @pytest.mark.slow
    def test_sc_census_stays_zero_through_degree_18(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "18", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["status"] == "pass" for c in payload["checks"])
        census = next(c for c in payload["checks"] if c["id"] == "sc.relation-census")
        assert [census["actual"][str(m)] for m in range(11, 19)] == [0] * 8

    @pytest.mark.slow
    def test_sc_census_stays_zero_through_degree_20(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "20", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["status"] == "pass" for c in payload["checks"])
        census = next(c for c in payload["checks"] if c["id"] == "sc.relation-census")
        assert [census["actual"][str(m)] for m in range(11, 21)] == [0] * 10

    @pytest.mark.slow
    def test_sc_census_stays_zero_through_degree_22(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "22", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["status"] == "pass" for c in payload["checks"])
        census = next(c for c in payload["checks"] if c["id"] == "sc.relation-census")
        assert [census["actual"][str(m)] for m in range(11, 23)] == [0] * 12

    def test_z3_with_parameters(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--scenario", "z3", "--alpha", "1", "--beta", "1",
             "--gamma", "1", "--max-degree", "6"],
            capsys,
        )
        assert code == 0

    def test_z3_tables_hold_through_degree_16(self, capsys):
        assert_z3_tables_hold(16, capsys)

    def test_z3_tables_hold_through_degree_20(self, capsys):
        assert_z3_tables_hold(20, capsys)

    @pytest.mark.slow
    def test_z3_tables_hold_through_degree_24(self, capsys):
        assert_z3_tables_hold(24, capsys)

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

    @pytest.mark.parametrize("scenario", ["sc", "all"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_sc_degree_floor_is_ten(self, scenario, fmt, capsys, tmp_path):
        report = tmp_path / "out.json"
        code, out, err = run_cli(
            ["verify", "--scenario", scenario, "--max-degree", "9", "--format", fmt,
             "--report", str(report)],
            capsys,
        )
        assert code == 2
        assert err == "error: the sc suite needs max_degree >= 10\n"
        assert out == ""
        assert not report.exists()

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


def clear_fixture_caches():
    """Empty every fixture cache, so that the next load reads the files."""
    from godeaux.scenarios import fixtures

    for cache in (fixtures.descriptor, fixtures._z3_relations, fixtures._z3_claimed_bases,
                  fixtures._polynomial_lines, fixtures._substitution):
        cache.cache_clear()


def edited_fixture(monkeypatch, fixture, old, new):
    """Serve the fixture file with old replaced by new; returns the cleanup
    that empties the fixture caches again."""
    from godeaux.scenarios import fixtures

    read = fixtures._read
    monkeypatch.setattr(
        fixtures, "_read", lambda name: read(name).replace(old, new) if name == fixture else read(name)
    )
    clear_fixture_caches()
    return clear_fixture_caches


@pytest.fixture
def served(monkeypatch):
    """Fixture texts by file name, served in place of the shipped files;
    the fixture caches are emptied afterwards."""
    from godeaux.scenarios import fixtures

    read = fixtures._read
    texts = {}
    monkeypatch.setattr(fixtures, "_read", lambda name: texts.get(name) or read(name))
    yield texts
    texts.clear()
    clear_fixture_caches()


def verify_served(args, capsys):
    """(exit code, ids of the failed checks, stderr) of `verify` with every
    fixture read afresh."""
    clear_fixture_caches()
    code, out, err = run_cli(["verify", *args, "--format", "json"], capsys)
    checks = json.loads(out)["checks"] if out else []
    return code, [c["id"] for c in checks if c["status"] == "fail"], err


class TestRingFileErrors:
    """A ring file, or the z5 plane file, that does not parse (or lists
    other than five planes) fails every check of its suite, with the ids of
    a good run and the error as each actual value; exit 1."""

    @pytest.mark.parametrize(
        "args, fixture, old, new, error",
        [
            (["--scenario", "z3", "--max-degree", "6"], "z3.ring", "x2 1 2", "x2 1",
             "line 5: unrecognised line 'x2 1'"),
            (["--scenario", "sc", "--max-degree", "10"], "sc.ring", "a 1 0", "a 1",
             "line 4: unrecognised line 'a 1'"),
            (["--scenario", "z4", "--max-degree", "6"], "z4.ring", "x1 1 1", "x1 1 1 extra",
             "line 4: unrecognised line 'x1 1 1 extra'"),
            (["--scenario", "z5", "--max-degree", "6"], "z5.ring", "x1 1 1", "x1 1",
             "line 4: unrecognised line 'x1 1'"),
            (["--scenario", "z5", "--max-degree", "6"], "z5_planes.txt", "x1 + x2", "x1 +* x2",
             "unexpected '*' (at position 4)"),
            (["--scenario", "z5", "--max-degree", "6"], "z5_planes.txt", "x1 + x2 + x3 + x4\n",
             "", "z5_planes.txt lists 4 planes, not 5"),
        ],
        ids=["z3.ring", "sc.ring", "z4.ring", "z5.ring", "z5_planes.txt", "z5_planes.txt-four"],
    )
    def test_every_check_fails_with_the_parse_error(
        self, args, fixture, old, new, error, capsys, monkeypatch
    ):
        argv = ["verify", *args, "--format", "json"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        good = [c["id"] for c in json.loads(out)["checks"]]
        clear = edited_fixture(monkeypatch, fixture, old, new)
        try:
            code, out, err = run_cli(argv, capsys)
        finally:
            clear()
        assert (code, err) == (1, "")
        checks = json.loads(out)["checks"]
        assert [c["id"] for c in checks] == good
        for check in checks:
            assert (check["status"], check["actual"]) == ("fail", error)

    def test_z3_relations_renamed_fail_every_check(self, capsys, monkeypatch):
        clear = edited_fixture(monkeypatch, "z3_relations.txt", "H2 6 2", "H3 6 2")
        try:
            code, out, err = run_cli(
                ["verify", "--scenario", "z3", "--max-degree", "6", "--format", "json"], capsys
            )
        finally:
            clear()
        assert (code, err) == (1, "")
        checks = json.loads(out)["checks"]
        assert sum(c["id"].startswith("z3.placement.") for c in checks) == 10
        assert {c["status"] for c in checks} == {"fail"}
        assert "H3" in checks[0]["actual"]


class TestScFixtureErrors:
    """A broken sc fixture fails every sc check, with the same ids as a good
    run and the error text as each actual value; verify exits 1."""

    def sc_checks(self, capsys, expected_code=1):
        code, out, err = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "10", "--format", "json"], capsys
        )
        assert (code, err) == (expected_code, "")
        return json.loads(out)["checks"]

    def assert_every_check_fails_with(self, checks, good, error):
        assert [c["id"] for c in checks] == [c["id"] for c in good]
        assert sum(c["id"].startswith("sc.claimed-generator.") for c in checks) == 13
        for check in checks:
            assert (check["status"], check["actual"]) == ("fail", error)

    def test_raising_descriptor(self, capsys, monkeypatch):
        from godeaux.scenarios import fixtures

        good = self.sc_checks(capsys, expected_code=0)

        def broken():
            raise ValueError("bad fixture line")

        monkeypatch.setattr(fixtures, "sc_descriptor", broken)
        self.assert_every_check_fails_with(self.sc_checks(capsys), good, "bad fixture line")

    def test_variable_of_degree_two(self, capsys, monkeypatch):
        # `a 2 0` in sc.ring leaves the conic inhomogeneous.
        good = self.sc_checks(capsys, expected_code=0)
        clear = edited_fixture(monkeypatch, "sc.ring", "a 1 0", "a 2 0")
        try:
            checks = self.sc_checks(capsys)
        finally:
            clear()
        self.assert_every_check_fails_with(
            checks, good, "modulus polynomials must be homogeneous"
        )

    def test_substitution_missing_an_image(self, capsys, monkeypatch):
        # The restriction maps c nowhere: the parity condition meets a
        # monomial in c with no image to substitute.
        from godeaux.scenarios import fixtures

        good = self.sc_checks(capsys, expected_code=0)
        restriction = fixtures.sc_restriction
        monkeypatch.setattr(
            fixtures, "sc_restriction",
            lambda: {v: img for v, img in restriction().items() if v != "c"},
        )
        self.assert_every_check_fails_with(
            self.sc_checks(capsys), good, "missing image for variable(s): c"
        )

    def test_all_exits_1_with_the_other_suites_intact(self, capsys, monkeypatch):
        from godeaux.scenarios import fixtures

        def broken():
            raise ValueError("bad fixture line")

        monkeypatch.setattr(fixtures, "sc_descriptor", broken)
        code, out, err = run_cli(
            ["verify", "--scenario", "all", "--max-degree", "10", "--format", "json"], capsys
        )
        assert (code, err) == (1, "")
        failed = {c["id"] for c in json.loads(out)["checks"] if c["status"] != "pass"}
        assert failed and all(i.startswith("sc.") for i in failed)


# Each polynomial line of a fixture, mutated three ways: its sign flipped,
# its last term dropped, and its first coefficient raised by 1.
SC_MUTATED_FIXTURES = ("sc_generators.txt", "sc_conic.txt", "sc_involution.txt",
                       "sc_restriction.txt")


def _mutants(p):
    """The three mutants of p that differ from it, by name."""
    terms = p.sorted_terms()
    out = {"flip": -p}
    if terms:
        out["drop"] = Polynomial(p.descriptor, dict(terms[:-1]))
        e, c = terms[0]
        out["raise"] = Polynomial(p.descriptor, {**p.terms, e: c + 1})
    return {kind: q for kind, q in out.items() if q != p}


def _is_multiple(q, p):
    """Whether q is a nonzero rational multiple of p."""
    if q.is_zero() or set(q.terms) != set(p.terms):
        return False
    e = next(iter(p.terms))
    return q == p.scale(q.terms[e] / p.terms[e])


def _assert_fixture_mutants(fixture, desc, scenario, valid, capsys, monkeypatch):
    """Serve every mutant of every polynomial line of fixture in its place
    and run `verify` on scenario at degree 10: a mutant q of line p for
    which valid(q, p) holds must pass every check with exit 0, and every
    other mutant must exit 1 with a `fail` check."""
    from godeaux.scenarios import fixtures

    read = fixtures._read
    lines = read(fixture).splitlines()
    served = {}
    monkeypatch.setattr(fixtures, "_read", lambda name: served.get(name) or read(name))
    caches = (fixtures.descriptor, fixtures._polynomial_lines, fixtures._substitution,
              fixtures._z3_relations)
    outcomes = []
    try:
        for k, raw in enumerate(lines):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            var, _, src = line.rpartition(":")
            p = parse_polynomial(src, desc)
            for kind, q in _mutants(p).items():
                text = f"{var.strip()} : {q}" if var else str(q)
                served[fixture] = "\n".join([*lines[:k], text, *lines[k + 1:]])
                for cache in caches:
                    cache.cache_clear()
                code, out, err = run_cli(
                    ["verify", "--scenario", scenario, "--max-degree", "10", "--format", "json"],
                    capsys,
                )
                failed = [c["id"] for c in json.loads(out)["checks"] if c["status"] == "fail"]
                outcomes.append((k + 1, kind, text, code, bool(failed), err, valid(q, p)))
    finally:
        served.clear()
        for cache in caches:
            cache.cache_clear()
    assert outcomes
    for line, kind, text, code, failed, err, ok in outcomes:
        expected = (0, False, "") if ok else (1, True, "")
        assert (code, failed, err) == expected, (fixture, line, kind, text)


@pytest.mark.slow
@pytest.mark.parametrize("fixture", SC_MUTATED_FIXTURES)
def test_every_sc_fixture_mutant_fails_a_check(fixture, capsys, monkeypatch):
    from godeaux.scenarios import fixtures

    # A nonzero multiple of a claimed generator lies in V and generates the
    # same algebra over Q, and a multiple of the conic generates the same
    # ideal: those mutants are still valid fixtures, and every claim must
    # hold.  Every other mutant must fail a check.
    multiples_valid = fixture in SC_MUTATED_FIXTURES[:2]
    _assert_fixture_mutants(
        fixture, fixtures.sc_descriptor(), "sc",
        lambda q, p: multiples_valid and _is_multiple(q, p), capsys, monkeypatch,
    )


@pytest.mark.slow
def test_every_z5_plane_mutant_fails_a_check(capsys, monkeypatch):
    from godeaux.scenarios import fixtures

    # A nonzero multiple c*p of a plane p cuts out the same plane, so every
    # rank of the arrangement is unchanged, and it multiplies the quintic by
    # c.  The sign flip has c = -1: the quintic only changes sign, which
    # keeps it invariant and nonzero at each fixed point, so that mutant is
    # valid and every check must hold.  Every other mutant must fail a check.
    _assert_fixture_mutants(
        "z5_planes.txt", fixtures.z5_descriptor(), "z5", _is_multiple, capsys, monkeypatch
    )


@pytest.mark.slow
def test_every_z3_relation_mutant_fails_a_check(capsys, monkeypatch):
    from godeaux.scenarios import fixtures

    # H0, H1 and H2 enter no syzygy check, and -H_i generates the same ideal
    # as H_i: every table is unchanged, and x2^2 * H_i stays in the ideal of
    # f, g and h with its certificate negated.  So their sign flips are valid
    # fixtures and every check must hold.  The syzygy checks are identities
    # with fixed signs in f0..2, g0..2 and h0, so a flip of one of those
    # fails them; every other mutant must fail a check.
    h = [p for name, _, _, p in fixtures.z3_relations() if name.startswith("H")]
    _assert_fixture_mutants(
        "z3_relations.txt", fixtures.z3_descriptor(), "z3",
        lambda q, p: p in h and q == -p, capsys, monkeypatch,
    )


@pytest.mark.slow
def test_every_z3_basis_mutant_fails_a_table_bases_check(served, capsys):
    # Per (degree, weight) line: the last monomial dropped, the last replaced
    # by the first (a repeat), and the last replaced by x2 times it, a
    # monomial of another bidegree (an empty line gets x2).  None of these
    # lists is a basis of its piece.
    from godeaux.scenarios import fixtures

    lines = fixtures._read("z3_bases.txt").splitlines()
    outcomes = []
    for k, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, body = line.split(":", 1)
        mons = [piece.strip() for piece in body.split(",") if piece.strip()]
        mutants = {"times-x2": mons[:-1] + [f"x2*{mons[-1]}"] if mons else ["x2"]}
        if mons:
            mutants["drop"] = mons[:-1]
        if len(mons) >= 2:
            mutants["repeat"] = mons[:-1] + mons[:1]
        for kind, mutant in mutants.items():
            text = f"{head}: {', '.join(mutant)}"
            served["z3_bases.txt"] = "\n".join([*lines[:k], text, *lines[k + 1:]])
            code, failed, err = verify_served(
                ["--scenario", "z3", "--mode", "numeric", "--max-degree", "6"], capsys
            )
            outcomes.append((kind, text, code, failed, err))
    assert {kind for kind, *_ in outcomes} == {"times-x2", "drop", "repeat"}
    for kind, text, code, failed, err in outcomes:
        assert (code, err) == (1, ""), (kind, text)
        assert failed and all(c.startswith("z3.table-bases.") for c in failed), (kind, text)


RING_SCENARIOS = {"z3.ring": "z3", "z4.ring": "z4", "z5.ring": "z5", "sc.ring": "sc"}


@pytest.mark.slow
def test_every_ring_degree_and_weight_mutant_fails_a_check(served, capsys):
    # Per variable line of each ring file: its degree raised by one, lowered
    # by one where positive, and its weight raised by one modulo the torsion
    # order where that order is above 1.  Each must fail a check of its suite.
    from godeaux.scenarios import fixtures

    outcomes = []
    for fixture, scenario in RING_SCENARIOS.items():
        lines = fixtures._read(fixture).splitlines()
        fields = [raw.split("#", 1)[0].split() for raw in lines]
        (torsion,) = (int(f[1]) for f in fields if f[:1] == ["torsion_order"])
        for k, parts in enumerate(fields):
            if len(parts) != 3:
                continue
            name, degree, weight = parts[0], int(parts[1]), int(parts[2])
            mutants = [(degree + 1, weight)]
            if degree > 0:
                mutants.append((degree - 1, weight))
            if torsion > 1:
                mutants.append((degree, (weight + 1) % torsion))
            for d, w in mutants:
                text = f"{name} {d} {w}"
                served[fixture] = "\n".join([*lines[:k], text, *lines[k + 1:]])
                code, failed, err = verify_served(
                    ["--scenario", scenario, "--max-degree", "10"], capsys
                )
                outcomes.append((fixture, text, code, bool(failed), err))
        served.clear()
    assert len(outcomes) == 57
    for fixture, text, code, failed, err in outcomes:
        assert (code, failed, err) == (1, True, ""), (fixture, text)


@pytest.mark.parametrize(
    "line, reason", [("0", "zero"), ("a*b + a", "not homogeneous")], ids=["zero", "inhomogeneous"]
)
def test_a_bad_sc_claim_fails_only_its_own_check(line, reason, capsys, monkeypatch):
    # The first claimed generator, a*b, replaced: its own check fails with
    # the reason, the span checks count without it, and the checks that do
    # not read the claims still pass.
    from godeaux.scenarios import fixtures

    read = fixtures._read
    lines = read("sc_generators.txt").splitlines()
    k = lines.index("a*b")
    served = {"sc_generators.txt": "\n".join([*lines[:k], line, *lines[k + 1:]])}
    monkeypatch.setattr(fixtures, "_read", lambda name: served.get(name) or read(name))
    fixtures._polynomial_lines.cache_clear()
    try:
        code, out, err = run_cli(
            ["verify", "--scenario", "sc", "--max-degree", "10", "--format", "json"], capsys
        )
    finally:
        served.clear()
        fixtures._polynomial_lines.cache_clear()
    assert (code, err) == (1, "")
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    failed = {cid for cid, c in checks.items() if c["status"] == "fail"}
    # Without a*b the products fall short in degree 2, where dim V_2 = 2.
    assert failed == {"sc.claimed-generator.0", "sc.claimed-generation"}
    assert checks["sc.claimed-generator.0"]["actual"] == f"claimed generator 0 is {reason}"
    assert checks["sc.claimed-generation"]["actual"]["2"] is False
    assert checks["sc.relation-census"]["actual"] == checks["sc.relation-census"]["expected"]


def test_all_keeps_each_suite_config(capsys):
    # The merged report records what each suite ran with: here the
    # parameters and samples that --alpha changes.
    def report(*extra):
        # argparse keeps the last --scenario given.
        code, out, _ = run_cli(
            ["verify", "--scenario", "all", "--max-degree", "10", "--format", "json",
             *extra],
            capsys,
        )
        assert code == 0
        return json.loads(out)

    plain, moved = report(), report("--alpha=3/2")
    assert plain["config"] != moved["config"]
    suites = moved["config"]["suites"]
    assert list(suites) == ["z3", "z4", "z5", "sc"]
    assert suites["z3"]["params"] == ["3/2", "0", "0"]
    assert suites["z3"]["samples"][0] == ["3/2", "0", "0"]
    assert plain["config"]["suites"]["z3"]["params"] == ["0", "0", "0"]
    assert suites["sc"]["truncation"] == "generation and relations verified up to degree 10"
    # Each suite's config as its own report gives it, and the merged
    # check list is each suite's, in suite order.
    singles = {name: report("--scenario", name, "--alpha=3/2") for name in suites}
    for name, single in singles.items():
        assert suites[name] == single["config"], name
    assert moved["checks"] == [c for single in singles.values() for c in single["checks"]]


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


    def test_parameter_ring_table_is_pinned(self, capsys, tmp_path):
        # The z3 ring with its degree-0 parameters alpha, beta, gamma and the
        # relations f0, f1, f2, h0: pieces with columns beyond the parameter
        # cap.  The table was recorded before ideal pieces took sparse rows.
        ring = (Path(godeaux.__file__).parent / "data" / "z3.ring").read_text()
        path = tmp_path / "h.ring"
        path.write_text(
            ring
            + "rel x2*z1 + y0^2 - y1*y2\n"
            + "rel x2*z2 + y0*y1 - y2^2\n"
            + "rel x2^4 + y0*y2 - y1^2\n"
            + "rel y0^3 - 2*y0*y1*y2 + y2^3 + alpha*x2^6 + beta*x2^4*y1"
            + " + gamma*x2^2*y0*y2\n"
        )
        code, out, _ = run_cli(
            ["hilbert", "--ring", str(path), "--max-degree", "8", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == {
            "ring": str(path),
            "max_degree": 8,
            "torsion_order": 3,
            "rows": {
                "0": [8, 0, 0],
                "1": [0, 0, 8],
                "2": [8, 16, 8],
                "3": [16, 16, 16],
                "4": [24, 24, 24],
                "5": [40, 40, 40],
                "6": [55, 48, 48],
                "7": [64, 64, 71],
                "8": [87, 94, 87],
            },
        }


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

    @pytest.mark.parametrize("loader", ["sc_conic", "sc_claimed_generators", "sc_descriptor"])
    def test_bad_fixture_exits_2(self, loader, capsys, tmp_path, monkeypatch):
        from godeaux.scenarios import fixtures

        def broken():
            raise ValueError("bad fixture line")

        monkeypatch.setattr(fixtures, loader, broken)
        gens = tmp_path / "gens.txt"
        report = tmp_path / "pres.json"
        code, out, err = run_cli(
            ["sc-build", "--max-degree", "3", "--generators-out", str(gens),
             "--report", str(report)],
            capsys,
        )
        assert code == 2
        assert err == "error: bad fixture line\n"
        assert out == ""
        assert not gens.exists() and not report.exists()

    def test_substitution_missing_an_image_exits_2(self, capsys, tmp_path, monkeypatch):
        from godeaux.scenarios import fixtures

        restriction = fixtures.sc_restriction
        monkeypatch.setattr(
            fixtures, "sc_restriction",
            lambda: {v: img for v, img in restriction().items() if v != "c"},
        )
        gens = tmp_path / "gens.txt"
        report = tmp_path / "pres.json"
        code, out, err = run_cli(
            ["sc-build", "--max-degree", "3", "--generators-out", str(gens),
             "--report", str(report)],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: missing image for variable(s): c\n"
        assert not gens.exists() and not report.exists()


    @pytest.mark.parametrize(
        "line, reason", [("0", "zero"), ("a*b + a", "not homogeneous")],
        ids=["zero", "inhomogeneous"],
    )
    def test_a_bad_claim_is_no_member_with_its_reason(
        self, line, reason, capsys, tmp_path, monkeypatch
    ):
        # The first claimed generator, a*b, replaced: the build still writes
        # both files and exits 0, and the claim is reported as no member.
        from godeaux.scenarios import fixtures

        read = fixtures._read
        lines = read("sc_generators.txt").splitlines()
        k = lines.index("a*b")
        served = {"sc_generators.txt": "\n".join([*lines[:k], line, *lines[k + 1:]])}
        monkeypatch.setattr(fixtures, "_read", lambda name: served.get(name) or read(name))
        fixtures._polynomial_lines.cache_clear()
        gens = tmp_path / "gens.txt"
        report = tmp_path / "pres.json"
        try:
            code, _, err = run_cli(
                ["sc-build", "--max-degree", "10", "--generators-out", str(gens),
                 "--report", str(report)],
                capsys,
            )
        finally:
            served.clear()
            fixtures._polynomial_lines.cache_clear()
        assert (code, err) == (0, "")
        assert len(gens.read_text().strip().splitlines()) == 13
        payload = json.loads(report.read_text())
        assert payload["relation_total"] == 54
        comparison = payload["claimed_generator_comparison"]
        assert comparison[0] == {
            "index": 0,
            "generator": line.replace(" ", ""),
            "in_computed_subring": False,
            "reason": f"claimed generator 0 is {reason}",
        }
        assert all(entry["in_computed_subring"] is True for entry in comparison[1:])
        assert all("reason" not in entry for entry in comparison[1:])

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
