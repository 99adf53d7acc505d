"""Tests of the benchmark itself: oracles, pass accounting and the tracer.

Run from the repository root:  PYTHONPATH=src python -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run as bench  # noqa: E402
from workloads import SC_MAX_DEGREE, WORKLOADS, Generated, plurigenus, z5_ring_dim  # noqa: E402

ROOT = HERE.parent


def _check(cid, expected, actual=None):
    actual = expected if actual is None else actual
    return {"id": cid, "description": "", "paper_ref": "", "expected": expected,
            "actual": actual, "status": "pass" if expected == actual else "fail"}


def _report(scenario, checks, config=None):
    return json.dumps({"scenario": scenario, "config": config or {}, "checks": checks,
                       "timing_ms": 1234, "version": "0.1.0"})


def sc_report(seed=77):
    top = SC_MAX_DEGREE
    census = {str(m): {6: 6, 7: 12, 8: 18, 9: 12, 10: 6}.get(m, 0) for m in range(1, top + 1)}
    checks = [
        _check("sc.subspace-dimensions", {str(m): plurigenus(m) for m in range(top + 1)}),
        _check("sc.multiplicative-closure", [True] * 11),
        _check("sc.generator-census", {"2": 2, "3": 4, "4": 4, "5": 3}),
    ]
    checks += [_check(f"sc.claimed-generator.{i}", True) for i in range(13)]
    checks += [
        _check("sc.claimed-generation", {str(m): True for m in range(1, 11)}),
        _check("sc.relation-census", census),
        _check("sc.relation-total", 54),
    ]
    return _report("sc", checks, {"seed": seed})


def z4_report(seed=5):
    table = {f"{m}.{w}": (1 if w == 0 else 0) if m == 0 else (0 if w == 0 else 1)
             if m == 1 else 1 + m * (m - 1) // 2 for m in range(17) for w in range(4)}
    checks = [_check("z4.sample-valid", True), _check("z4.koszul", True),
              _check("z4.dimension-table", table), _check("z4.seed-independence", table)]
    return _report("z4", checks, {"seed": seed})


def test_oracles_accept_correct_reports():
    assert WORKLOADS["sc-census"].check([sc_report()], {"seed": 77}) == []
    assert WORKLOADS["z4-dense"].check([z4_report()], {"seed": 5}) == []


def _corrupt(text, cid, edit):
    doc = json.loads(text)
    check = next(c for c in doc["checks"] if c["id"] == cid)
    edit(check)
    check["status"] = "pass"  # a report that lies about its own status
    return json.dumps(doc)


def test_dropped_relation_is_caught():
    bad = _corrupt(sc_report(), "sc.relation-census",
                   lambda c: c["actual"].update({"8": 17}))
    errors = WORKLOADS["sc-census"].check([bad], {"seed": 77})
    assert any("sc.relation-census" in e for e in errors)


def test_table_entry_off_by_one_is_caught():
    def bump(c):
        c["actual"]["9.2"] += 1
    bad = _corrupt(z4_report(), "z4.dimension-table", bump)
    assert WORKLOADS["z4-dense"].check([bad], {"seed": 5})


def test_failed_status_and_missing_check_are_caught():
    doc = json.loads(sc_report())
    doc["checks"][1]["status"] = "fail"
    assert WORKLOADS["sc-census"].check([json.dumps(doc)], {"seed": 77})
    doc = json.loads(sc_report())
    del doc["checks"][-1]
    assert WORKLOADS["sc-census"].check([json.dumps(doc)], {"seed": 77})


def _pass(report):
    data = {"setup_s": 0.1, "busy_s": 1.0, "post_s": 0.0,
            "steps": [{"argv": ["verify", "--scenario", "sc"], "rc": 0, "stdout": report}]}
    return bench.Pass(wall_s=1.0, rss_mb=10.0, exit_code=0, data=data)


def _accounted_run(reports, tmp_path):
    gen = Generated([["verify"]], context={"seed": 77})
    run = bench.Run(WORKLOADS["sc-census"], gen, seconds=0, workdir=tmp_path)
    for report in reports:
        run.record(_pass(report))
    return run


def test_corrupted_report_counts_in_failed_ratio(tmp_path):
    bad = _corrupt(sc_report(), "sc.relation-total", lambda c: c.update(actual=53))
    run = _accounted_run([sc_report(), bad, sc_report()], tmp_path)
    assert (run.failed, len(run.passes)) == (1, 3)


def test_same_seed_reports_may_differ_only_in_timing(tmp_path):
    doc = json.loads(sc_report())
    doc["timing_ms"] = 99999
    assert _accounted_run([sc_report(), json.dumps(doc)], tmp_path).failed == 0
    doc["config"]["extra"] = "drift"
    assert _accounted_run([sc_report(), json.dumps(doc)], tmp_path).failed == 1


def test_cyclo_oracle_matches_the_program(tmp_path):
    """The z5 report and the inclusion-exclusion table agree with real output."""
    from godeaux import cli

    gen = WORKLOADS["cyclo-z5"].generate(3, tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(gen.steps[0]) == 0
    rows = {str(m): [z5_ring_dim(m, w) for w in range(5)]
            for m in range(13)}
    table = json.dumps({"ring": gen.context["ring"], "max_degree": 12,
                        "torsion_order": 5, "rows": rows})
    assert WORKLOADS["cyclo-z5"].check([out.getvalue(), table], gen.context) == []
    rows["7"][2] += 1
    bad = json.dumps({"ring": gen.context["ring"], "max_degree": 12,
                      "torsion_order": 5, "rows": rows})
    assert WORKLOADS["cyclo-z5"].check([out.getvalue(), bad], gen.context)


def test_generation_is_seeded(tmp_path):
    for workload in WORKLOADS.values():
        made = []
        for tag, seed in (("a", 11), ("b", 11), ("c", 12)):
            workdir = tmp_path / workload.name / tag
            workdir.mkdir(parents=True)
            gen = workload.generate(seed, workdir)
            files = [(workdir / p).read_text() for p in gen.inputs]
            made.append((gen.steps, gen.context, files))
        assert made[0] == made[1]
        assert made[0] != made[2]


def test_traced_pass_patches_names_where_they_are_used(tmp_path):
    """A traced child pass sees calls made through by-name imports and leaves
    the report unchanged."""
    spec = {"fixtures": ["z3_descriptor", "z3_relations"], "inputs": [], "trace": True,
            "steps": [["verify", "--scenario", "z3", "--mode", "symbolic", "--format", "json"]]}
    path = tmp_path / "spec.json"
    outputs = []
    for trace in (True, False):
        spec["trace"] = trace
        path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(path)],
                              cwd=tmp_path, env=bench.child_env(), capture_output=True,
                              text=True, timeout=120, check=True)
        outputs.append(json.loads(proc.stdout))
    traced, plain = outputs
    assert bench.normalise(traced["steps"][0]["stdout"]) == \
        bench.normalise(plain["steps"][0]["stdout"])
    calls = traced["trace"]["calls"]
    # graded imports solve_columns by name; linalg.rref sits beneath it.
    assert calls["linalg.solve"] == calls["graded.reduces_to_zero"] == 3
    assert calls["linalg.rref"] >= 3 and calls["scalars.inv"] > 0
    assert calls["poly.parse"] > 0 and calls["scenarios.fixtures"] > 0
    metrics = layers.per_layer(traced["trace"])
    assert metrics["graded.reduces_to_zero.calls"] == 3
    assert metrics["subring.presentation.self_s"] == 0.0


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.units())
    assert {m["name"] for m in spec["end_to_end"]} == {"verdict_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_child_environment_is_pinned(monkeypatch):
    monkeypatch.setenv("GODEAUX_MAX_WORKERS", "4")
    env = bench.child_env()
    assert env["PYTHONHASHSEED"] == "0"
    assert "GODEAUX_MAX_WORKERS" not in env
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert bench.child_env(bench.REFERENCE_SRC)["PYTHONPATH"] == str(HERE / "reference")


def _fake_spawn(walls, reference_rc=0):
    """A stand-in for bench.spawn: a correct sc pass whose wall time depends
    on which godeaux tree it ran."""
    def spawn(spec_path, workdir, timeout, src=bench.PROGRAM_SRC):
        side = "reference" if src == bench.REFERENCE_SRC else "program"
        p = _pass(sc_report())
        p.wall_s = walls[side]
        p.data["setup_s"] = walls[side] / 100
        if side == "reference" and reference_rc:
            p.exit_code, p.data = reference_rc, None
            p.errors.append(f"pass exited with {reference_rc}: boom")
        return p
    return spawn


def test_times_are_ratios_to_the_reference_in_reference_seconds(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "spawn", _fake_spawn({"program": 3.0, "reference": 2.0}))
    run = bench.Run(WORKLOADS["sc-census"], Generated([["verify"]], context={"seed": 77}),
                    seconds=0, workdir=tmp_path)
    metrics = bench.measure_end_to_end(run)
    scale = bench.REFERENCE_S["sc-census"]
    assert metrics["verdict_s"][0] == pytest.approx(1.5 * scale["verdict_s"])
    assert metrics["setup_s"][0] == pytest.approx(1.5 * scale["setup_s"])
    assert (run.failed, len(run.passes)) == (0, 1)


def test_a_failed_reference_pass_fails_its_program_pass(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "spawn", _fake_spawn({"program": 1.0, "reference": 1.0}, 1))
    run = bench.Run(WORKLOADS["sc-census"], Generated([["verify"]], context={"seed": 77}),
                    seconds=0, workdir=tmp_path)
    p, _ = run.paired(tmp_path / "spec.json", reference_first=True)
    assert not p.ok and run.failed == 1

