"""Verdict-time benchmark for godeaux.

Usage (from the repository root):

    python3 perfbench/run.py --workload {sc-census,z3-tables,z4-dense,cyclo-z5,all}
                             [--seed N] [--seconds S] [--trace 0|1]

Load is a closed loop with one client: each pass is a fresh interpreter that
runs the workload's CLI calls through ``godeaux.cli.main``, and the next pass
starts only when the previous one has exited.  Passes keep starting while the
next one is expected to end within ``--seconds`` (the first always runs).
Every pass's output is checked against the oracles in ``workloads.py`` and
against the first pass of the run, which used the same seed.

``--trace 0`` reports the end-to-end metrics.  Each pass of the program is
paired with a pass of ``reference/godeaux``, a frozen copy of godeaux run on
the same inputs right before or after it, and times are reported as the
median of the program-to-reference ratios, in reference seconds (see
``REFERENCE_S``).  On a shared host a vCPU's speed can drift by half or
more within minutes; the ratio of two passes taken seconds apart does not
drift with it.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last line
of standard output is one JSON object with keys correct, attempted, failed
and metrics.  Exit code 0 means the benchmark ran; incorrect outputs show in
``correct`` and ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SRC = ROOT / "src"
# godeaux as it was when the benchmark was written: the yardstick every timed
# pass is paired with.  Never edit it; a new yardstick needs new REFERENCE_S.
REFERENCE_SRC = HERE / "reference"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import WORKLOADS, Generated, Workload  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
DEFAULT_SECONDS = 60
# Whole-invocation limit; a pass still running near it is killed and failed.
DEADLINE_S = 170.0
# Fixed scales near the reference's pass and set-up times on the machine in
# README.md.  Only ratios to the reference are measured; a ratio is reported
# as that many of these seconds, so the metrics read as times.
REFERENCE_S = {
    "sc-census": {"verdict_s": 2.4, "setup_s": 0.042},
    "z3-tables": {"verdict_s": 2.6, "setup_s": 0.042},
    "z4-dense": {"verdict_s": 3.2, "setup_s": 0.040},
    "cyclo-z5": {"verdict_s": 5.7, "setup_s": 0.060},
}


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    exit_code: int
    data: dict | None = None
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def child_env(src: Path = PROGRAM_SRC) -> dict[str, str]:
    """A pinned environment: fixed hash seed, no worker cap, only the godeaux
    tree under test (src, or the reference) on the path."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "LC_ALL": "C.UTF-8",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(src),
    }


def spawn(spec_path: Path, workdir: Path, timeout: float, src: Path = PROGRAM_SRC) -> Pass:
    """Run one child pass; wall time spans spawn to exit."""
    out_path, err_path = workdir / "pass.out", workdir / "pass.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=workdir, env=child_env(src), stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = Pass(wall, usage.ru_maxrss / 1024.0, proc.returncode)
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()[-400:]
        result.errors.append(f"pass exited with {proc.returncode}: {tail}")
        return result
    try:
        result.data = json.loads(out_path.read_text(encoding="utf-8"))
    except ValueError:
        result.errors.append("pass printed no result")
    return result


def normalise(stdout: str) -> str:
    """A CLI output with the one field allowed to differ, timing_ms, removed."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return stdout
    if isinstance(doc, dict):
        doc.pop("timing_ms", None)
    return json.dumps(doc, sort_keys=True)


def evaluate(p: Pass, workload: Workload, gen: Generated, reference: list | None) -> list | None:
    """Append every reason the pass failed to p.errors; return its normalised
    outputs for the same-seed comparison (None if it produced none)."""
    if p.data is None:
        return None
    steps = p.data["steps"]
    for step in steps:
        if step["rc"] != 0:
            p.errors.append(f"{' '.join(step['argv'][:3])} exited with {step['rc']}")
    outputs = [step["stdout"] for step in steps]
    p.errors.extend(workload.check(outputs, gen.context))
    normalised = [normalise(s) for s in outputs]
    if reference is not None and normalised != reference:
        p.errors.append("report differs from the first pass on the same seed")
    return normalised


def write_spec(workdir: Path, name: str, workload: Workload, gen: Generated,
               *, steps: bool, trace: bool) -> Path:
    path = workdir / f"{name}.json"
    spec = {
        "fixtures": list(workload.fixtures),
        "inputs": gen.inputs,
        "steps": gen.steps if steps else [],
        "trace": trace,
    }
    path.write_text(json.dumps(spec), encoding="utf-8")
    return path


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One workload, one seed: the closed loop and its accounting."""

    def __init__(self, workload: Workload, gen: Generated, seconds: float, workdir: Path):
        self.workload = workload
        self.gen = gen
        self.seconds = seconds
        self.workdir = workdir
        self.begin = time.perf_counter()
        self.first_outputs: list | None = None
        self.passes: list[Pass] = []
        # Unscaled figures behind the end-to-end metrics, printed for people.
        self.raw: dict[str, tuple[float, str, int]] = {}

    def elapsed(self) -> float:
        return time.perf_counter() - self.begin

    def record(self, p: Pass) -> Pass:
        """Check a finished pass and count it."""
        normalised = evaluate(p, self.workload, self.gen, self.first_outputs)
        if self.first_outputs is None:
            self.first_outputs = normalised
        self.passes.append(p)
        return p

    def run_pass(self, spec: Path) -> Pass:
        return self.record(spawn(spec, self.workdir, DEADLINE_S - self.elapsed()))

    def probe(self, spec: Path, src: Path = PROGRAM_SRC) -> Pass:
        return spawn(spec, self.workdir, DEADLINE_S - self.elapsed(), src)

    def paired(self, spec: Path, reference_first: bool) -> tuple[Pass, Pass]:
        """A program pass and a reference pass back to back.  The reference is
        held to the same oracles; if it fails, so does the program pass."""
        if reference_first:
            ref = self.probe(spec, REFERENCE_SRC)
            p = spawn(spec, self.workdir, DEADLINE_S - self.elapsed())
        else:
            p = spawn(spec, self.workdir, DEADLINE_S - self.elapsed())
            ref = self.probe(spec, REFERENCE_SRC)
        evaluate(ref, self.workload, self.gen, None)
        p.errors.extend(f"reference pass: {e}" for e in ref.errors)
        return self.record(p), ref

    def has_time_for(self, expected_s: float) -> bool:
        return (self.elapsed() + expected_s <= self.seconds
                and self.elapsed() + 2 * expected_s < DEADLINE_S)

    @property
    def failed(self) -> int:
        return sum(not p.ok for p in self.passes)


def closed_loop(run: Run, cycle) -> None:
    """Repeat cycle() while another is expected to fit in the run's time;
    stop early once a pass is killed or crashes (cycle returns False)."""
    durations = []
    while True:
        start = time.perf_counter()
        finished = cycle()
        durations.append(time.perf_counter() - start)
        if not finished or not run.has_time_for(_median(durations)):
            return


def measure_end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    probe = write_spec(run.workdir, "probe", run.workload, run.gen, steps=False, trace=False)
    spec = write_spec(run.workdir, "pass", run.workload, run.gen, steps=True, trace=False)
    for src in (REFERENCE_SRC, PROGRAM_SRC):
        run.probe(probe, src)  # warm-up: compiles bytecode, untimed
    wall_ratios, setup_ratios = [], []
    reference: dict[str, list[float]] = {"wall_s": [], "setup_s": []}

    def cycle() -> bool:
        # The order alternates, so neither side always runs first.
        p, ref = run.paired(spec, reference_first=len(run.passes) % 2 == 0)
        if p.data is not None and ref.data is not None:
            setup_ratios.append(p.data["setup_s"] / ref.data["setup_s"])
            wall_ratios.append(p.wall_s / ref.wall_s)
            reference["wall_s"].append(ref.wall_s)
            reference["setup_s"].append(ref.data["setup_s"])
        return p.exit_code == 0 and ref.exit_code == 0

    closed_loop(run, cycle)
    scale = REFERENCE_S[run.workload.name]
    rss = [p.rss_mb for p in run.passes]
    run.raw = {
        "program_wall_s": (_median([p.wall_s for p in run.passes]), "s", len(run.passes)),
        "reference_wall_s": (_median(reference["wall_s"]), "s", len(reference["wall_s"])),
        "reference_setup_s": (_median(reference["setup_s"]), "s", len(reference["setup_s"])),
        "verdict_ratio": (_median(wall_ratios), "ratio", len(wall_ratios)),
    }
    return {
        "verdict_s": (scale["verdict_s"] * _median(wall_ratios), "s", len(wall_ratios)),
        "setup_s": (scale["setup_s"] * _median(setup_ratios), "s", len(setup_ratios)),
        "peak_rss_mb": (_median(rss), "MB", len(rss)),
    }


def measure_per_layer(run: Run) -> dict[str, tuple[float, str, int]]:
    probe = write_spec(run.workdir, "probe", run.workload, run.gen, steps=False, trace=False)
    plain_spec = write_spec(run.workdir, "pass", run.workload, run.gen, steps=True, trace=False)
    traced_spec = write_spec(run.workdir, "traced", run.workload, run.gen, steps=True, trace=True)
    run.probe(probe)
    plain, traced = [], []

    def cycle() -> bool:
        p = run.run_pass(plain_spec)
        if p.data is not None:
            plain.append(p)
        t = run.run_pass(traced_spec)
        if t.data is not None:
            traced.append(t)
        return p.exit_code == 0 and t.exit_code == 0

    closed_loop(run, cycle)
    values: dict[str, list[float]] = {}
    for t in traced:
        summary = t.data["trace"]
        for name, value in layers.per_layer(summary).items():
            values.setdefault(name, []).append(value)
        explained = t.wall_s - t.data["post_s"]
        values.setdefault("trace.unattributed_share", []).append(
            1.0 - summary["root_s"] / explained if explained > 0 else 0.0)
    plain_busy = _median([p.data["busy_s"] for p in plain])
    traced_busy = _median([t.data["busy_s"] for t in traced])
    values["trace.overhead_ratio"] = [traced_busy / plain_busy - 1.0 if plain_busy else 0.0]
    units = layers.units()
    return {name: (_median(values.get(name, [])), units[name], len(values.get(name, [])))
            for name in units}


# ---------------------------------------------------------------------------
# Provenance


def _git_sha() -> str:
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    src = ROOT / "src" / "godeaux"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "data_digest": _digest([p for p in (src / "data").iterdir() if p.is_file()]),
        "src_digest": _digest(list(src.rglob("*.py"))),
        "reference_digest": _digest(
            [p for p in (REFERENCE_SRC / "godeaux").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]),
    }


# ---------------------------------------------------------------------------
# Command line


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Run, dict]:
    workdir = HERE / "_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[name]
        run = Run(workload, workload.generate(seed, workdir), seconds, workdir)
        metrics = measure_per_layer(run) if trace else measure_end_to_end(run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only if no other run is using it
    return run, metrics


def print_run(name: str, run: Run, metrics: dict, trace: bool):
    attempted = len(run.passes)
    print(f"workload {name}: {attempted} passes, {run.failed} failed, "
          f"{run.elapsed():.1f} s{' (traced run)' if trace else ''}")
    for metric, (value, unit, n) in {**metrics, **run.raw}.items():
        print(f"  {metric:<42} {value:>14.6g} {unit:<6} median of {n}")
    if not trace:
        print(f"  {'failed_ratio':<42} {run.failed / attempted:>14.6g} ratio  "
              f"{run.failed} of {attempted} passes")
    for p in run.passes:
        if not p.ok:
            print(f"  failed pass: {'; '.join(p.errors)}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "godeaux" / "cli.py").is_file():
        print(f"error: no godeaux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    attempted = failed = 0
    metrics_out: dict[str, dict] = {}
    for name in names:
        run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_run(name, run, metrics, bool(args.trace))
        attempted += len(run.passes)
        failed += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, (value, unit, _) in metrics.items():
            metrics_out[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
