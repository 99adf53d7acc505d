"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

The spec names the CLI calls to make, the fixture loaders and generated input
files to load first, and whether to trace.  The pass imports godeaux, loads
the fixtures and inputs (the set-up time), then calls ``godeaux.cli.main`` once
per CLI call with stdout captured.  It prints one JSON object: the set-up and
busy times, each call's exit code and output, and the trace summary if traced.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import godeaux.cli  # noqa: F401

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    from godeaux.poly import load_ring_file
    from godeaux.scenarios import fixtures

    for loader in spec["fixtures"]:
        getattr(fixtures, loader)()
    for path in spec["inputs"]:
        load_ring_file(path)
    setup_s = time.perf_counter() - _T0

    steps = []
    for argv in spec["steps"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = godeaux.cli.main(argv)
        steps.append({"argv": argv, "rc": rc, "stdout": out.getvalue()})
    busy_s = time.perf_counter() - _T0

    result = {"setup_s": setup_s, "busy_s": busy_s, "steps": steps}
    if tracer is not None:
        result["trace"] = tracer.summary()
    result["post_s"] = time.perf_counter() - _T0 - busy_s
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
