"""Run CLI commands in one interpreter, optionally traced.

Usage: python3 inproc.py PLAN.json RESULT.json

PLAN holds {"trace": bool, "probes": [argv, ...], "steps": [argv, ...],
"min_seconds": float}.  Each argv is passed to ``evtboost.cli.main``.  The
commands run in passes, the probes first and then the steps, until
``min_seconds`` have gone by (at least one pass).  RESULT gets, per pass,
each command's exit code, exception, wall time and captured output, and the
spans when tracing was on; a span's ``cmd`` is "<pass>:probe<i>" or
"<pass>:<i>".
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import spans


def run_command(cli, recorder, argv, cmd) -> dict:
    out, err = io.StringIO(), io.StringIO()
    exc_name = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if recorder is None:
                code = cli.main(argv)
            else:
                recorder.cmd = cmd
                code = recorder.call("cli.main", cli.main, (argv,), {})
        except Exception as exc:  # counted as a failed command; the run goes on
            exc_name = type(exc).__name__
            code = 1
            traceback.print_exc()
    return {"exit_code": code, "exc": exc_name, "wall_s": time.perf_counter() - t0,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import evtboost.cli as cli

    recorder = spans.Recorder() if plan["trace"] else None
    if recorder is not None:
        spans.install(recorder)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < plan["min_seconds"]:
        k = len(passes)
        passes.append({
            "probes": [run_command(cli, recorder, argv, f"{k}:probe{i}")
                       for i, argv in enumerate(plan["probes"])],
            "steps": [run_command(cli, recorder, argv, f"{k}:{i}")
                      for i, argv in enumerate(plan["steps"])]})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"passes": passes, "spans": recorder.spans if recorder else []}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
