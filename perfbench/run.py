"""Benchmark of the evtboost command-line pipeline.

Usage:
    python3 perfbench/run.py --mem-cap-mb MB --workload NAME --seed N --seconds S
                             --trace 0|1

Untraced (``--trace 0``): set the workload up several times, then run its
CLI commands as a batch user does, one child process per command and one
at a time, for about ``--seconds``; every output is checked.  Prints the
end-to-end metrics.  The benchmark and its children are pinned to one CPU,
and each timed interval is scaled by a reference task timed on that CPU
just before and just after it (see ``reference_s``).

Traced (``--trace 1``): run the same commands in-process, in one child
interpreter without and one with timing wrappers on every layer's public
functions, and print the per-layer metrics derived from the spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A run record with the machine,
every sample, the output digests and each failure's stderr tail is
written under ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

import spans
from child import ROOT, SRC, STDERR_TAIL, cli_argv, machine_record, run_child

# set-up repeats at least this often and for at least this long; setup_s is
# the median, so a short set-up gets more repeats against scheduling noise
SETUP_MIN_REPEATS, SETUP_MIN_S = 3, 8.0
RUN_BUDGET_S = 170.0      # the whole run, set-up included, ends within this
IMPORT_PROBES = 3
IN_PROCESS_MIN_S = 3.0    # traced mode repeats short in-process passes this long
STATE_DIR = ROOT / ".perfbench"

E2E_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}
# setup_s, pipeline_s and the per-command times are scaled to a CPU on which
# reference_s() takes this long.  Its task runs this often in a row: speed
# swings within a second, and a longer reference reads them less
REFERENCE_NOMINAL_S, REFERENCE_REPEATS = 0.6, 4


def reference_s() -> float:
    """Wall time of a fixed task of interpreted loops, numpy sorts and
    transcendental functions on large arrays: the kinds of work the CLI does.

    On a shared machine each CPU's speed swings by tens of percent for tens
    of seconds at a time, and the CPUs swing apart.  With the benchmark and
    its children pinned to one CPU, this task's time moves with a command's
    time, so their ratio stays steady when the CPU's speed changes.
    """
    import numpy as np

    x = np.linspace(-3.0, 3.0, 12600) ** 3 % 1.7
    t0 = time.perf_counter()
    acc = 0
    for _ in range(REFERENCE_REPEATS):
        for i in range(600_000):
            acc += i * i % 7
        for _ in range(200):
            acc += float(np.cumsum(x[np.argsort(x)])[-1])
        acc += float(np.exp(-5.0 * np.log1p(np.outer(x[:1000], np.arange(1.0, 4097.0)) ** 2)).sum())
    return time.perf_counter() - t0


def pin_to_one_cpu() -> int:
    """Pin this process, and so every child it starts, to its lowest allowed CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "cells/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rows"):
        return "rows"
    if name.endswith("_cells"):
        return "cells"
    if name.endswith(("_calls", "_errors")):
        return "count"
    return "ratio"


class Run:
    """Failure accounting, samples and digests of one benchmark run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failures: list[dict] = []
        self.check_errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.accuracy: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}
        self.rss_mb: list[float] = []        # timed commands
        self.probe_rss_mb: list[float] = []  # probes, which feed no metric
        self.step_walls: dict[str, list[float]] = {}
        self.step_cpu: dict[str, list[float]] = {}
        self.shares: dict[str, float] = {}   # traced: where one pass spends its time
        self.reference: list[float] | None = None  # untraced: reference_s() timings

    def scaled(self, wall: float) -> float:
        """``wall`` at the reference speed.  Time the reference again and scale
        by the mean of the two timings around the interval; the last timing
        opens the next interval.  Unscaled when no reference is kept."""
        if self.reference is None:
            return wall
        self.reference.append(reference_s())
        return wall * REFERENCE_NOMINAL_S / ((self.reference[-2] + self.reference[-1]) / 2)

    def add_sample(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def record_step(self, step, workdir: Path, exit_code: int, exc: str | None,
                    stdout: str, stderr: str, check: bool = True) -> bool:
        """Count one command; True when it exited 0 and (if ``check``) its
        outputs check."""
        # workloads imports evtboost, so it is imported only once src is found
        from workloads import CheckError, known_failure, sha256

        self.attempted += 1
        reason = None
        if exit_code != 0 or exc is not None:
            reason = f"exit {exit_code}" + (f" ({exc})" if exc else "")
        elif check:
            try:
                for key, val in step.check(workdir, stdout).items():
                    self.accuracy.setdefault(key, []).append(val)
                for name in step.outputs:
                    self._digest(step.label, name, sha256(workdir / name))
            except CheckError as err:
                reason = f"output check: {err}"
                self.check_errors.append(f"{step.label}: {err}")
        if reason is None:
            return True
        self.failures.append({
            "step": step.label, "reason": reason,
            "known": known_failure(self.workload, step.label, exc, stderr),
            "stderr_tail": stderr[-STDERR_TAIL:]})
        return False

    def _digest(self, label: str, name: str, digest: str) -> None:
        key = f"{label}:{name}"
        if self.digests.setdefault(key, digest) != digest:
            self.check_errors.append(f"{key}: output differs between passes")

    @property
    def correct(self) -> bool:
        return not self.check_errors


def _summary(values: list[float]) -> dict:
    """Median, maximum and sample count.  A run holds a few passes, too few
    for any percentile to have ten samples beyond it, so the high mark is
    the maximum."""
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def _fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_setup(setup, seed: int, base: Path, repeats: int, min_s: float, run: Run):
    """Set up at least ``repeats`` times and for at least ``min_s`` seconds;
    keep the last directory, time each set-up, and require identical inputs
    from every repeat."""
    from workloads import sha256

    inputs, k, t_start = None, 0, time.perf_counter()
    while True:
        workdir = _fresh_dir(base / f"setup{k}")
        t0 = time.perf_counter()
        steps = setup(workdir, seed)
        wall = time.perf_counter() - t0
        run.add_sample("setup_wall_s", wall)
        run.add_sample("setup_s", run.scaled(wall))
        digests = {p.name: sha256(p) for p in sorted(workdir.iterdir())
                   if p.suffix != ".log"}
        if inputs is not None and digests != inputs:
            run.check_errors.append("set-up inputs differ between repeats")
        inputs = digests
        k += 1
        if k >= repeats and time.perf_counter() - t_start >= min_s:
            return workdir, steps
        shutil.rmtree(workdir)


def run_untraced(setup, seed, seconds, mem_cap, deadline, base, run: Run):
    run.reference = [reference_s()]
    workdir, steps = run_setup(setup, seed, base, SETUP_MIN_REPEATS, SETUP_MIN_S, run)

    def step_once(step) -> float | None:
        res = run_child(cli_argv(step.args), workdir, mem_cap, deadline - time.perf_counter())
        (run.probe_rss_mb if step.probe else run.rss_mb).append(res.max_rss_mb)
        run.step_walls.setdefault(step.label, []).append(res.wall_s)
        run.step_cpu.setdefault(step.label, []).append(res.cpu_s)
        exc = "timeout" if res.timed_out else None
        ok = run.record_step(step, workdir, res.exit_code, exc, res.stdout, res.stderr)
        scaled = run.scaled(res.wall_s)  # also after a failure: the next step's reference
        return (res.wall_s, scaled) if ok else None

    # probes run in every pass, so failed / attempted does not depend on how
    # many passes fit into the run
    probes = [s for s in steps if s.probe]
    timed = [s for s in steps if not s.probe]
    t_start, passes = time.perf_counter(), 0
    while True:
        for step in probes:
            step_once(step)
        results = {s.label: step_once(s) for s in timed}
        passes += 1
        if None not in results.values():
            walls = {label: r[1] for label, r in results.items()}
            run.add_sample("pipeline_wall_s", sum(r[0] for r in results.values()))
            run.add_sample("pipeline_s", sum(walls.values()))
            by_metric: dict[str, float] = {}
            for s in timed:
                if s.metric:
                    by_metric[s.metric] = by_metric.get(s.metric, 0.0) + walls[s.label]
            for metric, val in by_metric.items():
                run.add_sample(metric, val)
        now = time.perf_counter()
        per_pass = (now - t_start) / passes
        if now - t_start + per_pass > seconds or now + per_pass > deadline:
            break
    run.add_sample("peak_rss_mb", max(run.rss_mb))
    return {m: _summary(v) for m, v in run.samples.items()}


def run_traced(setup, seed, mem_cap, deadline, base, run: Run):
    recorder = spans.Recorder()
    recorder.cmd = "setup"
    spans.install(recorder, names={"dataset.save_csv"})
    workdir, steps = run_setup(setup, seed, base, 1, 0.0, run)

    imports = []
    probe_src = ("import time; t = time.perf_counter(); import evtboost.cli; "
                 "print(time.perf_counter() - t)")
    for _ in range(IMPORT_PROBES):
        res = run_child([sys.executable, "-c", probe_src], workdir, mem_cap,
                        deadline - time.perf_counter())
        if res.exit_code == 0:
            imports.append(float(res.stdout.strip()))

    walls, traced_spans = {}, []
    probes = [s for s in steps if s.probe]
    timed = [s for s in steps if not s.probe]
    for trace in (False, True):
        plan, result = workdir / "plan.json", workdir / "inproc.json"
        plan.write_text(json.dumps({
            "trace": trace, "min_seconds": IN_PROCESS_MIN_S,
            "probes": [["--runlog", "runs.log", *s.args] for s in probes],
            "steps": [["--runlog", "runs.log", *s.args] for s in timed]}), encoding="utf-8")
        res = run_child([sys.executable, str(Path(__file__).with_name("inproc.py")),
                         str(plan), str(result)], workdir, mem_cap,
                        deadline - time.perf_counter())
        if res.exit_code != 0:
            raise RuntimeError(f"in-process runner failed: {res.stderr_tail}")
        out = json.loads(result.read_text(encoding="utf-8"))
        # the files on disk are the last pass's: check those
        for k, one_pass in enumerate(out["passes"]):
            last = k == len(out["passes"]) - 1
            for step, r in (list(zip(probes, one_pass["probes"]))
                            + list(zip(timed, one_pass["steps"]))):
                run.record_step(step, workdir, r["exit_code"], r["exc"], r["stdout"],
                                r["stderr"], check=last)
        # interference from other processes only adds time: take the fastest pass
        walls[trace] = min(sum(r["wall_s"] for r in p["steps"]) for p in out["passes"])
        traced_spans = [s for s in out["spans"] if s["cmd"].startswith("0:")]

    metrics = spans.layer_metrics(spans.merge(recorder.spans, traced_spans))
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    run.shares = spans.pass_shares(
        [s for s in traced_spans if not s["cmd"].startswith("0:probe")],
        metrics["cli.import_s"])
    metrics["trace.overhead_frac"] = walls[True] / walls[False] - 1.0
    return metrics


def _print_report(args, run: Run, summaries: dict, machine: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"mem cap {machine['mem_cap_mb']:.0f} MB")
    for name, s in summaries.items():
        unit = E2E_UNITS.get(name, "s") if args.trace == 0 else layer_unit(name)
        if isinstance(s, dict):
            print(f"  {name:38s} median {s['median']:.6g} {unit}  "
                  f"max {s['max']:.6g}  n={s['n']}")
        else:
            print(f"  {name:38s} {s:.6g} {unit}")
    if run.reference:
        print(f"  times are scaled to a CPU where reference_s takes {REFERENCE_NOMINAL_S} s;"
              f" here its median was {statistics.median(run.reference):.4f} s"
              f" (n={len(run.reference)}); *_wall_s are unscaled")
    if run.probe_rss_mb:
        print(f"  {'probe max RSS (no metric)':38s} {max(run.probe_rss_mb):.6g} MB")
    if run.shares:
        print(f"  one pass of {run.shares['pass_s']:.3g} s, as shares: " + ", ".join(
            f"{k} {v:.2f}" for k, v in run.shares.items() if k != "pass_s"))
    for key, vals in run.accuracy.items():
        print(f"  {key:38s} median {statistics.median(vals):.10g}  n={len(vals)}")
    frac = len(run.failures) / run.attempted if run.attempted else 0.0
    print(f"  {'ops_failed_frac':38s} {frac:.4f} ratio  ({len(run.failures)} failed"
          f" / {run.attempted} attempted)")
    for f in run.failures:
        known = f"known: {f['known']}" if f["known"] else "NOT a known failure"
        print(f"  FAILED {f['step']}: {f['reason']} [{known}]")
        tail = f["stderr_tail"].strip().splitlines()[-3:]
        for line in tail:
            print(f"      | {line}")
    for err in run.check_errors:
        print(f"  CHECK {err}")
    print("  machine " + json.dumps(machine, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mem-cap-mb", type=int, required=True,
                        help="address-space limit of every child process")
    args = parser.parse_args(argv)
    t_begin = time.perf_counter()
    deadline = t_begin + RUN_BUDGET_S

    if not (SRC / "evtboost" / "cli.py").is_file():
        print(f"error: no evtboost sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    mem_cap = args.mem_cap_mb * 2 ** 20
    # on SIGTERM unwind, so the running child is killed and the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cpu = pin_to_one_cpu()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    base = _fresh_dir(STATE_DIR / "work" / tag)
    run = Run(args.workload)
    try:
        if args.trace:
            layer = run_traced(WORKLOADS[args.workload], args.seed, mem_cap, deadline,
                               base, run)
            summaries, result = layer, {k: (v, layer_unit(k)) for k, v in layer.items()}
        else:
            summaries = run_untraced(WORKLOADS[args.workload], args.seed, args.seconds,
                                     mem_cap, deadline, base, run)
            missing = [m for m in E2E_UNITS if m not in summaries]
            if missing:
                _print_report(args, run, summaries, machine_record(mem_cap, args.seed))
                print(f"error: no successful pass, so no value for {missing}",
                      file=sys.stderr)
                return 1
            result = {m: (summaries[m]["median"], u) for m, u in E2E_UNITS.items()}
    finally:
        shutil.rmtree(base, ignore_errors=True)

    machine = dict(machine_record(mem_cap, args.seed), pinned_cpu=cpu)
    _print_report(args, run, summaries, machine)
    record_dir = STATE_DIR / "records"
    record_dir.mkdir(parents=True, exist_ok=True)
    (record_dir / f"{tag}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "wall_s": time.perf_counter() - t_begin,
        "machine": machine, "samples": run.samples, "summaries": summaries,
        "step_walls": run.step_walls, "step_cpu": run.step_cpu, "rss_mb": run.rss_mb,
        "probe_rss_mb": run.probe_rss_mb, "shares": run.shares,
        "reference_s": run.reference,
        "accuracy": run.accuracy, "digests": run.digests, "failures": run.failures,
        "check_errors": run.check_errors}, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({
        "correct": run.correct, "attempted": run.attempted, "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
