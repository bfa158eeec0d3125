"""Child processes under a memory cap, and the machine record.

Every child runs with an address-space limit set by ``setrlimit`` in the
child only, so a runaway allocation ends as a ``MemoryError`` inside the
child instead of waking the kernel's OOM killer.  Children run one at a
time; each is reaped with ``wait4`` so its own peak RSS is known.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS/OpenMP pools run single-threaded: the timed work is numpy element-wise
# code, and one thread keeps a shared two-core machine's timings steady.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STDERR_TAIL = 600


class _Timeout(Exception):
    pass


@dataclass
class ChildResult:
    exit_code: int          # negative: killed by that signal
    wall_s: float
    cpu_s: float            # user + system time of the child
    max_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool = False

    @property
    def stderr_tail(self) -> str:
        return self.stderr[-STDERR_TAIL:]


def child_env() -> dict[str, str]:
    """Environment of every child: absolute ``src`` on PYTHONPATH, capped pools."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


def run_child(argv: list[str], cwd: Path, mem_cap_bytes: int, timeout_s: float) -> ChildResult:
    """Run one child to completion and return its exit, wall time and peak RSS."""
    out_path, err_path = cwd / ".child.stdout", cwd / ".child.stderr"

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mem_cap_bytes, mem_cap_bytes))

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, preexec_fn=limit)
        timed_out = False

        def on_alarm(signum, frame):
            raise _Timeout

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    result = ChildResult(
        exit_code=proc.returncode, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        timed_out=timed_out)
    out_path.unlink()
    err_path.unlink()
    return result


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "evtboost.cli", "--runlog", "runs.log", *args]


def _meminfo_mb() -> float:
    try:
        with open("/proc/meminfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return float("nan")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def src_digest() -> str:
    """sha256 over the package sources, identifying the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((SRC / "evtboost").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def machine_record(mem_cap_bytes: int, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    env = child_env()
    return {
        "nproc": os.cpu_count(),
        "mem_total_mb": round(_meminfo_mb(), 1),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "mem_cap_mb": mem_cap_bytes / 2 ** 20,
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": src_digest(),
    }
