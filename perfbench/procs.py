"""Child processes of the benchmark: spawn, time, reap.

Every child runs from the repository root with ``src`` first on
``PYTHONPATH``, any armed failpoint plan (``REPRO_FAULTS*``) removed,
``TMPDIR`` inside the run's scratch directory and single-threaded BLAS,
so the measured work is the one pricing thread the workload defines.
Children inherit the CPU affinity :func:`pin_to_one_cpu` sets. Each
child is waited for, and killed first if it overruns its budget.
"""

from __future__ import annotations

import os
import pathlib
import statistics
import subprocess
import sys
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

__all__ = ["ROOT", "pin_to_one_cpu", "child_env", "spawn", "reap", "run",
           "ready_seconds", "import_split"]


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU.

    On a 2-vCPU VM, keeping both vCPUs busy (serve-zipf's callers plus
    the server) let the hypervisor steal ~20 % of their time, swinging
    throughput by a third from run to run; on one CPU the steal stayed
    near 1 %.
    """
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        except OSError:     # affinity is locked down: measure unpinned
            pass


def child_env(scratch: pathlib.Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_FAULTS")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    tmp = scratch / "tmp"
    tmp.mkdir(exist_ok=True)
    env["TMPDIR"] = str(tmp)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(cmd: list[str], env: dict[str, str], log: pathlib.Path,
          stdout=subprocess.DEVNULL) -> subprocess.Popen:
    with open(log, "ab") as fh:
        return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, stderr=fh)


def _watchdog(proc: subprocess.Popen, timeout_s: float):
    """A started timer that kills ``proc`` after ``timeout_s``, and its flag."""
    fired = threading.Event()

    def kill() -> None:
        fired.set()
        proc.kill()

    timer = threading.Timer(timeout_s, kill)
    timer.start()
    return timer, fired


def reap(proc: subprocess.Popen, timeout_s: float, what: str, log: pathlib.Path):
    """Wait for ``proc`` (killing it past ``timeout_s``); return its rusage.

    ``os.wait4`` yields the child's own peak RSS, which the ``Popen``
    API does not expose. Raises if the child failed.
    """
    timer, fired = _watchdog(proc, timeout_s)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if fired.is_set():
        raise RuntimeError(f"{what} overran {timeout_s:g} s and was killed")
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").strip().splitlines()[-15:]
        raise RuntimeError(f"{what} exited {proc.returncode}:\n" + "\n".join(tail))
    return usage


def run(cmd: list[str], env: dict[str, str], log: pathlib.Path, what: str,
        timeout_s: float = 170.0):
    return reap(spawn(cmd, env, log), timeout_s, what, log)


def ready_seconds(cmd: list[str], env: dict[str, str], log: pathlib.Path,
                  marker: str, timeout_s: float = 60.0):
    """Spawn ``cmd`` and time it until a stdout line starts with ``marker``.

    Returns ``(seconds, proc, line)``; the caller reaps ``proc``.
    """
    t0 = time.perf_counter()
    proc = spawn(cmd, env, log, stdout=subprocess.PIPE)
    timer, _ = _watchdog(proc, timeout_s)
    try:
        for raw in proc.stdout:
            line = raw.decode("utf-8", "replace")
            if line.startswith(marker):
                return time.perf_counter() - t0, proc, line
    finally:
        timer.cancel()
    reap(proc, 10.0, " ".join(cmd[1:3]), log)
    raise RuntimeError(f"{' '.join(cmd[1:3])} exited before printing {marker!r}")


def import_split(env: dict[str, str], probes: int = 3) -> dict:
    """``import repro`` from fresh interpreters, split by ``-X importtime``.

    Medians over ``probes`` interpreters of the cumulative import time of
    ``repro``, ``numpy`` and ``networkx`` (0 for a package never imported).
    """
    samples = []
    for _ in range(probes):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import repro"],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        cumulative: dict[str, int] = {}
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]))
        samples.append(cumulative)
    return {
        f"import.{name}_ms": statistics.median(s.get(pkg, 0) for s in samples) / 1e3
        for name, pkg in (("total", "repro"), ("numpy", "numpy"), ("networkx", "networkx"))
    }
