"""Measurement plumbing shared by every workload: spans, time limits, CLI
subprocesses, resource counters, machine facts and quantiles.

Nothing here knows about semlab's API; the workloads and the layer probes
do. Spans are recorded by the benchmark around the calls it makes into the
program, never inside the program.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import itertools
import json
import multiprocessing
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

# The CLI and the import probes run the checkout's sources, at the solver's
# default thread count (SEMLAB_THREADS would override it).
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k not in ("PYTHONPATH", "SEMLAB_THREADS")}
CHILD_ENV["PYTHONPATH"] = str(SRC)


def import_program():
    """Import semlab from the checkout's src/, never from site-packages."""
    if not (SRC / "semlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import semlab
    if SRC.resolve() not in Path(semlab.__file__).resolve().parents:
        raise SystemExit(f"perfbench: semlab imported from {semlab.__file__}, "
                         f"not from {SRC}")
    return semlab


# --- spans -----------------------------------------------------------------

@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``write`` dumps them when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    @contextlib.contextmanager
    def span(self, name: str, op: str, **attrs):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, op, attrs))

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        body = dict(header, spans=[asdict(s) for s in
                                   sorted(self.spans, key=lambda s: s.start)])
        path.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")


class NullTracer:
    """Tracing off: a span is a shared no-op context whose attribute dict
    is scratch space nobody reads."""

    _NULL = contextlib.nullcontext({})

    def span(self, name: str, op: str, **attrs):
        return self._NULL


# --- time limits -------------------------------------------------------------

class TimeLimit(Exception):
    """A library call or CLI invocation ran past its limit."""


# after the pool workers are killed, how long a call has to fail on its own
# before the time limit is raised into it
KILL_GRACE_S = 1.0


@contextlib.contextmanager
def time_limit(seconds: float):
    """Fail the enclosed library call with TimeLimit after ``seconds``.

    At the limit the call's pool workers are killed, so a parallel search
    fails at once with its own error. Only a call still running after
    KILL_GRACE_S, which can then only be in serial code in this process,
    gets TimeLimit raised into it by the signal handler."""
    if seconds <= 0:
        raise TimeLimit("no time left in the run")
    expired = []

    def on_alarm(signum, frame):
        expired.append(signum)
        for child in multiprocessing.active_children():
            child.kill()
        if len(expired) > 1:
            raise TimeLimit("library call timed out")
        signal.setitimer(signal.ITIMER_REAL, KILL_GRACE_S)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except Exception as exc:
        if expired and not isinstance(exc, TimeLimit):
            raise TimeLimit("library call timed out") from exc
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise TimeLimit("library call timed out")


@dataclass
class Proc:
    code: int
    stdout: str
    stderr: str
    seconds: float
    peak_rss_mb: float  # of the process or its largest reaped descendant


def run_python(args: list[str], timeout: float) -> Proc:
    """Run ``python3 args`` against the checkout's sources, killing its whole
    process group (pool workers included) when it runs past ``timeout``.

    The child is reaped with wait4 so that its own resource usage, pool
    workers included, is known."""
    if timeout <= 0:
        raise TimeLimit("no time left in the run")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=CHILD_ENV, cwd=ROOT,
                            start_new_session=True)
    killed = threading.Event()

    def kill():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended as the timer fired
            return
        killed.set()

    timer = threading.Timer(timeout, kill)
    streams = {}
    readers = [threading.Thread(target=lambda f=f: streams.__setitem__(
        f, f.read().decode(errors="replace"))) for f in (proc.stdout, proc.stderr)]
    timer.start()
    for t in readers:
        t.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        for t in readers:
            t.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if killed.is_set():
        raise TimeLimit(f"{' '.join(args[:4])} ... timed out")
    return Proc(proc.returncode, streams[proc.stdout], streams[proc.stderr],
                time.perf_counter() - start, usage.ru_maxrss / 1024.0)


def run_cli(args: list[str], timeout: float) -> Proc:
    return run_python(["-m", "semlab.cli", *args], timeout)


# --- resources ---------------------------------------------------------------

def cpu_seconds() -> float:
    """User + system CPU of this process and of every reaped descendant."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def own_peak_rss_mb() -> float:
    """Peak RSS of this process, which runs the library calls."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- statistics ----------------------------------------------------------------

def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile (pct in 1..99) of at least two values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# --- machine facts -------------------------------------------------------------

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
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=dict(
            os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_facts() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "networkx": version("networkx"),
        "git_commit": _git_commit(),
    }
