"""Resource and noise capture, CPU pinning, and the ``repro serve`` subprocess.

Everything here observes the system from outside: ``/proc/<pid>/stat``,
``status`` and ``io`` for the process under test, a fixed pure-Python
calibration kernel as the run's own noise probe, and ``sched_setaffinity``
so the driver and the server never share (or migrate between) CPUs — the
difference between a bimodal 2.1 k / 4.2 k ops/s pair and a steady one on a
2-vCPU box.
"""

from __future__ import annotations

import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: the checkout root (``benchmarks/e2e/proc.py`` -> two levels up).
ROOT = Path(__file__).resolve().parents[2]
SOURCE = ROOT / "src"
#: every file the benchmark writes lives here; removed when a run ends.
WORK = ROOT / ".bench_work"
#: span logs of traced runs (JSON lines), kept after the run.
TRACES = WORK / "traces"

_TICKS = os.sysconf("SC_CLK_TCK")
#: a calibration sample this much above the run's median marks a disturbed slice.
DISTURBED_FACTOR = 1.15
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 60.0


# ------------------------------------------------------------------ affinity


@dataclass(frozen=True)
class CpuPlan:
    """Which CPUs the driver and a server subprocess run on."""

    driver: tuple[int, ...]
    server: tuple[int, ...]
    note: str


def cpu_plan() -> CpuPlan:
    """Driver on the first allowed CPU, a server subprocess on the rest.

    In-process workloads run wholly on the driver CPU (one CPU, so the GIL
    never ping-pongs between cores).  With a single allowed CPU nothing is
    pinned.
    """
    allowed = tuple(sorted(os.sched_getaffinity(0)))
    if len(allowed) < 2:
        return CpuPlan(allowed, allowed, f"1 cpu {allowed}: no pinning")
    return CpuPlan(
        allowed[:1], allowed[1:], f"driver cpu {allowed[:1]}, server cpus {allowed[1:]}"
    )


def pin_driver(plan: CpuPlan) -> None:
    if plan.driver != plan.server:
        os.sched_setaffinity(0, plan.driver)


# -------------------------------------------------------------- /proc sampling


@dataclass(frozen=True)
class ProcSample:
    """One reading of a process's counters (all cumulative except rss)."""

    cpu_seconds: float
    rss_mb: float
    peak_rss_mb: float
    ctx_voluntary: int
    ctx_involuntary: int
    write_chars: int


def _status_fields(path: Path) -> dict[str, int]:
    fields: dict[str, int] = {}
    for line in path.read_text().splitlines():
        name, _, rest = line.partition(":")
        parts = rest.split()
        if parts and parts[0].isdigit():
            fields[name] = int(parts[0])
    return fields


def sample(pid: int | None = None) -> ProcSample:
    """Read ``/proc/<pid>`` (default: this process).

    CPU time comes from ``stat`` (all threads, dead ones included) in clock
    ticks — 10 ms, which is why it is only ever differenced across phases
    that last seconds.  Context switches are summed over the live threads.
    """
    base = Path("/proc") / (str(pid) if pid is not None else "self")
    # comm may hold spaces or parentheses: split after the last ')'.
    stat = (base / "stat").read_text().rpartition(")")[2].split()
    cpu_seconds = (int(stat[11]) + int(stat[12])) / _TICKS
    status = _status_fields(base / "status")
    voluntary = involuntary = 0
    for task in (base / "task").iterdir():
        try:
            fields = _status_fields(task / "status")
        except OSError:  # the thread exited between listdir and read
            continue
        voluntary += fields.get("voluntary_ctxt_switches", 0)
        involuntary += fields.get("nonvoluntary_ctxt_switches", 0)
    write_chars = 0
    for line in (base / "io").read_text().splitlines():
        if line.startswith("wchar:"):
            write_chars = int(line.split()[1])
    return ProcSample(
        cpu_seconds=cpu_seconds,
        rss_mb=status.get("VmRSS", 0) / 1024,
        peak_rss_mb=status.get("VmHWM", 0) / 1024,
        ctx_voluntary=voluntary,
        ctx_involuntary=involuntary,
        write_chars=write_chars,
    )


def directory_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path`` (the durable footprint)."""
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


# ---------------------------------------------------------- calibration kernel


def calibration_ms() -> float:
    """Wall time of a fixed pure-Python kernel, in milliseconds.

    Run between slices: the work never changes, so a slow sample means the
    machine (not the system under test) was disturbed at that moment.
    """
    started = time.perf_counter_ns()
    total = 0
    for index in range(20_000):
        total += index * index % 7
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return (time.perf_counter_ns() - started) / 1e6


def calibration_summary(samples: list[float]) -> dict[str, float]:
    median = statistics.median(samples)
    disturbed = sum(1 for value in samples if value > median * DISTURBED_FACTOR)
    return {
        "machine.calib_ms_min": min(samples),
        "machine.calib_ms_med": median,
        "machine.disturbed_share": disturbed / len(samples),
    }


# ------------------------------------------------------------------- work dirs


def make_work_dir(label: str) -> Path:
    """A fresh directory under :data:`WORK`, unique to this process."""
    path = WORK / f"{label}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def child_environment() -> dict[str, str]:
    """Environment of every subprocess: the checkout's sources only, a fixed
    hash seed (dict layout is a run-to-run noise source), unbuffered output."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = str(SOURCE)
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONUNBUFFERED"] = "1"
    return environment


# ------------------------------------------------------------ server subprocess


class ServerError(RuntimeError):
    """The ``repro serve`` subprocess did not start, or died."""


class ServerProcess:
    """One ``repro serve`` subprocess bound to an ephemeral port.

    ``start`` waits (bounded) for the ``serving ... on host:port`` line;
    ``stop`` always reaps the child: SIGINT for a graceful drain (falls back
    to SIGKILL at the timeout) or straight SIGKILL for the crash workloads.
    """

    def __init__(self, arguments: list[str], log_path: Path, cpus: tuple[int, ...]) -> None:
        self.arguments = arguments
        self.log_path = log_path
        self.cpus = cpus
        self.process: subprocess.Popen | None = None
        self.host = ""
        self.port = 0

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def _pin(self) -> None:
        os.sched_setaffinity(0, self.cpus)

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
            "--port", "0", *self.arguments,
        ]
        with open(self.log_path, "ab") as log:
            offset = log.tell()
            # preexec_fn is safe here: the driver is single-threaded.
            self.process = subprocess.Popen(
                command,
                stdout=log,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                cwd=ROOT,
                env=child_environment(),
                preexec_fn=self._pin if self.cpus else None,
            )
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        try:
            while True:
                with open(self.log_path, "rb") as log:
                    log.seek(offset)
                    text = log.read().decode("utf-8", "replace")
                for line in text.splitlines():
                    if line.startswith("serving ") and " on " in line:
                        address = line.rsplit(" on ", 1)[1].strip()
                        self.host, _, port = address.rpartition(":")
                        self.port = int(port)
                        return
                if self.process.poll() is not None:
                    raise ServerError(
                        f"server exited with code {self.process.returncode}: {text[-400:]}"
                    )
                if time.monotonic() > deadline:
                    raise ServerError(f"server did not start in {SERVER_START_TIMEOUT}s")
                time.sleep(0.002)
        except BaseException:
            self.stop(graceful=False)
            raise

    def stop(self, graceful: bool = True) -> int | None:
        """Stop and reap the child; returns its exit code."""
        process = self.process
        if process is None:
            return None
        if process.poll() is None:
            if graceful:
                process.send_signal(signal.SIGINT)
                try:
                    process.wait(timeout=SERVER_STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    process.kill()
            else:
                process.kill()
        code = process.wait()
        self.process = None
        return code
