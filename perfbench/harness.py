"""Accounting, time limits, child processes and summary statistics.

Every operation the benchmark times goes through a Ledger: an operation that
returns a wrong output, raises, or runs past its time limit counts as exactly
one failed operation, and the run goes on.
"""

from __future__ import annotations

import math
import os
import selectors
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


class OpTimeout(BaseException):
    """Raised inside an in-process operation when its time limit expires.

    It derives from BaseException so that the program's own
    ``except Exception`` guards (run_verify turns exceptions into failed
    items) cannot swallow it and keep a hung call running.
    """


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread once ``seconds`` of wall time pass."""

    def on_alarm(signum, frame):
        raise OpTimeout(f"time limit of {seconds:g} s exceeded")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Ledger:
    """Attempted and failed operation counts, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    reasons: List[str] = field(default_factory=list)

    def fail(self, label: str, why: str, mismatch: bool = False) -> None:
        self.failed += 1
        if mismatch:
            self.mismatches += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{label}: {why}")

    def run(self, label: str, fn: Callable[[], object], limit: float) -> "OpResult":
        """Run ``fn`` under a time limit as one attempted operation.

        A timeout or an exception fails it.  Judging the returned value is
        left to the caller, through :meth:`check`.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            with time_limit(limit):
                value = fn()
        except OpTimeout as exc:
            self.fail(label, str(exc))
            return OpResult(False, None, start, time.perf_counter())
        except Exception as exc:                     # noqa: BLE001 - count, keep going
            self.fail(label, f"{type(exc).__name__}: {exc}")
            return OpResult(False, None, start, time.perf_counter())
        return OpResult(True, value, start, time.perf_counter())

    def check(self, label: str, ok: bool, why: str = "wrong output") -> bool:
        if not ok:
            self.fail(label, why, mismatch=True)
        return ok


@dataclass
class OpResult:
    completed: bool
    value: object
    start: float
    end: float


@dataclass
class ChildResult:
    returncode: Optional[int]
    stdout: bytes
    stderr: bytes
    start: float
    end: float
    maxrss_kb: int
    timed_out: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


def run_child(argv: Sequence[str], env: Dict[str, str], limit: float) -> ChildResult:
    """Run one child process to completion or until ``limit`` seconds pass.

    The child is reaped with wait4 so that its own peak RSS is known; on a
    timeout it is killed and reaped before returning.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(list(argv), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + limit
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(None if timed_out else proc.returncode,
                       b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                       start, end, usage.ru_maxrss, timed_out)


def child_env(root: str) -> Dict[str, str]:
    """Environment for children: the checkout's sources and no user config."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PBRACKET_CONFIG", "PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def python_argv(*args: str) -> List[str]:
    return [sys.executable, *args]


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def harrell_davis(ordered: Sequence[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile of sorted samples: a
    Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics."""
    n = len(ordered)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def tail(samples: Sequence[float]) -> Dict[str, float]:
    """The highest percentile with at least 10 samples beyond it.

    That percentile is the 11th largest sample's, 100 (n - 10) / n.  Its value
    is the Harrell-Davis estimate, which weighs the order statistics around
    the 11th largest: invocation costs come in clusters, and the single 11th
    largest sample jumped between them from seed to seed.  The record keeps
    the 11th largest too.  With fewer than 11 samples no such percentile
    exists and the maximum is reported at percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return {"value": ordered[-1], "percentile": 100.0, "samples": n, "beyond": 0,
                "order_statistic": ordered[-1]}
    return {"value": harrell_davis(ordered, (n - 10) / n),
            "percentile": round(100.0 * (n - 10) / n, 2), "samples": n, "beyond": 10,
            "order_statistic": ordered[n - 11]}


def self_test(root: str) -> List[str]:
    """Check the accounting on deliberately bad operations.

    A wrong output, a raised exception, an in-process timeout and a child
    process that outlives its limit must each count as exactly one failed
    operation without stopping the run.  Returns the problems found.
    """
    problems = []
    ledger = Ledger()
    ledger.check("wrong", ledger.run("wrong", lambda: 2 + 2, 5.0).value == 5)

    def boom():
        raise ValueError("deliberate")

    ledger.run("raises", boom, 5.0)
    ledger.run("sleeps", lambda: time.sleep(5.0), 0.05)
    ledger.attempted += 1
    child = run_child(python_argv("-c", "import time; time.sleep(30)"),
                      child_env(root), 0.5)
    if child.timed_out:
        ledger.fail("child", "time limit of 0.5 s exceeded")
    ok = ledger.run("fine", lambda: 1, 5.0)
    ledger.check("fine", ok.value == 1)
    if (ledger.attempted, ledger.failed) != (5, 4):
        problems.append(f"self-test counted {ledger.failed} failed of "
                        f"{ledger.attempted} attempted, expected 4 of 5")
    if child.seconds > 5.0:
        problems.append(f"child time limit took {child.seconds:.1f} s to act")
    return problems
