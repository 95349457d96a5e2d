"""Deterministic fault injection: named failpoints and retry policies.

Robust systems need their failure paths exercised as routinely as their
happy paths, and killing a sweep process (the crash-injection harness in
``tests/flow/test_distributed.py``) only reaches the coarsest failure
mode. This module makes faults a first-class, *deterministic* input to
the stack:

* **failpoints** — every interesting I/O or compute boundary calls
  :func:`faultpoint` with a stable dotted name (``ledger.append.fsync``,
  ``artifacts.load.read``, ``sweep.compile`` …). When no plan is armed the
  call is a dict lookup and a ``None`` check — effectively free — and
  the site behaves exactly as if the line were absent.
* **fault plans** — a plan is a list of rules, each binding a failpoint
  name (fnmatch globs allowed) to an action fired at the Nth hit:
  ``raise`` an :class:`~repro.errors.InjectedFault`, ``delay`` the
  caller, ``corrupt`` or ``short``-write the payload bytes flowing
  through the site, or ``kill`` the current process with SIGKILL.
  Plans are armed programmatically (:func:`arm_faults`,
  :func:`injected_faults`) or via the ``REPRO_FAULTS`` environment
  variable — the latter is how sweep subprocesses inherit a schedule.
* **cross-process one-shots** — a rule marked ``!once`` fires at most
  once *globally* by claiming an ``O_CREAT|O_EXCL`` sentinel file in
  the ``REPRO_FAULTS_STATE`` directory; every fire is also appended to
  ``fires.log`` there, so a chaos harness can assert that each intended
  fault really happened even when it fired inside a process that was
  then killed.
* **retries** — :class:`RetryPolicy` wraps transient I/O with bounded
  attempts and a seeded-deterministic exponential backoff + jitter
  schedule, so retry timing is a pure function of ``(seed, key)`` and
  property-testable.

Rule grammar (rules joined by ``;``)::

    point:action[=arg][@nth][xcount][!once]

    ledger.append.fsync:raise@2        raise at the 2nd hit
    sweep.compile:delay=1.5@3!once     sleep 1.5 s at the 3rd hit, once
                                       globally across all processes
    artifacts.load.read:corrupt        flip a byte of the 1st read
    ledger.append.write:short          truncate the 1st write payload
    sweep.compile:kill@5x2             SIGKILL at the 5th and 6th hits
    ledger.*:raise@1x*                 raise at every hit from the 1st

Hit counters are per-process and per-point. ``xcount`` widens the firing
window (``x*`` = every hit from ``nth`` on); the default is exactly one
firing hit per process.
"""

from __future__ import annotations

import fnmatch
import os
import re
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import ConfigError, InjectedFault
from .utils import stable_digest

__all__ = [
    "FAULTS_ENV",
    "FAULTS_STATE_ENV",
    "FaultRule",
    "FaultPlan",
    "parse_faults",
    "arm_faults",
    "disarm_faults",
    "active_plan",
    "injected_faults",
    "faultpoint",
    "fire_counts",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "retry_count",
]

#: Environment variable holding a fault-plan spec; parsed lazily on the
#: first faultpoint hit of each process, so child processes pick it up
#: with no plumbing.
FAULTS_ENV = "REPRO_FAULTS"

#: Directory for cross-process fault state: ``!once`` sentinel files and
#: the ``fires.log`` audit trail.
FAULTS_STATE_ENV = "REPRO_FAULTS_STATE"

ACTIONS = ("raise", "delay", "corrupt", "short", "kill")

_RULE_RE = re.compile(
    r"^(?P<point>[A-Za-z0-9_.*?\[\]-]+)"
    r":(?P<action>raise|delay|corrupt|short|kill)"
    r"(?:=(?P<arg>[0-9]*\.?[0-9]+))?"
    r"(?:@(?P<nth>[1-9][0-9]*))?"
    r"(?:x(?P<count>[1-9][0-9]*|\*))?"
    r"(?P<once>!once)?$"
)


@dataclass(frozen=True)
class FaultRule:
    """One armed fault: fire ``action`` at hits ``nth .. nth+count-1``.

    ``count=0`` means unbounded (every hit from ``nth`` on); ``arg`` is
    the delay in seconds for ``delay`` (ignored by other actions);
    ``once`` makes the rule a global one-shot via the state directory.
    """

    point: str
    action: str
    nth: int = 1
    count: int = 1
    arg: float = 0.0
    once: bool = False

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ConfigError(f"unknown fault action {self.action!r}")
        if self.nth < 1 or self.count < 0:
            raise ConfigError(f"bad fault window in {self.spec()!r}")

    def matches(self, name: str) -> bool:
        return fnmatch.fnmatchcase(name, self.point)

    def in_window(self, hit: int) -> bool:
        if hit < self.nth:
            return False
        return self.count == 0 or hit < self.nth + self.count

    def spec(self) -> str:
        out = f"{self.point}:{self.action}"
        if self.arg:
            out += f"={self.arg:g}"
        if self.nth != 1:
            out += f"@{self.nth}"
        if self.count != 1:
            out += "x*" if self.count == 0 else f"x{self.count}"
        if self.once:
            out += "!once"
        return out


def parse_faults(spec: str) -> tuple[FaultRule, ...]:
    """Parse a ``;``-joined rule spec (see module docstring for grammar)."""
    rules = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        m = _RULE_RE.match(part)
        if m is None:
            raise ConfigError(
                f"bad fault rule {part!r}; expected "
                "point:action[=arg][@nth][xcount][!once] with action in "
                + "/".join(ACTIONS)
            )
        rules.append(FaultRule(
            point=m.group("point"),
            action=m.group("action"),
            nth=int(m.group("nth") or 1),
            count=0 if m.group("count") == "*" else int(m.group("count") or 1),
            arg=float(m.group("arg") or 0.0),
            once=m.group("once") is not None,
        ))
    return tuple(rules)


class FaultPlan:
    """An armed set of fault rules with per-process hit/fire counters."""

    def __init__(
        self,
        rules: Sequence[FaultRule],
        state_dir: str | os.PathLike | None = None,
    ):
        self.rules = tuple(rules)
        self.state_dir = None if state_dir is None else str(state_dir)
        self.hits: dict[str, int] = {}
        self.fired: dict[str, int] = {}

    # -- cross-process state ---------------------------------------------------

    def _claim_once(self, rule: FaultRule) -> bool:
        """Claim a global one-shot sentinel; True iff we won the race.

        Without a state directory ``!once`` degrades to per-process
        semantics (the per-process firing window already bounds it).
        """
        if self.state_dir is None:
            return True
        os.makedirs(self.state_dir, exist_ok=True)
        sentinel = os.path.join(
            self.state_dir, f"once-{stable_digest(rule.spec())}"
        )
        try:
            os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            return True
        except FileExistsError:
            return False

    def _log_fire(self, name: str, rule: FaultRule) -> None:
        self.fired[f"{name}:{rule.action}"] = (
            self.fired.get(f"{name}:{rule.action}", 0) + 1
        )
        if self.state_dir is None:
            return
        try:
            os.makedirs(self.state_dir, exist_ok=True)
            line = f"{name}:{rule.action}:{os.getpid()}\n".encode()
            fd = os.open(
                os.path.join(self.state_dir, "fires.log"),
                os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644,
            )
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
        except OSError:  # pragma: no cover - audit trail is best-effort
            pass

    # -- firing ----------------------------------------------------------------

    def hit(self, name: str, data: bytes | None = None) -> bytes | None:
        hit_no = self.hits.get(name, 0) + 1
        self.hits[name] = hit_no
        for rule in self.rules:
            if not (rule.matches(name) and rule.in_window(hit_no)):
                continue
            if rule.once and not self._claim_once(rule):
                continue
            data = self._fire(rule, name, data)
        return data

    def _fire(
        self, rule: FaultRule, name: str, data: bytes | None
    ) -> bytes | None:
        self._log_fire(name, rule)
        if rule.action == "raise":
            raise InjectedFault(f"injected fault at failpoint {name!r}")
        if rule.action == "delay":
            time.sleep(rule.arg)
            return data
        if rule.action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
            raise AssertionError("unreachable")  # pragma: no cover
        if data is None:
            return None
        if rule.action == "corrupt":
            # Flip one mid-payload byte: deterministic, detectable by any
            # digest/fingerprint audit, and invisible to length checks.
            buf = bytearray(data)
            buf[len(buf) // 2] ^= 0xFF
            return bytes(buf)
        # "short": surrender half the payload, as ENOSPC would.
        return data[: len(data) // 2]


#: The active plan. ``_UNSET`` means "not yet resolved" — the first
#: faultpoint hit lazily parses ``REPRO_FAULTS`` (usually to ``None``),
#: after which the disarmed fast path is a single identity check.
_UNSET: object = object()
_PLAN: FaultPlan | None | object = _UNSET


def _load_env_plan() -> FaultPlan | None:
    spec = os.environ.get(FAULTS_ENV, "").strip()
    if not spec:
        return None
    return FaultPlan(parse_faults(spec),
                     state_dir=os.environ.get(FAULTS_STATE_ENV) or None)


def active_plan() -> FaultPlan | None:
    """The armed plan, resolving ``REPRO_FAULTS`` on first use."""
    global _PLAN
    if _PLAN is _UNSET:
        _PLAN = _load_env_plan()
    return _PLAN  # type: ignore[return-value]


def arm_faults(
    spec: str | Sequence[FaultRule] | FaultPlan,
    state_dir: str | os.PathLike | None = None,
) -> FaultPlan:
    """Arm a fault plan for this process (and future forked children)."""
    global _PLAN
    if isinstance(spec, FaultPlan):
        plan = spec
    else:
        rules = parse_faults(spec) if isinstance(spec, str) else tuple(spec)
        plan = FaultPlan(
            rules,
            state_dir=state_dir or os.environ.get(FAULTS_STATE_ENV) or None,
        )
    _PLAN = plan
    return plan


def disarm_faults() -> None:
    """Disarm fault injection (the env spec is *not* re-read later)."""
    global _PLAN
    _PLAN = None


@contextmanager
def injected_faults(
    spec: str | Sequence[FaultRule],
    state_dir: str | os.PathLike | None = None,
) -> Iterator[FaultPlan]:
    """Scoped arming for tests; restores the previous plan on exit."""
    global _PLAN
    prev = _PLAN
    plan = arm_faults(spec, state_dir=state_dir)
    try:
        yield plan
    finally:
        _PLAN = prev


def faultpoint(name: str, data: bytes | None = None) -> bytes | None:
    """Declare a named failpoint; returns ``data`` (possibly mutated).

    Disarmed cost is one global load and an identity check. Sites that
    move bytes pass them through (``data=...``) so ``corrupt``/``short``
    actions can tamper with the payload; sites that don't simply call
    ``faultpoint("name")`` and ignore the return value.
    """
    plan = _PLAN
    if plan is _UNSET:
        plan = active_plan()
    if plan is None:
        return data
    return plan.hit(name, data)  # type: ignore[union-attr]


def fire_counts() -> dict[str, int]:
    """Per-process ``point:action`` fire counters of the active plan."""
    plan = active_plan()
    return {} if plan is None else dict(plan.fired)


# -- retries ---------------------------------------------------------------


#: Lifetime count of retried calls in this process (survives policy
#: instances); sweeps snapshot it to report how many transient I/O
#: failures were absorbed.
_RETRIES = {"n": 0}


def retry_count() -> int:
    return _RETRIES["n"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with seeded-deterministic exponential backoff.

    The backoff schedule is a pure function of ``(seed, key, attempt)``:
    delays grow as ``base * 2**attempt`` capped at ``max_delay_s``, then
    shrink by up to ``jitter`` (a fraction) using a stable digest as the
    noise source — no global RNG state, so two processes with the same
    seed and key back off identically and property tests can replay any
    schedule.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.02
    max_delay_s: float = 1.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("RetryPolicy needs max_attempts >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < self.base_delay_s:
            raise ConfigError("RetryPolicy needs 0 <= base <= max delay")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("RetryPolicy jitter must be in [0, 1]")

    def backoff_schedule(self, key: str = "") -> tuple[float, ...]:
        """The ``max_attempts - 1`` sleep durations for ``key``."""
        delays = []
        for attempt in range(1, self.max_attempts):
            base = min(self.max_delay_s,
                       self.base_delay_s * (2 ** (attempt - 1)))
            frac = 0.0
            if self.jitter:
                digest = stable_digest([self.seed, key, attempt])
                frac = self.jitter * (int(digest[:8], 16) / 0xFFFFFFFF)
            delays.append(base * (1.0 - frac))
        return tuple(delays)

    def call(
        self,
        fn: Callable[[], object],
        *,
        key: str = "",
        retry_on: tuple[type[BaseException], ...] = (OSError,),
        sleep: Callable[[float], None] = time.sleep,
    ):
        """Run ``fn``, retrying ``retry_on`` failures per the schedule.

        The final failure propagates unchanged; ``fn`` must be safe to
        re-run (callers split non-idempotent steps — see the ledger's
        append/fsync separation).
        """
        delays = self.backoff_schedule(key)
        for attempt in range(self.max_attempts):
            try:
                return fn()
            except retry_on:
                if attempt >= self.max_attempts - 1:
                    raise
                _RETRIES["n"] += 1
                sleep(delays[attempt])
        raise AssertionError("unreachable")  # pragma: no cover


#: Default policy for transient ledger/artifact I/O. Worst-case added
#: latency is ~60 ms per op — negligible against a compile.
DEFAULT_RETRY_POLICY = RetryPolicy()
