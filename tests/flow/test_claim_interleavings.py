"""Every interleaving of the claim protocol for 2 workers x 2 keys.

Each worker runs ``run_sweep``'s per-scenario protocol as an explicit
state machine over the real :class:`RunLedger`, one atomic step at a
time:

* ``lookup`` — note ``position()``, then look the key up in the store (a
  hit appends a cached ``ok`` row and moves on);
* ``acquire`` — ``since`` = the noted position: owned → heartbeat,
  finished → look again, otherwise defer the key;
* ``heartbeat`` — refresh the held claim;
* ``price`` — store write + ``ok`` row, as one step.

Between any two steps the scheduler may also **crash** a worker (it
takes no further step; its claims stay behind) or let the **lease
expire** (the clock jumps past the lease; a live owner's heartbeat
thread refreshes its claim first, as the real one does every lease/3),
each at most once per schedule.
A depth-first search visits every reachable state once — a state is the
ledger bytes, the store, the clock and each worker's step, noted
position and read position — restoring it by rewriting the file and
re-reading it with fresh instances up to each worker's read position.
When no worker can move, a cleanup worker runs after one more lease
expiry, like a later ``--resume``. Then every key must be in the store,
priced exactly once, and the ledger must hold no open claim.
"""

import os
import pathlib

import pytest

from repro.flow import ClaimRecord, LedgerRecord, RunLedger

LEASE = 10.0
KEYS = ("k0", "k1")
#: Per-schedule bounds on the scheduler's extra moves.
MAX_CRASHES = 1
MAX_EXPIRIES = 1


def _row(key: str, worker: str, cached: bool) -> LedgerRecord:
    return LedgerRecord(scenario_id=key, key=key, status="ok", cached=cached,
                        resumed=False, latency_ms=1.0, evaluations=0,
                        elapsed_s=0.0, worker=worker)


class World:
    """One state of the system, restorable from :meth:`snapshot`.

    A worker's state is ``[status, key index, next step, noted position,
    read position]``; status is ``live``, ``done`` or ``stopped``.
    """

    def __init__(self, path: pathlib.Path, orders: dict[str, tuple[str, ...]]):
        self.path = path
        self.orders = orders
        self.ledgers: dict[str, RunLedger] = {}

    def restore(self, snap) -> None:
        data, store, clock, crashes, expiries, priced, workers = snap
        self.store, self.clock = set(store), clock
        self.crashes, self.expiries = crashes, expiries
        self.priced = dict(priced)
        self.workers = {name: list(w) for name, w in workers}
        # Rebuild each live worker's view: a fresh instance reads the
        # file as it was at that worker's last read, shortest first, so
        # the file only grows by appends in between.
        self.ledgers = {}
        self.path.write_bytes(b"")
        done = 0
        for read_to, name in sorted(
            (w[4], n) for n, w in self.workers.items() if w[0] == "live"
        ):
            self._write(data[done:read_to])
            done = read_to
            self.ledgers[name] = RunLedger(self.path)
            self.ledgers[name].open_claims()
        self._write(data[done:])

    def _write(self, data: bytes) -> None:
        if data:
            with open(self.path, "ab") as fh:
                fh.write(data)

    def snapshot(self):
        for name, w in self.workers.items():
            if w[0] == "live":
                # A mark lives from lookup to acquire; an acquire reads
                # to the end first, so before one the read position
                # cannot matter.
                w[3], w[4] = (w[3], 0) if w[2] == "acquire" else (
                    0, self.ledgers[name].position())
            else:
                # A stopped worker never moves again: forget its state
                # so schedules that differ only there merge.
                w[:] = ["stopped", 0, "", 0, 0]
        return (
            self.path.read_bytes(), frozenset(self.store), self.clock,
            self.crashes, self.expiries, tuple(sorted(self.priced.items())),
            tuple((n, tuple(w)) for n, w in sorted(self.workers.items())),
        )

    # -- moves ----------------------------------------------------------------

    def moves(self) -> list[tuple[str, str]]:
        live = [n for n, w in self.workers.items() if w[0] == "live"]
        out = [("step", n) for n in live]
        if self.crashes < MAX_CRASHES:
            out += [("crash", n) for n in live]
        if live and self.expiries < MAX_EXPIRIES:
            out.append(("expire", ""))
        return out

    def apply(self, move: tuple[str, str]) -> None:
        kind, name = move
        if kind == "step":
            self.step(name)
        else:
            self.expiries += 1
            for owner, w in self.workers.items():
                if w[0] == "live" and w[2] in ("heartbeat", "price"):
                    self.ledgers[owner].heartbeat(
                        self.claim(owner), now=self.clock + LEASE + 1)
            self.clock += LEASE + 1

    def claim(self, name: str) -> ClaimRecord:
        key = self.orders[name][self.workers[name][1]]
        return ClaimRecord(scenario_id=key, key=key, worker=name, ts=0.0)

    def step(self, name: str) -> None:
        w = self.workers[name]
        _, i, pc, mark, _ = w
        key, ledger = self.orders[name][i], self.ledgers[name]
        nxt = "lookup"
        if pc == "lookup":
            w[3] = ledger.position()
            if key in self.store:
                ledger.append(_row(key, name, cached=True))
            else:
                nxt = "acquire"
        elif pc == "acquire":
            decision = ledger.acquire(key, key, name, lease_timeout_s=LEASE,
                                      now=self.clock, since=mark)
            if decision.owned:
                nxt = "heartbeat"
            elif decision.finished:
                nxt = "retry"
        elif pc == "heartbeat":
            ledger.heartbeat(self.claim(name), now=self.clock)
            nxt = "price"
        else:
            assert self.priced.get(key, 0) == 0, f"{key} priced twice"
            self.store.add(key)
            self.priced[key] = self.priced.get(key, 0) + 1
            ledger.append(_row(key, name, cached=False))
        if nxt == "retry":
            w[2] = "lookup"
        elif nxt == "lookup":
            w[1], w[2] = i + 1, "lookup"
            if w[1] == len(self.orders[name]):
                w[0] = "done"
        else:
            w[2] = nxt


def _explore(tmp_path, orders, prelude: bytes = b"") -> int:
    """Visit every state reachable from ``prelude``; return the leaf count."""
    world = World(tmp_path / "ledger.jsonl", dict(orders, cleanup=KEYS))
    workers = tuple((n, ("live", 0, "lookup", 0, 0)) for n in orders)
    start = (prelude, frozenset(), 0.0, 0, 0, (), workers)
    seen, stack, leaves = {start}, [start], 0
    while stack:
        snap = stack.pop()
        world.restore(snap)
        moves = world.moves()
        if not moves:
            leaves += 1
            _finish(world)
        fresh = True
        for move in moves:
            if move[0] == "crash":
                child = _crashed(snap, move[1])    # no I/O to replay
            else:
                if not fresh:
                    world.restore(snap)
                fresh = False
                world.apply(move)
                child = world.snapshot()
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return leaves


def _crashed(snap, name: str):
    data, store, clock, crashes, expiries, priced, workers = snap
    workers = tuple((n, ("stopped", 0, "", 0, 0) if n == name else w)
                    for n, w in workers)
    return data, store, clock, crashes + 1, expiries, priced, workers


def _finish(world: World) -> None:
    """A later resume after the leases lapse: nothing may be lost."""
    world.clock += LEASE + 1
    world.workers["cleanup"] = ["live", 0, "lookup", 0, 0]
    world.ledgers["cleanup"] = RunLedger(world.path)
    for _ in range(10 * len(KEYS)):
        if world.workers["cleanup"][0] != "live":
            break
        world.step("cleanup")
    assert world.workers["cleanup"][0] == "done"
    assert world.store == set(KEYS)
    assert all(world.priced.get(k) == 1 for k in KEYS), world.priced
    assert RunLedger(world.path).open_claims() == {}


@pytest.fixture(autouse=True)
def _no_fsync(monkeypatch):
    # Durability is not under test here; only the order of the rows is.
    monkeypatch.setattr(os, "fsync", lambda fd: None)


@pytest.mark.parametrize("second", [KEYS, KEYS[::-1]], ids=["same-order", "crossed"])
class TestEveryInterleaving:
    def test_fresh_ledger(self, tmp_path, second):
        assert _explore(tmp_path, {"A": KEYS, "B": second}) > 0

    def test_stale_ok_row_without_artifact(self, tmp_path, second):
        """k0 was priced long ago, but the store has lost it."""
        old = tmp_path / "old.jsonl"
        RunLedger(old).append(_row("k0", "old", cached=False))
        assert _explore(tmp_path, {"A": KEYS, "B": second},
                        prelude=old.read_bytes()) > 0
