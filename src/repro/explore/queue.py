"""Distributed, crash-resumable work queue over the content-hash result store.

The sweep evaluator (:func:`repro.explore.evaluate.run_sweep`) walks a grid
as one in-process list — fine for the 72-point smoke grid, hopeless for the
declared full grids (thousands of points) and fragile besides: a crash at
point 900 loses the run.  This module turns the
:class:`~repro.explore.store.ResultStore` directory into a *coordination
substrate* shared by any number of worker processes (or hosts mounting the
same directory):

* **Manifest** — :func:`write_manifest` freezes the expanded grid into
  ``<store>/queue/manifest.json`` (one task per design point: its spec and
  its precomputed store key), so every worker agrees on the work list
  without re-expanding the grid.
* **Leases** — a worker claims a point by atomically creating
  ``<store>/queue/leases/<key>.json`` (a fully written temporary file
  published with ``os.link``, which fails if the name exists) carrying its
  owner id, a heartbeat deadline and an attempt counter.  Claiming is the
  *only* mutual exclusion in the system; results themselves are
  content-hashed, so even a lost race costs a duplicate evaluation, never a
  wrong answer.
* **Heartbeats and stale-lease reclaim** — a live worker renews its lease
  deadline while evaluating; a lease whose deadline has passed (the owner
  was SIGKILLed, hung, or its host died) is reclaimed by the first worker
  to win an atomic ``rename`` of the stale file.  Corrupt (unparsable)
  lease files are reclaimed the same way.
* **Bounded retry and quarantine** — every reclaim and every evaluation
  failure increments the point's attempt counter; past ``max_attempts`` the
  point is moved to ``<store>/queue/quarantine/`` and never re-issued, so
  one crashing configuration cannot wedge the sweep.
* **Journal** — every claim / reclaim / complete / failure / quarantine is
  appended to ``<store>/queue/journal.jsonl`` (single ``O_APPEND`` writes),
  which is what the fault-injection suite and the resume-overhead metric
  read back: "zero duplicated evaluations" is checkable, not asserted.

Crash-resume is free: completed points live in the store under
content-hash keys, so re-running the same driver command skips them, and
only in-flight leases from the dead run are re-evaluated after their TTL.

Every queue transition is instrumented with :mod:`repro.obs` — spans
(``dse.queue.claim`` / ``dse.queue.reclaim`` / ``dse.queue.quarantine`` /
``dse.queue.evaluate``) and metrics (``dse_points_claimed_total``,
``dse_leases_reclaimed_total``, ``dse_points_completed_total``,
``dse_points_quarantined_total``, ``dse_queue_depth``) — so a distributed
run is debuggable with the same telemetry as serving.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import signal
import socket
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.circuits.library import default_libraries, library_fingerprint
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

from .evaluate import (
    DesignPoint,
    EvaluationSettings,
    SMOKE_SETTINGS,
    SweepResult,
    expand_grid,
    normalize_backends,
)
from .grid import DesignPointSpec
from .store import ResultStore, point_key

__all__ = [
    "DEFAULT_EVALUATOR",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_MAX_ATTEMPTS",
    "DseWorker",
    "Lease",
    "QueueProgress",
    "QueueSweepResult",
    "QueueTask",
    "WorkQueue",
    "WorkerReport",
    "journal_events",
    "journal_stats",
    "parse_shard",
    "resolve_evaluator",
    "run_queue_sweep",
    "worker_main",
    "write_manifest",
]

#: Seconds a lease stays valid without a heartbeat renewal.
DEFAULT_LEASE_TTL = 30.0

#: Claims (first claim + reclaims + post-failure retries) a point is allowed
#: before it is quarantined.
DEFAULT_MAX_ATTEMPTS = 3

#: Dotted ``module:function`` path of the production evaluator workers run.
DEFAULT_EVALUATOR = "repro.explore.evaluate:evaluate_point"

_QUEUE_DIR = "queue"
_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"
_LEASES = "leases"
_QUARANTINE = "quarantine"

_owner_counter = itertools.count(1)


def default_owner() -> str:
    """A process-unique worker id: ``<host>-<pid>-<n>`` (``n`` per process)."""
    return f"{socket.gethostname()}-{os.getpid()}-{next(_owner_counter)}"


@dataclass(frozen=True)
class QueueTask:
    """One unit of queued work: a design point and its store key."""

    index: int
    key: str
    spec: DesignPointSpec

    def to_dict(self) -> dict:
        """Plain-JSON manifest entry."""
        return {"index": self.index, "key": self.key, "spec": asdict(self.spec)}

    @classmethod
    def from_dict(cls, payload: dict) -> "QueueTask":
        """Inverse of :meth:`to_dict`."""
        return cls(
            index=int(payload["index"]),
            key=str(payload["key"]),
            spec=DesignPointSpec(**payload["spec"]),
        )


@dataclass
class Lease:
    """A claim on one queued point: who holds it and until when."""

    key: str
    owner: str
    deadline: float
    attempt: int = 1

    def to_dict(self) -> dict:
        """Plain-JSON lease-file payload."""
        return {
            "key": self.key,
            "owner": self.owner,
            "deadline": self.deadline,
            "attempt": self.attempt,
        }


@dataclass(frozen=True)
class QueueProgress:
    """A point-in-time census of the queue (for dashboards and drivers)."""

    total: int
    completed: int
    quarantined: int
    leased: int

    @property
    def pending(self) -> int:
        """Points not yet completed or quarantined (leased ones included)."""
        return max(0, self.total - self.completed - self.quarantined)

    @property
    def done(self) -> bool:
        """``True`` once every point is completed or quarantined."""
        return self.pending == 0


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``"i/n"`` shard selector into ``(index, count)``.

    Shard *i* of *n* owns the manifest tasks whose index is congruent to
    ``i`` modulo ``n`` — a deterministic partition that lets independent
    hosts each run ``--shard i/n`` against the same store directory.
    """
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"shard must look like 'i/n', got {text!r}")
    if count < 1 or not 0 <= index < count:
        raise ValueError(f"shard index must satisfy 0 <= i < n, got {text!r}")
    return index, count


def resolve_evaluator(path: str) -> Callable:
    """Import a ``module:function`` evaluator path from a manifest."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise ValueError(f"evaluator path must be 'module:function', got {path!r}")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


# --------------------------------------------------------------------- manifest


def write_manifest(
    store_dir: Union[str, Path],
    specs: Sequence[DesignPointSpec],
    settings: EvaluationSettings = SMOKE_SETTINGS,
    backend: str = "vectorized",
    timing_backend: str = "event",
    program_cache: Optional[str] = None,
    grid_name: str = "custom",
    evaluator: str = DEFAULT_EVALUATOR,
) -> Tuple[Path, bool]:
    """Freeze the work list into ``<store>/queue/manifest.json``.

    Store keys are computed here once (library fingerprints amortized over
    the grid) so every worker — local process or remote host — agrees on
    them without recomputing.  *backend* and *timing_backend* are
    normalized first, as :func:`~repro.explore.evaluate.run_sweep` does, so
    the manifest and its keys carry canonical names only.  Returns
    ``(path, resumed)``: *resumed* is ``True`` when a byte-identical
    manifest already existed (the run is a resume of the same sweep),
    ``False`` when it was (re)written.
    """
    backend, timing_backend = normalize_backends(backend, timing_backend)
    store_dir = Path(store_dir)
    queue_dir = store_dir / _QUEUE_DIR
    queue_dir.mkdir(parents=True, exist_ok=True)
    libraries = default_libraries()
    digests = {
        name: library_fingerprint(library) for name, library in libraries.items()
    }
    tasks = [
        QueueTask(
            index=index,
            key=point_key(
                spec, settings, libraries[spec.library], backend,
                library_digest=digests[spec.library],
                timing_backend=timing_backend,
            ),
            spec=spec,
        )
        for index, spec in enumerate(specs)
    ]
    payload = {
        "grid": grid_name,
        "backend": backend,
        "timing_backend": timing_backend,
        "program_cache": program_cache,
        "evaluator": evaluator,
        "settings": asdict(settings),
        "tasks": [task.to_dict() for task in tasks],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = queue_dir / _MANIFEST
    if path.exists() and path.read_text() == text:
        return path, True
    tmp = path.with_suffix(".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path, False


# ------------------------------------------------------------------- the queue


class WorkQueue:
    """Lease-based claiming of manifest tasks over a shared store directory.

    All state lives under ``<store>/queue/``; the instance holds no locks —
    any number of :class:`WorkQueue` objects in any number of processes may
    operate on the same directory concurrently.  *clock* is injectable for
    deterministic lease-expiry tests.
    """

    def __init__(
        self,
        store_dir: Union[str, Path],
        owner: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.store_dir = Path(store_dir)
        self.queue_dir = self.store_dir / _QUEUE_DIR
        self.leases_dir = self.queue_dir / _LEASES
        self.quarantine_dir = self.queue_dir / _QUARANTINE
        self.owner = owner or default_owner()
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        self.clock = clock
        registry = _metrics.default_registry()
        self._claimed = registry.counter(
            "dse_points_claimed_total", "DSE queue lease claims (incl. reclaims)."
        )
        self._reclaimed = registry.counter(
            "dse_leases_reclaimed_total", "Stale or corrupt DSE leases taken over."
        )
        self._completed = registry.counter(
            "dse_points_completed_total", "DSE points evaluated and stored."
        )
        self._quarantined = registry.counter(
            "dse_points_quarantined_total",
            "DSE points quarantined after exhausting their retry budget.",
        )
        self._depth = registry.gauge(
            "dse_queue_depth", "DSE points not yet completed or quarantined."
        )

    # ------------------------------------------------------------ manifest I/O
    @property
    def manifest_path(self) -> Path:
        """Location of the frozen work list."""
        return self.queue_dir / _MANIFEST

    def manifest(self) -> dict:
        """The parsed manifest (raises when no sweep was initialised here)."""
        path = self.manifest_path
        if not path.exists():
            raise FileNotFoundError(
                f"no manifest at {path}; run write_manifest() (or the sweep "
                f"driver) against this store first"
            )
        return json.loads(path.read_text())

    def tasks(self) -> List[QueueTask]:
        """Every task of the manifest, in grid-expansion order."""
        return [QueueTask.from_dict(entry) for entry in self.manifest()["tasks"]]

    # ---------------------------------------------------------------- journal
    @property
    def journal_path(self) -> Path:
        """Location of the append-only event journal."""
        return self.queue_dir / _JOURNAL

    def _journal(self, event: str, key: str, **extra) -> None:
        record = {"event": event, "key": key, "owner": self.owner,
                  "t": self.clock(), **extra}
        line = json.dumps(record, sort_keys=True) + "\n"
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.journal_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        try:
            os.write(fd, line.encode("utf-8"))
        finally:
            os.close(fd)

    # ------------------------------------------------------------------ leases
    def _lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.json"

    def _read_lease(self, path: Path) -> Optional[Lease]:
        """Parse a lease file; ``None`` for corrupt/vanished files."""
        try:
            payload = json.loads(path.read_text())
            return Lease(
                key=str(payload["key"]),
                owner=str(payload["owner"]),
                deadline=float(payload["deadline"]),
                attempt=int(payload.get("attempt", 1)),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def _write_new_lease(self, lease: Lease) -> bool:
        """Publish the lease file whole; ``False`` when somebody beat us.

        The payload is written to a same-directory temporary name outside
        the ``*.json`` glob and published with ``os.link``, which fails when
        the lease name exists: exactly one claimant wins, and no rival ever
        reads a lease file before its payload is in it.
        """
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(lease.to_dict(), sort_keys=True) + "\n"
        tmp = self.leases_dir / (
            f".{lease.key}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(payload)
            try:
                os.link(tmp, self._lease_path(lease.key))
            except FileExistsError:
                return False
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def try_claim(self, task: QueueTask) -> Optional[Lease]:
        """Attempt to claim *task*; ``None`` when held, quarantined or lost.

        The fast path publishes a new lease file with ``os.link`` — exactly
        one claimant can win it.  When a lease file already exists, it is
        honoured while its deadline is in the future; a stale or corrupt
        lease is taken over by winning an atomic ``rename`` (exactly one
        reclaimer can move the file away), carrying the attempt counter
        forward.  A point whose attempts exceed ``max_attempts`` is
        quarantined instead of re-issued.

        A won claim first re-checks the store: another owner may have
        completed the point since the caller's own store check
        (``complete`` writes the entry, then unlinks the lease, so the
        link above succeeds).  Such a claim is given back and ``None``
        returned; the caller's next store lookup serves the entry, or
        heals a corrupt one so that its next claim stands.
        """
        if self.is_quarantined(task.key):
            return None
        now = self.clock()
        lease = Lease(
            key=task.key, owner=self.owner, deadline=now + self.lease_ttl,
            attempt=1,
        )
        if self._write_new_lease(lease):
            if self._completed_meanwhile(task):
                return None
            self._claimed.inc()
            self._journal("claim", task.key, attempt=1, index=task.index)
            with _trace.span("dse.queue.claim", key=task.key, attempt=1):
                pass
            return lease
        path = self._lease_path(task.key)
        current = self._read_lease(path)
        if current is not None and current.deadline > now:
            return None  # live lease held by somebody else
        # Stale (deadline passed) or corrupt (unparsable) lease: exactly one
        # reclaimer wins the rename; everyone else loses the race cleanly.
        token = self.leases_dir / f"{task.key}.takeover.{self.owner}"
        try:
            os.rename(path, token)
        except OSError:
            return None
        try:
            token.unlink()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        attempt = (current.attempt if current is not None else 1) + 1
        self._reclaimed.inc()
        with _trace.span(
            "dse.queue.reclaim", key=task.key, attempt=attempt,
            corrupt=current is None,
        ):
            pass
        self._journal(
            "reclaim", task.key, attempt=attempt, corrupt=current is None,
            previous_owner=None if current is None else current.owner,
        )
        if attempt > self.max_attempts:
            self.quarantine(task, attempt)
            return None
        lease = Lease(
            key=task.key, owner=self.owner,
            deadline=self.clock() + self.lease_ttl, attempt=attempt,
        )
        if not self._write_new_lease(lease):
            return None  # a fresh claimant slipped in after our rename
        if self._completed_meanwhile(task):
            return None
        self._claimed.inc()
        self._journal("claim", task.key, attempt=attempt, index=task.index)
        return lease

    def _completed_meanwhile(self, task: QueueTask) -> bool:
        """Whether *task* already has a store entry; if so, drop the new lease."""
        if not self.is_done(task.key):
            return False
        try:
            self._lease_path(task.key).unlink()
        except OSError:  # pragma: no cover - lease already reclaimed
            pass
        return True

    def heartbeat(self, lease: Lease) -> bool:
        """Extend the lease deadline; ``False`` when ownership was lost."""
        path = self._lease_path(lease.key)
        current = self._read_lease(path)
        if current is None or current.owner != lease.owner:
            return False
        lease.deadline = self.clock() + self.lease_ttl
        tmp = path.with_suffix(f".hb.{os.getpid()}")
        tmp.write_text(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
        os.replace(tmp, path)
        return True

    def complete(self, lease: Lease, point: DesignPoint, store: ResultStore) -> Path:
        """Persist *point* and retire the lease; returns the store entry path."""
        entry = store.put(lease.key, point)
        try:
            self._lease_path(lease.key).unlink()
        except OSError:  # pragma: no cover - lease already reclaimed
            pass
        self._completed.inc()
        self._journal("complete", lease.key, attempt=lease.attempt)
        return entry

    def release(self, lease: Lease, failed: bool = False,
                error: Optional[str] = None) -> None:
        """Give the lease back without a result.

        A *failed* release (the evaluator raised) leaves behind an
        already-expired lease file carrying the attempt counter, so the next
        claimer goes through the reclaim path and the retry budget keeps
        counting across owners; a clean release simply deletes the file.
        """
        path = self._lease_path(lease.key)
        if failed:
            expired = Lease(
                key=lease.key, owner=lease.owner, deadline=0.0,
                attempt=lease.attempt,
            )
            tmp = path.with_suffix(f".rel.{os.getpid()}")
            tmp.write_text(json.dumps(expired.to_dict(), sort_keys=True) + "\n")
            os.replace(tmp, path)
            self._journal("fail", lease.key, attempt=lease.attempt, error=error)
            return
        try:
            path.unlink()
        except OSError:  # pragma: no cover - lease already reclaimed
            pass
        self._journal("release", lease.key, attempt=lease.attempt)

    # -------------------------------------------------------------- quarantine
    def _quarantine_path(self, key: str) -> Path:
        return self.quarantine_dir / f"{key}.json"

    def is_quarantined(self, key: str) -> bool:
        """Whether *key* has exhausted its retry budget."""
        return self._quarantine_path(key).exists()

    def quarantine(self, task: QueueTask, attempts: int,
                   reason: str = "retry budget exhausted") -> None:
        """Poison-pill *task*: record it and never re-issue it."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": task.key,
            "label": task.spec.label(),
            "attempts": attempts,
            "reason": reason,
        }
        self._quarantine_path(task.key).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        self._quarantined.inc()
        with _trace.span(
            "dse.queue.quarantine", key=task.key, label=task.spec.label(),
            attempts=attempts,
        ):
            pass
        self._journal("quarantine", task.key, attempts=attempts, reason=reason)

    def quarantined(self) -> List[dict]:
        """Every quarantine record, sorted by spec label."""
        if not self.quarantine_dir.exists():
            return []
        records = [
            json.loads(path.read_text())
            for path in sorted(self.quarantine_dir.glob("*.json"))
        ]
        return sorted(records, key=lambda r: r.get("label", ""))

    # ---------------------------------------------------------------- progress
    def is_done(self, key: str, store: Optional[ResultStore] = None) -> bool:
        """Whether *key* already has a (healthy) store entry.

        With a *store*, the entry is actually loaded — which heals corrupt
        entries (they read as "not done" and get re-evaluated); without one
        this is a cheap existence check for progress reports.
        """
        if store is not None:
            return store.get(key) is not None
        return (self.store_dir / f"{key}.json").exists()

    def progress(self, tasks: Optional[Sequence[QueueTask]] = None) -> QueueProgress:
        """Census the queue; updates the ``dse_queue_depth`` gauge."""
        tasks = self.tasks() if tasks is None else list(tasks)
        completed = sum(1 for task in tasks if self.is_done(task.key))
        quarantined = sum(1 for task in tasks if self.is_quarantined(task.key))
        now = self.clock()
        leased = 0
        if self.leases_dir.exists():
            for path in self.leases_dir.glob("*.json"):
                lease = self._read_lease(path)
                if lease is not None and lease.deadline > now:
                    leased += 1
        progress = QueueProgress(
            total=len(tasks), completed=completed, quarantined=quarantined,
            leased=leased,
        )
        self._depth.set(progress.pending)
        return progress

    # ------------------------------------------------------- cooperative fetch
    def load_or_compute(
        self,
        task: QueueTask,
        compute: Callable[[DesignPointSpec], DesignPoint],
        store: ResultStore,
        poll_interval: float = 0.02,
        timeout: Optional[float] = None,
    ) -> Tuple[DesignPoint, bool]:
        """Serve *task* from the store, or claim-and-compute it exactly once.

        Racing callers (any number of processes) converge without double
        evaluation: one wins the lease and computes; the rest poll the store
        until the result lands (or the winner dies and its lease expires, at
        which point a poller takes over).  Returns ``(point, computed)``.
        """
        start = time.monotonic()
        while True:
            point = store.get(task.key)
            if point is not None:
                return point, False
            lease = self.try_claim(task)
            if lease is not None:
                try:
                    point = compute(task.spec)
                except Exception as err:
                    self.release(lease, failed=True, error=repr(err))
                    raise
                self.complete(lease, point, store)
                return point, True
            if self.is_quarantined(task.key):
                raise RuntimeError(
                    f"design point {task.spec.label()} is quarantined"
                )
            if timeout is not None and time.monotonic() - start > timeout:
                raise TimeoutError(
                    f"timed out waiting for {task.spec.label()} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll_interval)


# ------------------------------------------------------------------ the worker


class _HeartbeatThread:
    """Background renewal of one active lease while an evaluation runs."""

    def __init__(self, queue: WorkQueue, lease: Lease, interval: float) -> None:
        self._queue = queue
        self._lease = lease
        self._interval = interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_HeartbeatThread":
        if self._interval > 0:
            self._thread = threading.Thread(target=self._run, daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._queue.heartbeat(self._lease):
                return  # ownership lost; stop renewing, let the claim expire


@dataclass
class WorkerReport:
    """What one :class:`DseWorker` run did (per-process provenance)."""

    owner: str
    completed: int = 0
    failures: int = 0
    wall_seconds: float = 0.0
    shard: Optional[Tuple[int, int]] = None

    def to_dict(self) -> dict:
        """Plain-JSON form (shipped back from worker processes)."""
        record = asdict(self)
        record["shard"] = None if self.shard is None else list(self.shard)
        return record


@dataclass
class DseWorker:
    """A claim → evaluate → store loop over one store directory.

    Runnable as any number of concurrent processes (or hosts) pointing at
    the same store: coordination happens entirely through the lease files.
    *shard* restricts the worker to manifest indices ``i (mod n)``;
    *reverse* flips its claim-scan order (results are order-invariant — the
    sharding determinism test relies on this knob); *heartbeat_interval*
    ``0`` disables renewal (used by the stale-lease tests), ``None`` picks
    ``lease_ttl / 3``; *evaluator* overrides the manifest's dotted path
    with an in-process callable (fault-injection tests).
    """

    store_dir: Union[str, Path]
    owner: Optional[str] = None
    lease_ttl: float = DEFAULT_LEASE_TTL
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    heartbeat_interval: Optional[float] = None
    poll_interval: float = 0.05
    shard: Optional[Tuple[int, int]] = None
    reverse: bool = False
    max_points: Optional[int] = None
    evaluator: Optional[Callable] = None
    clock: Callable[[], float] = field(default=time.time)

    def run(self) -> WorkerReport:
        """Drain the queue (or this worker's shard of it) and report."""
        start = time.monotonic()
        queue = WorkQueue(
            self.store_dir, owner=self.owner, lease_ttl=self.lease_ttl,
            max_attempts=self.max_attempts, clock=self.clock,
        )
        store = ResultStore(self.store_dir)
        config = queue.manifest()
        settings = EvaluationSettings(**config["settings"])
        evaluator = self.evaluator or resolve_evaluator(config["evaluator"])
        tasks = queue.tasks()
        if self.shard is not None:
            index, count = self.shard
            tasks = [task for task in tasks if task.index % count == index]
        if self.reverse:
            tasks = list(reversed(tasks))
        interval = (
            self.lease_ttl / 3.0
            if self.heartbeat_interval is None
            else self.heartbeat_interval
        )
        report = WorkerReport(owner=queue.owner, shard=self.shard)
        while True:
            progressed = False
            open_tasks = 0
            for task in tasks:
                if queue.is_quarantined(task.key):
                    continue
                if queue.is_done(task.key, store):
                    continue
                open_tasks += 1
                lease = queue.try_claim(task)
                if lease is None:
                    continue
                progressed = True
                failed = False
                with _HeartbeatThread(queue, lease, interval):
                    try:
                        with _trace.span(
                            "dse.queue.evaluate", label=task.spec.label(),
                            attempt=lease.attempt,
                        ):
                            point = evaluator(
                                task.spec,
                                settings,
                                config["backend"],
                                config["timing_backend"],
                                program_cache=config.get("program_cache"),
                            )
                    except Exception as err:
                        queue.release(lease, failed=True, error=repr(err))
                        report.failures += 1
                        failed = True
                if not failed:
                    queue.complete(lease, point, store)
                    report.completed += 1
                if (
                    self.max_points is not None
                    and report.completed >= self.max_points
                ):
                    open_tasks = 0
                    break
            queue.progress(tasks)
            if open_tasks == 0:
                break
            if not progressed:
                # Everything still open is leased by somebody else: wait for
                # them to finish (or for their lease to expire and be
                # reclaimed above).
                time.sleep(self.poll_interval)
        report.wall_seconds = time.monotonic() - start
        return report


def worker_main(
    store_dir: Union[str, Path],
    owner: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    shard: Optional[Tuple[int, int]] = None,
    reverse: bool = False,
    poll_interval: float = 0.05,
) -> dict:
    """Process entry point: run one :class:`DseWorker` to completion.

    Importable by ``multiprocessing`` under both fork and spawn start
    methods (everything it needs is serialisable), and usable from another
    host against a shared store directory.
    """
    worker = DseWorker(
        store_dir=store_dir, owner=owner, lease_ttl=lease_ttl,
        max_attempts=max_attempts, shard=shard, reverse=reverse,
        poll_interval=poll_interval,
    )
    return worker.run().to_dict()


# ------------------------------------------------------------------ the driver


def journal_events(store_dir: Union[str, Path]) -> List[dict]:
    """Every journal record of a store directory, in append order."""
    path = Path(store_dir) / _QUEUE_DIR / _JOURNAL
    if not path.exists():
        return []
    events = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


def journal_stats(events: Sequence[dict]) -> Dict[str, int]:
    """Aggregate journal counters: claims, completes, reclaims, duplicates.

    ``duplicate_completes`` counts completions beyond the first per key —
    the fault-injection suite pins it at zero; ``extra_claims`` counts
    claims beyond the first per key (in-flight work redone after a crash or
    failure) — the numerator of the resume-overhead metric.
    """
    claims: Dict[str, int] = {}
    completes: Dict[str, int] = {}
    reclaims = 0
    quarantines = 0
    for event in events:
        kind = event.get("event")
        key = event.get("key", "")
        if kind == "claim":
            claims[key] = claims.get(key, 0) + 1
        elif kind == "complete":
            completes[key] = completes.get(key, 0) + 1
        elif kind == "reclaim":
            reclaims += 1
        elif kind == "quarantine":
            quarantines += 1
    return {
        "claims": sum(claims.values()),
        "claimed_keys": len(claims),
        "completes": sum(completes.values()),
        "completed_keys": len(completes),
        "duplicate_completes": sum(n - 1 for n in completes.values()),
        "extra_claims": sum(n - 1 for n in claims.values()),
        "reclaims": reclaims,
        "quarantines": quarantines,
    }


@dataclass
class QueueSweepResult(SweepResult):
    """A :class:`SweepResult` plus the distributed run's provenance."""

    complete: bool = True
    quarantined: Tuple[str, ...] = ()
    reclaims: int = 0
    total_claims: int = 0
    duplicate_completes: int = 0
    resume_overhead_pct: float = 0.0
    workers: int = 0
    worker_reports: Tuple[dict, ...] = ()


def _chaos_monitor(
    store_dir: Path,
    processes: Sequence,
    kill_after: int,
    kill_worker: int,
    poll_interval: float = 0.05,
) -> bool:
    """SIGKILL one worker once *kill_after* points have completed.

    Returns ``True`` when the kill was delivered (the journal reached the
    threshold before the workers drained the queue).
    """
    target = processes[kill_worker]
    while any(process.is_alive() for process in processes):
        stats = journal_stats(journal_events(store_dir))
        if stats["completes"] >= kill_after:
            if target.is_alive() and target.pid is not None:
                os.kill(target.pid, signal.SIGKILL)
                return True
            return False
        time.sleep(poll_interval)
    return False


def run_queue_sweep(
    grid,
    settings: EvaluationSettings = SMOKE_SETTINGS,
    backend: str = "vectorized",
    workers: int = 2,
    store: Union[ResultStore, str, Path, None] = None,
    timing_backend: str = "event",
    program_cache: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    sharded: bool = True,
    grid_name: str = "custom",
    evaluator: str = DEFAULT_EVALUATOR,
    chaos_kill_after: Optional[int] = None,
    chaos_kill_worker: int = 0,
) -> QueueSweepResult:
    """Evaluate a grid through *workers* coordinated worker processes.

    The driver freezes the manifest, spawns the workers (sharded ``i/n``
    partitions when *sharded*, all competing for the whole queue
    otherwise), waits for them, and assembles the completed points from the
    store in grid-expansion order — so a finished queue sweep returns
    exactly what :func:`~repro.explore.evaluate.run_sweep` would.  Crashed
    or killed runs resume for free: re-invoking with the same arguments
    skips every completed point and re-issues only expired leases.

    ``chaos_kill_after=N`` is the built-in fault injector: once the journal
    shows *N* completions, worker ``chaos_kill_worker`` is SIGKILLed — the
    CI ``dse-distributed`` job uses it to prove crash-resume on every push.
    ``complete`` is ``False`` on the returned result when pending points
    remain (their leases expire and the next invocation picks them up).
    """
    import multiprocessing as mp

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if store is None:
        raise ValueError("run_queue_sweep needs a store (the shared substrate)")
    store = store if isinstance(store, ResultStore) else ResultStore(store)
    specs, dropped_dup, dropped_inf = expand_grid(grid)
    write_manifest(
        store.directory, specs, settings, backend=backend,
        timing_backend=timing_backend, program_cache=program_cache,
        grid_name=grid_name, evaluator=evaluator,
    )
    queue = WorkQueue(
        store.directory, lease_ttl=lease_ttl, max_attempts=max_attempts
    )
    tasks = queue.tasks()
    before = journal_stats(journal_events(store.directory))
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    ctx = mp.get_context(method)
    with _trace.span(
        "dse.queue.sweep", workers=workers, points=len(tasks), sharded=sharded
    ):
        processes = [
            ctx.Process(
                target=worker_main,
                kwargs={
                    "store_dir": str(store.directory),
                    "owner": f"{default_owner()}-w{index}",
                    "lease_ttl": lease_ttl,
                    "max_attempts": max_attempts,
                    "shard": (index, workers) if sharded else None,
                },
                daemon=False,
            )
            for index in range(workers)
        ]
        for process in processes:
            process.start()
        if chaos_kill_after is not None:
            _chaos_monitor(
                store.directory, processes, chaos_kill_after, chaos_kill_worker
            )
        for process in processes:
            process.join()
    resolved: Dict[int, DesignPoint] = {}
    for task in tasks:
        point = store.get(task.key)
        if point is not None:
            resolved[task.index] = point
    after = journal_stats(journal_events(store.directory))
    evaluated = after["completes"] - before["completes"]
    quarantined = tuple(
        record.get("label", record.get("key", "?"))
        for record in queue.quarantined()
    )
    total = len(tasks)
    overhead = 100.0 * after["extra_claims"] / total if total else 0.0
    progress = queue.progress(tasks)
    return QueueSweepResult(
        points=[resolved[i] for i in sorted(resolved)],
        evaluated=evaluated,
        cached=len(resolved) - evaluated,
        dropped_duplicates=dropped_dup,
        dropped_infeasible=dropped_inf,
        complete=progress.done and not quarantined,
        quarantined=quarantined,
        reclaims=after["reclaims"],
        total_claims=after["claims"],
        duplicate_completes=after["duplicate_completes"],
        resume_overhead_pct=overhead,
        workers=workers,
        worker_reports=(),
    )
