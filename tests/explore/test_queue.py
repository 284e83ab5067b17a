"""Work queue: sharding determinism, claim races, manifest and shard plumbing.

The fault-injection suite (``test_fault_injection.py``) covers crashes and
corruption; this file pins the sunny-day contracts: any worker count, shard
layout or claim order produces a byte-identical store and Pareto CSV, and
racing processes never evaluate a point twice.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.explore import (
    ResultStore,
    front_csv,
    journal_events,
    journal_stats,
    pareto_front,
    parse_metric,
    parse_shard,
    run_sweep,
    write_manifest,
)
from repro.explore.queue import (
    DseWorker,
    WorkQueue,
    resolve_evaluator,
    run_queue_sweep,
)

from queue_helpers import (
    FAST_SETTINGS,
    fake_evaluate,
    race_loader,
    smoke_specs,
)

#: Fork inherits the parent's memory, so worker processes can run test-local
#: evaluators without pickling; every multi-process test in this suite needs it.
fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


# ------------------------------------------------------------------ plumbing


def test_parse_shard_accepts_valid_selectors():
    assert parse_shard("0/1") == (0, 1)
    assert parse_shard("2/3") == (2, 3)


@pytest.mark.parametrize("text", ["3/3", "-1/2", "1", "a/b", "1/0", "2/1"])
def test_parse_shard_rejects_invalid_selectors(text):
    with pytest.raises(ValueError):
        parse_shard(text)


def test_resolve_evaluator_round_trips_and_validates():
    fn = resolve_evaluator("repro.explore.evaluate:evaluate_point")
    from repro.explore.evaluate import evaluate_point

    assert fn is evaluate_point
    with pytest.raises(ValueError):
        resolve_evaluator("no-colon-here")


def test_manifest_is_byte_stable_and_reports_resume(tmp_path):
    specs = smoke_specs(4)
    path, resumed = write_manifest(tmp_path, specs, settings=FAST_SETTINGS)
    assert not resumed
    first = path.read_bytes()
    path2, resumed2 = write_manifest(tmp_path, specs, settings=FAST_SETTINGS)
    assert resumed2 and path2 == path
    assert path.read_bytes() == first
    payload = json.loads(first)
    assert len(payload["tasks"]) == 4
    # Keys in the manifest match what the evaluator would store under.
    assert all(len(task["key"]) == 64 for task in payload["tasks"])


def test_manifest_rewrite_on_changed_grid(tmp_path):
    write_manifest(tmp_path, smoke_specs(4), settings=FAST_SETTINGS)
    _, resumed = write_manifest(tmp_path, smoke_specs(6), settings=FAST_SETTINGS)
    assert not resumed


def test_queue_validates_parameters(tmp_path):
    with pytest.raises(ValueError):
        WorkQueue(tmp_path, lease_ttl=0.0)
    with pytest.raises(ValueError):
        WorkQueue(tmp_path, max_attempts=0)


def test_claim_is_exclusive_and_released_cleanly(tmp_path):
    write_manifest(tmp_path, smoke_specs(2), settings=FAST_SETTINGS)
    a = WorkQueue(tmp_path, owner="a", lease_ttl=60.0)
    b = WorkQueue(tmp_path, owner="b", lease_ttl=60.0)
    task = a.tasks()[0]
    lease = a.try_claim(task)
    assert lease is not None and lease.owner == "a"
    assert b.try_claim(task) is None  # live lease is honoured
    a.release(lease)
    assert b.try_claim(task) is not None  # free again after clean release


def test_rival_claim_midway_through_a_lease_write_cannot_also_win(tmp_path, monkeypatch):
    """Owner ``b`` claims while owner ``a`` is writing its lease payload.

    An in-place write (create the lease name, then write the payload into
    it) exposes an empty lease file; the rival reads it as corrupt,
    reclaims it, and both owners hold the point.  A lease published whole
    leaves the rival nothing to read until the payload is in place.  The
    hook wraps both primitives a lease payload may be written with.
    """
    write_manifest(tmp_path, smoke_specs(1), settings=FAST_SETTINGS)
    a = WorkQueue(tmp_path, owner="a", lease_ttl=60.0)
    b = WorkQueue(tmp_path, owner="b", lease_ttl=60.0)
    task = a.tasks()[0]
    rival = []

    def run_rival_once(data):
        if not rival and '"owner": "a"' in data and '"deadline"' in data:
            rival.append(b.try_claim(task))

    write, write_text = os.write, Path.write_text

    def hooked_write(fd, data):
        run_rival_once(bytes(data).decode("utf-8", "replace"))
        return write(fd, data)

    def hooked_write_text(self, data, *args, **kwargs):
        run_rival_once(data)
        return write_text(self, data, *args, **kwargs)

    monkeypatch.setattr(os, "write", hooked_write)
    monkeypatch.setattr(Path, "write_text", hooked_write_text)
    lease_a = a.try_claim(task)
    monkeypatch.undo()
    assert len(rival) == 1, "the rival never ran inside the payload write"
    holders = [lease.owner for lease in (lease_a, rival[0]) if lease is not None]
    assert len(holders) == 1
    on_disk = json.loads((a.leases_dir / f"{task.key}.json").read_text())
    assert on_disk["owner"] == holders[0]
    assert [p.name for p in a.leases_dir.iterdir()] == [f"{task.key}.json"]


def test_failed_release_counts_attempts_across_owners(tmp_path):
    write_manifest(tmp_path, smoke_specs(1), settings=FAST_SETTINGS)
    a = WorkQueue(tmp_path, owner="a", max_attempts=2)
    b = WorkQueue(tmp_path, owner="b", max_attempts=2)
    task = a.tasks()[0]
    lease = a.try_claim(task)
    a.release(lease, failed=True, error="boom")
    # The failed lease is expired on disk: the next claim reclaims attempt 2.
    lease2 = b.try_claim(task)
    assert lease2 is not None and lease2.attempt == 2
    b.release(lease2, failed=True, error="boom again")
    # Attempt 3 exceeds max_attempts=2: quarantined, never re-issued.
    assert a.try_claim(task) is None
    assert a.is_quarantined(task.key)
    records = a.quarantined()
    assert len(records) == 1 and records[0]["attempts"] == 3


# ------------------------------------------- store check vs claim window


class _RacedStore(ResultStore):
    """A store whose first lookup misses while another owner finishes.

    It reproduces, deterministically, the window between a caller's store
    check and its claim: owner ``a`` claims, evaluates and completes the
    point (``complete`` writes the entry, then unlinks the lease), so the
    caller's claim that follows finds no lease in its way.
    """

    def __init__(self, directory, task, evaluations):
        super().__init__(directory)
        self._task = task
        self._evaluations = evaluations
        self._raced = False

    def get(self, key):
        point = super().get(key)
        if not self._raced:
            self._raced = True
            rival = WorkQueue(self.directory, owner="a")
            lease = rival.try_claim(self._task)
            self._evaluations.append("a")
            rival.complete(
                lease,
                fake_evaluate(self._task.spec, FAST_SETTINGS, "vectorized",
                              "vectorized"),
                ResultStore(self.directory),
            )
        return point


def _assert_evaluated_once(store_dir, task, evaluations):
    assert evaluations == ["a"]
    stats = journal_stats(journal_events(store_dir))
    assert stats["claims"] == 1
    assert stats["completes"] == 1
    assert stats["duplicate_completes"] == 0
    assert not (WorkQueue(store_dir).leases_dir / f"{task.key}.json").exists()


def test_load_or_compute_after_a_racing_complete_does_not_re_evaluate(tmp_path):
    write_manifest(tmp_path, smoke_specs(1), settings=FAST_SETTINGS)
    queue = WorkQueue(tmp_path, owner="b")
    task = queue.tasks()[0]
    evaluations = []

    def compute(spec):
        evaluations.append("b")
        return fake_evaluate(spec, FAST_SETTINGS, "vectorized", "vectorized")

    store = _RacedStore(tmp_path, task, evaluations)
    point, computed = queue.load_or_compute(task, compute, store, timeout=10.0)
    assert not computed
    assert point.to_dict() == ResultStore(tmp_path).get(task.key).to_dict()
    _assert_evaluated_once(tmp_path, task, evaluations)


def test_worker_after_a_racing_complete_does_not_re_evaluate(tmp_path, monkeypatch):
    from repro.explore import queue as queue_module

    write_manifest(tmp_path, smoke_specs(1), settings=FAST_SETTINGS)
    task = WorkQueue(tmp_path).tasks()[0]
    evaluations = []

    def evaluator(spec, settings, backend, timing_backend, program_cache=None):
        evaluations.append("b")
        return fake_evaluate(spec, settings, backend, timing_backend)

    monkeypatch.setattr(
        queue_module, "ResultStore",
        lambda directory: _RacedStore(directory, task, evaluations),
    )
    report = DseWorker(
        store_dir=tmp_path, owner="b", evaluator=evaluator, poll_interval=0.01,
    ).run()
    assert report.completed == 0
    _assert_evaluated_once(tmp_path, task, evaluations)


# ------------------------------------------------- sharding determinism


def _run_workers(store_dir, shards, reverse=False):
    """Drain a manifest with in-process workers over the given shards."""
    for shard in shards:
        DseWorker(
            store_dir=store_dir, shard=shard, reverse=reverse,
            evaluator=fake_evaluate, lease_ttl=30.0,
        ).run()


@pytest.mark.parametrize(
    "shards,reverse",
    [
        ([None], False),
        ([(0, 2), (1, 2)], False),
        ([(1, 2), (0, 2)], True),
        ([(0, 3), (1, 3), (2, 3)], False),
        ([(2, 3), (0, 3), (1, 3)], True),
    ],
)
def test_any_sharding_yields_byte_identical_stores(tmp_path, shards, reverse):
    specs = smoke_specs(6)
    reference = ResultStore(tmp_path / "ref")
    write_manifest(reference.directory, specs, settings=FAST_SETTINGS)
    _run_workers(reference.directory, [None])

    store = ResultStore(tmp_path / "sharded")
    write_manifest(store.directory, specs, settings=FAST_SETTINGS)
    _run_workers(store.directory, shards, reverse=reverse)

    assert store.entry_digests() == reference.entry_digests()
    metrics = [parse_metric("accuracy"), parse_metric("energy")]
    tasks = WorkQueue(store.directory).tasks()
    points = [store.get(t.key) for t in tasks]
    ref_points = [reference.get(t.key) for t in tasks]
    assert front_csv(pareto_front(points, metrics), metrics) == front_csv(
        pareto_front(ref_points, metrics), metrics
    )
    stats = journal_stats(journal_events(store.directory))
    assert stats["duplicate_completes"] == 0
    assert stats["completes"] == len(specs)


@fork
def test_queue_sweep_matches_plain_run_sweep(tmp_path):
    """Real evaluator: ``workers=2`` ≡ ``jobs=1``, byte for byte."""
    specs = smoke_specs(4)
    plain = ResultStore(tmp_path / "plain")
    ref = run_sweep(specs, settings=FAST_SETTINGS, jobs=1, store=plain)
    queued = ResultStore(tmp_path / "queued")
    res = run_queue_sweep(
        specs, settings=FAST_SETTINGS, workers=2, store=queued, lease_ttl=20.0
    )
    assert res.complete and not res.quarantined
    assert res.duplicate_completes == 0
    assert queued.entry_digests() == plain.entry_digests()
    assert [p.to_dict() for p in res.points] == [p.to_dict() for p in ref.points]
    # A second sweep over the same store is fully cache-warm.
    res2 = run_queue_sweep(
        specs, settings=FAST_SETTINGS, workers=2, store=queued, lease_ttl=20.0
    )
    assert res2.evaluated == 0 and res2.cached == len(specs)
    assert res2.resume_overhead_pct == 0.0


# ------------------------------------------------------- concurrency stress


@fork
def test_racing_load_or_compute_never_double_evaluates(tmp_path):
    """Two processes race the same key: one computes, both return, quickly."""
    specs = smoke_specs(1)
    write_manifest(tmp_path, specs, settings=FAST_SETTINGS)
    ctx = multiprocessing.get_context("fork")
    done = ctx.Queue()
    start = time.monotonic()
    procs = [
        ctx.Process(target=race_loader, args=(str(tmp_path), name, done))
        for name in ("racer-a", "racer-b")
    ]
    for proc in procs:
        proc.start()
    outcomes = [done.get(timeout=60) for _ in procs]
    for proc in procs:
        proc.join(timeout=60)
    elapsed = time.monotonic() - start
    assert elapsed < 60, "load_or_compute deadlocked"
    assert sorted(o["ok"] for o in outcomes) == [True, True]
    # Exactly one claim, one completion; the loser polled the store.
    stats = journal_stats(journal_events(tmp_path))
    assert stats["claims"] == 1
    assert stats["completes"] == 1
    assert stats["duplicate_completes"] == 0
    # Both processes returned the same bytes.
    assert outcomes[0]["digest"] == outcomes[1]["digest"]
    assert sum(o["computed"] for o in outcomes) == 1
