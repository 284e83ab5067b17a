"""Content-hash keyed on-disk store for evaluated design points.

A design point is a pure function of *what was asked* (the spec and the
sweep settings), *what it was asked of* (the library characterisation and
the datapath/measurement code), and *how it was measured* (the backend).
:func:`point_key` hashes exactly those ingredients, so a stored result is
served again **only** while every one of them is unchanged:

* edit a cell's delay or the voltage model → the library fingerprint moves;
* change the datapath construction or the measurement semantics → bump
  :data:`EVALUATOR_VERSION` (netlist generation is deterministic in the
  spec, so the version constant is the code-change ingredient);
* change any grid axis value or sweep setting → the spec/settings hash moves.

Entries are one JSON file per key under the store directory (LiteX-style
build caching: re-running a sweep touches only new or invalidated points).
Corrupt or tampered entries — unparsable JSON, missing fields, a record
whose own key does not match its filename — are treated as misses and
deleted, so a damaged store heals itself on the next sweep.  Self-healing
is *not* silent: every corrupt entry increments the
``dse_store_corrupt_total`` metric and emits a ``store.corrupt`` warning
span, so a store that keeps healing (bad disk, two incompatible writers)
is visible in the same telemetry as everything else.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Union

from repro.circuits.library import CellLibrary, library_fingerprint
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "EVALUATOR_VERSION",
    "ResultStore",
    "library_fingerprint",  # canonical home: repro.circuits.library
    "point_key",
]

#: Bump when datapath construction, mapping or measurement semantics change
#: in a way that alters what a stored DesignPoint would contain.
EVALUATOR_VERSION = 2

_STORE_SUFFIX = ".json"


def point_key(
    spec,
    settings,
    library: CellLibrary,
    backend: str,
    evaluator_version: int = EVALUATOR_VERSION,
    library_digest: Optional[str] = None,
    timing_backend: str = "event",
) -> str:
    """The content hash a design point is stored under.

    Parameters are duck-typed dataclasses (:class:`~repro.explore.grid.DesignPointSpec`
    and :class:`~repro.explore.evaluate.EvaluationSettings`) so the store
    module stays import-light; any field change in either moves the key.
    *library_digest* lets sweeps amortize :func:`library_fingerprint` over
    many points of the same library.  *timing_backend* joins the key only
    when it departs from the event default, so pre-existing stores keep
    serving event-timed points unchanged.
    """
    payload = {
        "spec": asdict(spec),
        "settings": asdict(settings),
        "library": (
            library_digest if library_digest is not None
            else library_fingerprint(library)
        ),
        "backend": backend,
        "evaluator_version": evaluator_version,
    }
    if timing_backend != "event":
        payload["timing_backend"] = timing_backend
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ResultStore:
    """One-file-per-point JSON store with self-healing corrupt-entry handling.

    Parameters
    ----------
    directory:
        Store root; created on first use.  Safe to delete wholesale — it is
        a cache, never the source of truth.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        registry = _metrics.default_registry()
        self._hits_metric = registry.counter(
            "store_cache_hits", "ResultStore lookups served from disk."
        )
        self._misses_metric = registry.counter(
            "store_cache_misses", "ResultStore lookups that forced evaluation."
        )
        self._corrupt_metric = registry.counter(
            "dse_store_corrupt_total",
            "ResultStore entries that failed validation and were healed.",
        )

    # ------------------------------------------------------------- internals
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_STORE_SUFFIX}"

    # ------------------------------------------------------------------- API
    def get(self, key: str):
        """The stored :class:`~repro.explore.evaluate.DesignPoint` or ``None``.

        Any malformed entry (bad JSON, wrong schema, key mismatch) counts as
        a miss, is deleted, and will simply be re-evaluated by the caller —
        loudly: the heal increments ``dse_store_corrupt_total`` and emits a
        ``store.corrupt`` warning span naming the key and the defect.
        """
        from .evaluate import DesignPoint  # local: avoids an import cycle

        path = self._path(key)
        if not path.exists():
            self.misses += 1
            self._misses_metric.inc()
            return None
        try:
            record = json.loads(path.read_text())
            if not isinstance(record, dict):
                raise ValueError("stored entry is not a JSON object")
            if record.get("key") != key:
                raise ValueError("stored key does not match filename")
            point = DesignPoint.from_dict(record["point"])
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as err:
            self.corrupt += 1
            self.misses += 1
            self._misses_metric.inc()
            self._corrupt_metric.inc()
            with _trace.span(
                "store.corrupt", severity="warning", key=key, error=repr(err)
            ):
                pass
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self._hits_metric.inc()
        return point

    def put(self, key: str, point) -> Path:
        """Persist *point* under *key*; returns the entry path.

        The entry is written to a same-directory temporary file, named
        outside the ``*.json`` glob and unique to the writing thread, and
        moved into place with :func:`os.replace`: a racing reader sees no
        entry or a complete one, never half of one.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        record = {
            "key": key,
            "evaluator_version": EVALUATOR_VERSION,
            "point": point.to_dict(),
        }
        tmp = self.directory / f".{key}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            tmp.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def __len__(self) -> int:
        """Number of entries currently on disk."""
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob(f"*{_STORE_SUFFIX}"))

    def entry_digests(self) -> dict:
        """``{key: sha256-of-entry-bytes}`` for every entry on disk.

        The byte-identity fingerprint the sharding-determinism and
        fault-injection tests compare: two stores are interchangeable
        exactly when these mappings are equal (entry serialization is
        deterministic, so equal points mean equal bytes).
        """
        if not self.directory.exists():
            return {}
        return {
            path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(self.directory.glob(f"*{_STORE_SUFFIX}"))
        }

    def stats(self) -> dict:
        """Hit/miss/corrupt counters for reports and ``BENCH_dse.json``."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "entries": len(self),
        }
