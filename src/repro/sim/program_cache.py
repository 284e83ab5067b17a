"""Content-hash keyed on-disk cache of :class:`~repro.sim.program.CompiledProgram`.

A compiled program is a pure function of *what was compiled* (the netlist
structure), *against what* (the library characterisation and the supply
point) and *by which compiler* (:data:`~repro.sim.program.PROGRAM_COMPILER_VERSION`).
:func:`program_cache_key` hashes exactly those four ingredients, so a
cached artifact is served again **only** while every one of them is
unchanged — edit a cell delay and the library fingerprint moves, change the
supply and the vdd ingredient moves, change the op layout and the version
stamp moves.

The store follows the :mod:`repro.explore.store` idiom: one JSON file per
key, corrupt or tampered entries (unparsable JSON, wrong schema, a record
whose own key does not match its filename) are deleted and treated as
misses, so a damaged cache heals itself on the next compile.  Writes go
through a same-directory temporary file and :func:`os.replace`, so
concurrent workers racing on a cold key can never expose a torn entry —
last writer wins with byte-identical content.

Worker-process protocol
-----------------------
Parents that fan work out (``run_parallel`` chunk workers, the serving
pool) compile once, :meth:`ProgramCache.put` the artifact, and ship only
``(cache directory, program hash)`` to the workers; each worker's
:meth:`ProgramCache.get` is then a warm load with no netlist walk — the
`program_cache_hits` / `program_cache_misses` counters and the
``program.cache.load`` / ``program.cache.store`` spans make the behaviour
observable through the standard Prometheus ``metrics`` command.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.circuits.library import CellLibrary, library_fingerprint
from repro.circuits.netlist import Netlist
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

from .program import (
    PROGRAM_COMPILER_VERSION,
    CompiledProgram,
    compile_program,
    netlist_fingerprint,
    resolve_vdd,
)

_CACHE_SUFFIX = ".json"


def program_cache_key(
    netlist_hash: str,
    library_digest: Optional[str],
    vdd: Optional[float],
    compiler_version: int = PROGRAM_COMPILER_VERSION,
) -> str:
    """The content hash a compiled program is cached under.

    *vdd* must be the **resolved** supply point
    (:func:`~repro.sim.program.resolve_vdd`), so a caller defaulting to the
    library nominal and one naming it explicitly address the same entry.
    """
    payload = {
        "netlist": netlist_hash,
        "library": library_digest,
        "vdd": vdd,
        "compiler_version": compiler_version,
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class ProgramCache:
    """One-file-per-program JSON store with atomic writes and self-healing.

    Parameters
    ----------
    directory:
        Cache root; created on first store.  Safe to delete wholesale — it
        is a cache, never the source of truth.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        registry = _metrics.default_registry()
        self._hits_metric = registry.counter(
            "program_cache_hits", "CompiledProgram loads served from disk."
        )
        self._misses_metric = registry.counter(
            "program_cache_misses", "CompiledProgram loads that forced a compile."
        )

    # ------------------------------------------------------------- internals
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}{_CACHE_SUFFIX}"

    # ------------------------------------------------------------------- keys
    def key_for(
        self,
        netlist: Optional[Netlist] = None,
        library: Optional[CellLibrary] = None,
        vdd: Optional[float] = None,
        netlist_hash: Optional[str] = None,
        library_digest: Optional[str] = None,
    ) -> str:
        """Cache key for a prospective compile.

        Accepts either the objects themselves or their precomputed digests
        (workers that received only hashes never need the netlist/library).
        """
        if netlist_hash is None:
            if netlist is None:
                raise ValueError("key_for needs a netlist or its netlist_hash")
            netlist_hash = netlist_fingerprint(netlist)
        if library_digest is None and library is not None:
            library_digest = library_fingerprint(library)
        return program_cache_key(
            netlist_hash, library_digest, resolve_vdd(library, vdd)
        )

    # -------------------------------------------------------------------- API
    def get(self, key: str) -> Optional[CompiledProgram]:
        """The cached program under *key*, or ``None``.

        Any malformed entry (bad JSON, wrong schema, key mismatch) counts
        as a miss, is deleted, and will simply be recompiled by the caller.
        """
        with _trace.span("program.cache.load") as span:
            path = self._path(key)
            if not path.exists():
                self.misses += 1
                self._misses_metric.inc()
                span.add(hit=False)
                return None
            try:
                record = json.loads(path.read_text())
                if not isinstance(record, dict):
                    raise ValueError("cached entry is not a JSON object")
                if record.get("key") != key:
                    raise ValueError("cached key does not match filename")
                program = CompiledProgram.from_dict(record["program"])
            except (ValueError, KeyError, TypeError, IndexError,
                    json.JSONDecodeError):
                self.corrupt += 1
                self.misses += 1
                self._misses_metric.inc()
                span.add(hit=False, corrupt=True)
                try:
                    path.unlink()
                except OSError:
                    pass
                return None
            self.hits += 1
            self._hits_metric.inc()
            span.add(hit=True, cells=len(program.ops))
        return program

    def put(self, program: CompiledProgram, key: Optional[str] = None) -> Path:
        """Persist *program* (atomically) and return the entry path.

        *key* defaults to the program's own cache key.  The write lands via
        a same-directory temporary file and :func:`os.replace`, so readers
        racing with writers see either nothing or a complete entry.
        """
        if key is None:
            key = program_cache_key(
                program.netlist_hash, program.library_digest, program.vdd,
                program.compiler_version,
            )
        with _trace.span("program.cache.store", cells=len(program.ops)):
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            record = {
                "key": key,
                "compiler_version": program.compiler_version,
                "program_hash": program.program_hash,
                "program": program.to_dict(),
            }
            payload = json.dumps(record, indent=2, sort_keys=True) + "\n"
            fd, tmp = tempfile.mkstemp(
                dir=str(self.directory), suffix=".tmp", prefix=f".{key[:16]}-"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        return path

    def load_or_compile(
        self,
        netlist: Netlist,
        library: Optional[CellLibrary] = None,
        vdd: Optional[float] = None,
    ) -> CompiledProgram:
        """Serve the program for ``(netlist, library, vdd)``, compiling on miss.

        The warm path never walks the netlist beyond fingerprinting it; the
        cold path compiles through
        :func:`~repro.sim.program.compile_program` and stores the artifact
        for every later process.
        """
        key = self.key_for(netlist=netlist, library=library, vdd=vdd)
        program = self.get(key)
        if program is None:
            program = compile_program(netlist, library, vdd=vdd)
            self.put(program, key=key)
        return program

    def __len__(self) -> int:
        """Number of program entries (``*.json`` files) currently on disk."""
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob(f"*{_CACHE_SUFFIX}"))

    def stats(self) -> dict:
        """Hit/miss/corrupt counters for reports and benchmark records."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "entries": len(self),
        }
