"""Result store: key invalidation, round trips, corrupt-entry recovery."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.circuits.library import CellLibrary, CellModel, VoltageModel, umc_ll_library
from repro.explore import (
    EVALUATOR_VERSION,
    DesignPoint,
    DesignPointSpec,
    EvaluationSettings,
    ResultStore,
    library_fingerprint,
    point_key,
)

SPEC = DesignPointSpec(
    dataset="noisy-xor",
    clauses_per_polarity=2,
    booleanizer_levels=1,
    library="UMC LL",
    style="dual-rail-reduced",
)
SETTINGS = EvaluationSettings()


def make_point(spec=SPEC) -> DesignPoint:
    return DesignPoint(
        spec=spec,
        backend="batch",
        vdd=1.2,
        num_features=3,
        accuracy=0.9,
        hardware_correctness=1.0,
        mean_latency_ps=500.0,
        p95_latency_ps=510.0,
        max_latency_ps=512.0,
        energy_per_inference_fj=200.0,
        area_um2=505.1,
        sequential_area_um2=226.8,
        leakage_nw=8.2,
        cell_count=185,
        throughput_mops=1100.0,
        timed_operands=6,
    )


def perturbed_library() -> CellLibrary:
    """UMC LL with one cell's intrinsic delay nudged — a library change."""
    base = umc_ll_library()
    cells = dict(base.cells)
    model = cells["INV"]
    cells["INV"] = CellModel(
        name=model.name,
        area=model.area,
        input_cap=model.input_cap,
        intrinsic_delay=model.intrinsic_delay + 0.1,
        load_delay=model.load_delay,
        switching_energy=model.switching_energy,
        leakage=model.leakage,
    )
    return CellLibrary(base.name, cells, base.voltage_model, base.description)


# ------------------------------------------------------------------ hashing


def test_key_is_stable_for_identical_inputs():
    lib = umc_ll_library()
    assert point_key(SPEC, SETTINGS, lib, "batch") == point_key(
        SPEC, SETTINGS, lib, "batch"
    )


def test_key_invalidates_on_spec_change():
    lib = umc_ll_library()
    base = point_key(SPEC, SETTINGS, lib, "batch")
    for change in (
        {"clauses_per_polarity": 4},
        {"style": "dual-rail-full"},
        {"vdd": 0.8},
        {"dataset": "sensor-blobs"},
    ):
        other = dataclasses.replace(SPEC, **change)
        assert point_key(other, SETTINGS, lib, "batch") != base


def test_key_invalidates_on_settings_backend_and_version_change():
    lib = umc_ll_library()
    base = point_key(SPEC, SETTINGS, lib, "batch")
    assert point_key(SPEC, dataclasses.replace(SETTINGS, operands=64),
                     lib, "batch") != base
    assert point_key(SPEC, SETTINGS, lib, "event") != base
    # Netlist-generation / measurement code changes are keyed through the
    # evaluator version.
    assert point_key(SPEC, SETTINGS, lib, "batch",
                     evaluator_version=EVALUATOR_VERSION + 1) != base


def test_key_invalidates_on_library_characterisation_change():
    base_lib = umc_ll_library()
    assert library_fingerprint(base_lib) == library_fingerprint(umc_ll_library())
    changed = perturbed_library()
    assert library_fingerprint(changed) != library_fingerprint(base_lib)
    assert point_key(SPEC, SETTINGS, changed, "batch") != point_key(
        SPEC, SETTINGS, base_lib, "batch"
    )


def test_key_invalidates_on_voltage_model_change():
    base_lib = umc_ll_library()
    changed = CellLibrary(
        base_lib.name,
        base_lib.cells,
        VoltageModel(min_functional_vdd=0.45),
        base_lib.description,
    )
    assert point_key(SPEC, SETTINGS, changed, "batch") != point_key(
        SPEC, SETTINGS, base_lib, "batch"
    )


# ------------------------------------------------------------------- storage


def test_round_trip(tmp_path):
    store = ResultStore(tmp_path / "store")
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    point = make_point()
    assert store.get(key) is None  # cold miss
    store.put(key, point)
    loaded = store.get(key)
    assert loaded is not None
    assert loaded.to_dict() == point.to_dict()
    assert store.stats() == {"hits": 1, "misses": 1, "corrupt": 0, "entries": 1}


def test_corrupt_json_is_a_self_healing_miss(tmp_path):
    store = ResultStore(tmp_path)
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    store.put(key, make_point())
    path = store._path(key)
    path.write_text("{ not json at all")
    assert store.get(key) is None
    assert not path.exists()  # the bad entry was deleted
    assert store.corrupt == 1
    # The store recovers: a fresh put/get works again.
    store.put(key, make_point())
    assert store.get(key) is not None


def test_schema_mismatch_and_key_mismatch_are_misses(tmp_path):
    store = ResultStore(tmp_path)
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    # Valid JSON, wrong schema.
    store._path(key).parent.mkdir(parents=True, exist_ok=True)
    store._path(key).write_text(json.dumps({"unexpected": True}))
    assert store.get(key) is None
    # A record copied under the wrong filename must not be served.
    record = {"key": "someone-else", "point": make_point().to_dict()}
    store._path(key).write_text(json.dumps(record))
    assert store.get(key) is None
    assert store.corrupt == 2


def test_non_object_json_entries_are_self_healing_misses(tmp_path):
    store = ResultStore(tmp_path)
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    store.directory.mkdir(parents=True, exist_ok=True)
    for payload in ("[1, 2, 3]", '"just a string"', "42"):
        store._path(key).write_text(payload)
        assert store.get(key) is None
        assert not store._path(key).exists()


def test_missing_point_fields_are_misses(tmp_path):
    store = ResultStore(tmp_path)
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    truncated = make_point().to_dict()
    del truncated["accuracy"]
    store.directory.mkdir(parents=True, exist_ok=True)
    store._path(key).write_text(json.dumps({"key": key, "point": truncated}))
    assert store.get(key) is None


def test_reader_midway_through_a_put_sees_a_miss_not_a_corrupt_entry(tmp_path, monkeypatch):
    """A second store's ``get`` runs while ``put`` has written half its bytes.

    An in-place write exposes the half entry under the key, which the
    reader would count corrupt and delete; an atomic put exposes nothing
    until the whole entry is in place.
    """
    writer = ResultStore(tmp_path / "store")
    reader = ResultStore(tmp_path / "store")
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    seen = []

    def interrupted_write_text(self, data, *args, **kwargs):
        with open(self, "w") as handle:
            handle.write(data[: len(data) // 2])
            handle.flush()
            seen.append(reader.get(key))
            handle.write(data[len(data) // 2:])
        return len(data)

    monkeypatch.setattr(Path, "write_text", interrupted_write_text)
    writer.put(key, make_point())
    monkeypatch.undo()
    assert seen == [None]
    assert reader.corrupt == 0
    loaded = reader.get(key)
    assert loaded is not None and loaded.to_dict() == make_point().to_dict()
    # The temporary file is gone and was never counted as an entry.
    assert [p.name for p in writer.directory.iterdir()] == [f"{key}.json"]
    assert len(writer) == 1 and set(writer.entry_digests()) == {key}


def test_len_counts_entries_without_a_directory(tmp_path):
    store = ResultStore(tmp_path / "never-created")
    assert len(store) == 0


def test_corrupt_heal_is_not_silent(tmp_path):
    """Every heal increments ``dse_store_corrupt_total`` — pinned here."""
    from repro.obs import metrics as _metrics

    store = ResultStore(tmp_path)
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    counter = _metrics.default_registry().counter(
        "dse_store_corrupt_total",
        "ResultStore entries that failed validation and were healed.",
    )
    before = counter.value()
    store.put(key, make_point())
    store._path(key).write_text("{ not json at all")
    assert store.get(key) is None
    assert counter.value() == before + 1
    # A healthy get does not touch the counter.
    store.put(key, make_point())
    assert store.get(key) is not None
    assert counter.value() == before + 1
    # And the heal is visible in tracing: a store.corrupt warning span.
    from repro.obs import trace as _trace

    with _trace.capture() as captured:
        store._path(key).write_text("[1, 2]")
        assert store.get(key) is None
    corrupt_spans = [r for r in captured.records if r.name == "store.corrupt"]
    assert len(corrupt_spans) == 1
    assert corrupt_spans[0].attrs["severity"] == "warning"
    assert counter.value() == before + 2


def test_entry_digests_fingerprint_the_bytes(tmp_path):
    store = ResultStore(tmp_path)
    assert store.entry_digests() == {}
    key = point_key(SPEC, SETTINGS, umc_ll_library(), "batch")
    store.put(key, make_point())
    digests = store.entry_digests()
    assert set(digests) == {key}
    # Same content, same digest; different content, different digest.
    store.put(key, make_point())
    assert store.entry_digests() == digests
    other = dataclasses.replace(SPEC, clauses_per_polarity=4)
    key2 = point_key(other, SETTINGS, umc_ll_library(), "batch")
    store.put(key2, make_point(other))
    updated = store.entry_digests()
    assert updated[key] == digests[key] and updated[key2] != digests[key]
