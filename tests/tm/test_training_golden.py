"""Golden digests of Tsetlin-machine training: the trainer is a pure function.

Every trained model in the repository (the DSE workloads,
``default_workload`` behind Table I, the training examples) is decided by
:meth:`TsetlinMachine.fit`.  These tests pin, for each fit, four things
with separate sha256 digests (first 32 hex digits) so that a failure
names what diverged:

* ``exclude`` — the exclude matrix handed to the hardware datapath;
* ``state`` — the final automaton states (dtype, shape and bytes);
* ``accuracy`` — the epoch-accuracy history;
* ``rng`` — the machine generator's final ``bit_generator.state``, which
  pins the draw contract: the same ``Generator`` calls, in the same order,
  with the same sizes.

Each digest covers one of the four things across every fit of a set, in
fit order.  A faster trainer must reproduce all of them bit for bit; a
change that alters training on purpose changes every trained model and
must re-pin these digests together with ``EVALUATOR_VERSION``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

import numpy as np
import pytest

import repro.explore.evaluate as evaluate
from repro.analysis import default_workload
from repro.explore import EvaluationSettings, named_grid
from repro.tm import TsetlinMachine


class _Digests:
    """Running sha256 digests of the four pinned things of a fit set."""

    def __init__(self) -> None:
        self._hashes = {name: hashlib.sha256()
                        for name in ("exclude", "state", "accuracy", "rng")}

    @staticmethod
    def _array_bytes(array: np.ndarray) -> bytes:
        return f"{array.dtype.str}{array.shape}".encode() + array.tobytes()

    def add(self, machine: TsetlinMachine, accuracies: List[float]) -> None:
        h = self._hashes
        h["exclude"].update(self._array_bytes(machine.exclude_masks()))
        h["state"].update(self._array_bytes(machine.team.state))
        h["accuracy"].update(self._array_bytes(np.array(accuracies, dtype=np.float64)))
        h["rng"].update(json.dumps(machine.rng.bit_generator.state,
                                   sort_keys=True).encode())

    def hexdigests(self) -> Dict[str, str]:
        return {name: h.hexdigest()[:32] for name, h in self._hashes.items()}


@pytest.fixture
def recorded_fits(monkeypatch):
    """Record ``(machine, history)`` of every ``TsetlinMachine.fit`` call."""
    fits = []
    fit = TsetlinMachine.fit

    def recording_fit(self, *args, **kwargs):
        history = fit(self, *args, **kwargs)
        fits.append((self, history))
        return history

    monkeypatch.setattr(TsetlinMachine, "fit", recording_fit)
    monkeypatch.setattr(evaluate, "_WORKLOAD_CACHE", {})
    return fits


# The smoke grid trains six machines: noisy-xor at 2 and 4 clauses per
# polarity, sensor-blobs at 2 and 4 clauses and 1 and 2 booleanizer levels.
SMOKE_GOLDEN = {
    1: {
        "exclude": "508816b8805164920e48caea38351bf9",
        "state": "f7f50603da9ac8c1463efcba1290f808",
        "accuracy": "ebf1685f6a6cabb368463736f599f6e5",
        "rng": "fb8f2950df825680ca8190599a55abb7",
    },
    20211: {
        "exclude": "8efb90dfcb470747f6c805d208216e1b",
        "state": "f7c7497b612893a5aee1a7bf58ea5ebb",
        "accuracy": "7bb319c65f00f83dbef9b5496b2b0756",
        "rng": "9040ef9155fc6d518b2c48ffca460aa9",
    },
}


@pytest.mark.parametrize("seed", sorted(SMOKE_GOLDEN))
def test_smoke_grid_fits_are_pinned(recorded_fits, seed):
    settings = EvaluationSettings(seed=seed)
    for spec in named_grid("smoke").expand().points:
        evaluate.build_spec_workload(spec, settings)
    assert len(recorded_fits) == 6
    digests = _Digests()
    for machine, history in recorded_fits:
        digests.add(machine, history.epoch_accuracy)
    assert digests.hexdigests() == SMOKE_GOLDEN[seed]


DEFAULT_WORKLOAD_GOLDEN = {
    "exclude": "eec91cabe5cf7015d774866a4faba909",
    "state": "900c4ae52ec47e79b610ceecea67ac1d",
    "accuracy": "04d9c60a8c1e61e0ee2df7fbe7a6a007",
    "rng": "b0fc5be33c49bea57d29c9074e49d8c1",
}


def test_default_workload_fit_is_pinned(recorded_fits):
    workload = default_workload()
    (machine, history), = recorded_fits
    np.testing.assert_array_equal(workload.exclude, machine.exclude_masks())
    digests = _Digests()
    digests.add(machine, history.epoch_accuracy)
    assert digests.hexdigests() == DEFAULT_WORKLOAD_GOLDEN


#: Configurations of the seeded matrix below.
FUZZ_CONFIGS = 60

FUZZ_GOLDEN = {
    "exclude": "730bd6256a769093d2ca3872d3c49fea",
    "state": "2a839110ceb2497d9308fc51c6225fcd",
    "accuracy": "000b09cecd6c02c4a34c66a813c1a5e0",
    "rng": "7061684ecdbe044081b379bf31c91151",
}


def _fuzz_fit(index: int, rng: np.random.Generator):
    """One seeded configuration: fit, then a few direct ``train_sample`` calls.

    ``num_states`` 1-3 drives automata into both clamp bounds within a few
    updates, ``s = 1.0`` makes every Type I draw of the fired case certain
    one way, and ``shuffle=False`` keeps the sample order fixed.
    """
    num_features = int(rng.integers(1, 7))
    num_clauses = 2 * int(rng.integers(1, 9))
    num_states = int(rng.choice([1, 2, 3, 100]))
    s = 1.0 if index % 4 == 0 else float(rng.uniform(1.0, 8.0))
    threshold = int(rng.integers(1, num_clauses + 2))
    samples = rng.integers(0, 2, size=(int(rng.integers(4, 25)), num_features))
    labels = rng.integers(0, 2, size=samples.shape[0])
    machine = TsetlinMachine(
        num_features=num_features, num_clauses=num_clauses, threshold=threshold,
        s=s, num_states=num_states, seed=index,
    )
    history = machine.fit(samples, labels, epochs=int(rng.integers(1, 4)),
                          shuffle=index % 3 != 0)
    for _ in range(int(rng.integers(0, 4))):
        row = int(rng.integers(0, samples.shape[0]))
        machine.train_sample(list(samples[row]), int(labels[row]))
    return machine, history


def test_seeded_training_matrix_is_pinned():
    rng = np.random.default_rng(20260)
    digests = _Digests()
    at_floor = at_ceiling = 0
    for index in range(FUZZ_CONFIGS):
        machine, history = _fuzz_fit(index, rng)
        digests.add(machine, history.epoch_accuracy)
        state, n = machine.team.state, machine.team.num_states
        if n in (2, 3):  # initial states n, n+1 sit strictly inside [1, 2n]
            at_floor += int((state == 1).sum())
            at_ceiling += int((state == 2 * n).sum())
    # The matrix drives automata into both clamp bounds, or it proves little.
    assert at_floor > 0 and at_ceiling > 0
    assert digests.hexdigests() == FUZZ_GOLDEN
