"""Benchmark: Tsetlin-machine training throughput.

Records ``tm_fit_samples_per_sec``: training rows × epochs over the
best-of-3 wall-clock of :meth:`TsetlinMachine.fit` for the machine
:func:`~repro.analysis.default_workload` trains (noisy-XOR, 4 features,
8 clauses per polarity, 25 epochs).  Every DSE point whose architecture
is not yet trained in the process pays for such a fit, so this is the
training share of a sweep's per-point latency.

Each round trains a fresh machine from the same seed, and every round
must reproduce ``default_workload``'s exclude matrix: the benchmark times
the fit the library actually runs, and a round that trains a different
model fails instead of reporting a number.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import default_workload
from repro.tm import TsetlinMachine, noisy_xor

#: Best-of-N rounds; smooths scheduler noise on loaded CI runners.
ROUNDS = 3

#: ``default_workload``'s training configuration (its defaults).
FEATURES, CLAUSES_PER_POLARITY, EPOCHS, SEED = 4, 8, 25, 2021


def test_tm_fit_throughput(benchmark, bench_records):
    dataset = noisy_xor(num_samples=400, num_features=FEATURES, noise=0.05, seed=SEED)
    expected = default_workload(num_features=FEATURES,
                                clauses_per_polarity=CLAUSES_PER_POLARITY,
                                epochs=EPOCHS, seed=SEED).exclude

    def fit():
        machine = TsetlinMachine(
            num_features=FEATURES, num_clauses=2 * CLAUSES_PER_POLARITY,
            threshold=CLAUSES_PER_POLARITY, s=3.0, seed=SEED,
        )
        start = time.perf_counter()
        machine.fit(dataset.train_x, dataset.train_y, epochs=EPOCHS)
        return time.perf_counter() - start, machine

    seconds, machine = benchmark.pedantic(fit, rounds=1, iterations=1)
    np.testing.assert_array_equal(machine.exclude_masks(), expected)
    for _ in range(ROUNDS - 1):
        elapsed, machine = fit()
        np.testing.assert_array_equal(machine.exclude_masks(), expected)
        seconds = min(seconds, elapsed)

    samples = dataset.train_x.shape[0] * EPOCHS
    rate = samples / seconds
    print(f"\nTM fit: {samples} sample updates in {seconds * 1e3:.1f} ms "
          f"-> {rate:,.0f} samples/s")
    bench_records["tm_fit_samples_per_sec"] = rate
