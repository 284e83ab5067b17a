"""The Tsetlin machine classifier: training and inference.

The implementation follows Granmo's original formulation (the paper's
reference [10]) for a single two-class Tsetlin machine, plus the usual
one-vs-all construction for multi-class problems:

* each class owns ``num_clauses`` conjunctive clauses, alternating positive
  and negative polarity;
* each clause is controlled by a team of Tsetlin automata, two per feature
  (literal and negated literal);
* training applies Type I feedback (recognise/refine patterns) to clauses of
  the polarity that should fire for the sample's label, and Type II feedback
  (reject false positives) to the opposite polarity, with probabilities
  modulated by the clipped vote sum and the threshold ``T``;
* inference evaluates the clauses, counts the positive and negative votes and
  compares them — precisely the structure the paper maps to hardware.

The trained machine exposes :meth:`TsetlinMachine.exclude_masks`, which is the
bridge to the hardware model: the exclude actions become the ``e`` inputs of
the inference datapath generated by :mod:`repro.datapath`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .automaton import TsetlinAutomatonTeam
from .clause import (
    classify,
    clause_outputs,
    literals_from_features,
    vote_counts,
    vote_sum,
)


def _literal_planes(features) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(ones, zeros)`` Boolean literal planes of 0/1 feature rows.

    ``ones`` marks the literals ``[x_0 … x_{o-1}, ¬x_0 … ¬x_{o-1}]`` that
    are 1 and ``zeros = ~ones`` those that are 0; both take the shape of
    the literal vector (or matrix) of *features*.
    """
    ones = literals_from_features(np.asarray(features, dtype=np.int8)) == 1
    return ones, ~ones


@dataclass
class TrainingHistory:
    """Per-epoch training statistics."""

    epoch_accuracy: List[float]

    @property
    def final_accuracy(self) -> float:
        """Training accuracy of the last epoch (0.0 when never trained)."""
        return self.epoch_accuracy[-1] if self.epoch_accuracy else 0.0


class TsetlinMachine:
    """A two-class (one-vs-rest) Tsetlin machine.

    Parameters
    ----------
    num_features:
        Number of Boolean input features.
    num_clauses:
        Total number of clauses; must be even (half positive, half negative
        polarity).
    threshold:
        Vote-sum clipping threshold ``T`` controlling feedback probability.
    s:
        Specificity parameter of Type I feedback (larger ``s`` → clauses
        include more literals).
    num_states:
        States per automaton action half.
    seed:
        Seed of the machine's private random generator (training is
        stochastic; a fixed seed makes experiments reproducible).
    """

    def __init__(
        self,
        num_features: int,
        num_clauses: int = 16,
        threshold: int = 8,
        s: float = 3.0,
        num_states: int = 100,
        seed: Optional[int] = 2021,
    ) -> None:
        if num_clauses % 2 != 0:
            raise ValueError("num_clauses must be even (half positive, half negative polarity)")
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if s < 1.0:
            raise ValueError("the specificity parameter s must be >= 1")
        self.num_features = int(num_features)
        self.num_clauses = int(num_clauses)
        self.num_literals = 2 * self.num_features
        self.threshold = int(threshold)
        self.s = float(s)
        self.rng = np.random.default_rng(seed)
        self.team = TsetlinAutomatonTeam(
            num_clauses=self.num_clauses,
            num_literals=self.num_literals,
            num_states=num_states,
            rng=self.rng,
        )

    # -------------------------------------------------------------- inference
    def clause_outputs(self, features: Sequence[int], training: bool = False) -> np.ndarray:
        """Evaluate every clause on one sample."""
        literals = literals_from_features(np.asarray(features, dtype=np.int8))
        return clause_outputs(
            self.team.include_actions(), literals, empty_clause_output=1 if training else 0
        )

    def vote_sum(self, features: Sequence[int]) -> int:
        """Class confidence for one sample (positive minus negative votes)."""
        return vote_sum(self.clause_outputs(features))

    def vote_counts(self, features: Sequence[int]) -> Tuple[int, int]:
        """The two popcount operands the hardware datapath receives."""
        return vote_counts(self.clause_outputs(features))

    def predict(self, features: Sequence[int]) -> int:
        """Binary prediction for one sample (1 = belongs to the class)."""
        return classify(self.clause_outputs(features))

    def predict_batch(self, samples: np.ndarray) -> np.ndarray:
        """Binary predictions for a matrix of samples."""
        _, zeros = _literal_planes(samples)
        return self._predict_planes(zeros)

    def _predict_planes(self, zeros: np.ndarray) -> np.ndarray:
        """Predictions from the ``(samples, literals)`` zero-literal plane.

        One matrix product counts each clause's violated literals on every
        sample at once; a clause fires when it has none and includes at
        least one literal (an empty clause does not fire at inference).
        """
        include = self.team.include_actions()
        violations = zeros.astype(np.int32) @ include.T.astype(np.int32)
        fires = (violations == 0) & include.any(axis=1)
        votes = (np.count_nonzero(fires[:, 0::2], axis=1)
                 - np.count_nonzero(fires[:, 1::2], axis=1))
        return (votes >= 0).astype(np.int8)

    def accuracy(self, samples: np.ndarray, labels: np.ndarray) -> float:
        """Fraction of correct predictions on a labelled dataset."""
        predictions = self.predict_batch(samples)
        labels = np.asarray(labels, dtype=np.int8)
        return float((predictions == labels).mean())

    # --------------------------------------------------------------- training
    def _update(self, ones: np.ndarray, zeros: np.ndarray, label: int) -> None:
        """One stochastic training update from a sample's literal planes.

        Feedback to a clause changes only that clause's row of automata,
        and always in one direction per literal: Type I moves the automata
        of 1-literals towards include (``+1``) and of 0-literals towards
        exclude (``-1``) when the clause fired, and every automaton towards
        exclude when it did not; Type II moves the excluded automata of
        0-literals towards include.  So the whole sample is one masked
        ``+1``/``-1`` update of the state read once at the start, clamped to
        ``[1, 2n]``, while the generator sees the per-clause draws in clause
        order: one selection draw per clause, then two ``random(literals)``
        draws for a selected Type I clause that fired and one for one that
        did not.
        """
        team = self.team
        state = team.state
        include = state > team.num_states
        fired = (~(include & zeros).any(axis=1)).tolist()  # empty clauses fire
        votes = sum(fired[0::2]) - sum(fired[1::2])
        threshold = self.threshold
        clipped = min(max(votes, -threshold), threshold)
        if label == 1:
            p_feedback = (threshold - clipped) / (2.0 * threshold)
        else:
            p_feedback = (threshold + clipped) / (2.0 * threshold)
        boost = 1.0 / self.s
        strong = (self.s - 1.0) / self.s
        random = self.rng.random
        literals = self.num_literals
        up = down = None
        for clause in range(self.num_clauses):
            if not random() < p_feedback:
                continue
            if up is None:
                up = np.zeros(state.shape, dtype=bool)
                down = np.zeros(state.shape, dtype=bool)
            if (clause % 2 == 0) == (label == 1):  # Type I: recognise the pattern
                if fired[clause]:
                    up[clause] = ones & (random(literals) < strong)
                    down[clause] = zeros & (random(literals) < boost)
                else:
                    down[clause] = random(literals) < boost
            elif fired[clause]:  # Type II: block the false positive
                # A clause that fired includes no 0-literal, so every
                # 0-literal's automaton is an excluded one.
                up[clause] = zeros
        if up is not None:
            state += up
            state -= down
            np.minimum(state, 2 * team.num_states, out=state)
            np.maximum(state, 1, out=state)

    def train_sample(self, features: Sequence[int], label: int) -> None:
        """One stochastic training update for a single labelled sample."""
        ones, zeros = _literal_planes(features)
        self._update(ones, zeros, int(bool(label)))

    def fit(
        self,
        samples: np.ndarray,
        labels: np.ndarray,
        epochs: int = 30,
        shuffle: bool = True,
    ) -> TrainingHistory:
        """Train on a labelled dataset and return the per-epoch accuracy history.

        The literal planes are built once; each epoch walks the (shuffled)
        samples through :meth:`train_sample`'s update and is then scored in
        one matrix evaluation.
        """
        samples = np.asarray(samples, dtype=np.int8)
        labels = np.asarray(labels, dtype=np.int8)
        if samples.shape[0] != labels.shape[0]:
            raise ValueError("samples and labels must have the same length")
        ones, zeros = _literal_planes(samples)
        targets = [int(bool(label)) for label in labels]
        history = TrainingHistory(epoch_accuracy=[])
        indices = np.arange(samples.shape[0])
        for _epoch in range(epochs):
            if shuffle:
                self.rng.shuffle(indices)
            for idx in indices.tolist():
                self._update(ones[idx], zeros[idx], targets[idx])
            predictions = self._predict_planes(zeros)
            history.epoch_accuracy.append(float((predictions == labels).mean()))
        return history

    # -------------------------------------------------------------- hardware
    def exclude_masks(self) -> np.ndarray:
        """Exclude-action matrix ``(clauses, 2·features)`` for the hardware datapath.

        Entry ``[j, 2m]`` controls literal ``f_m`` and ``[j, 2m+1]`` controls
        ``¬f_m`` of clause ``j`` — matching the paper's ``e_{2m}`` /
        ``e_{2m+1}`` indexing.  A value of 1 (True) means *excluded*.
        """
        include = self.team.include_actions()
        # Internal literal order is [f_0..f_{o-1}, ¬f_0..¬f_{o-1}]; the
        # hardware indexing interleaves them as (f_m, ¬f_m) pairs.
        o = self.num_features
        interleaved = np.empty_like(include)
        interleaved[:, 0::2] = include[:, :o]
        interleaved[:, 1::2] = include[:, o:]
        return ~interleaved

    def set_exclude_masks(self, exclude: np.ndarray) -> None:
        """Force clause compositions from a hardware-style exclude matrix."""
        exclude = np.asarray(exclude, dtype=bool)
        if exclude.shape != (self.num_clauses, self.num_literals):
            raise ValueError(
                f"exclude mask shape {exclude.shape} does not match "
                f"({self.num_clauses}, {self.num_literals})"
            )
        o = self.num_features
        include_interleaved = ~exclude
        include = np.empty_like(include_interleaved)
        include[:, :o] = include_interleaved[:, 0::2]
        include[:, o:] = include_interleaved[:, 1::2]
        self.team.set_actions(include)


class MultiClassTsetlinMachine:
    """One-vs-all ensemble of :class:`TsetlinMachine`, one per class."""

    def __init__(
        self,
        num_classes: int,
        num_features: int,
        num_clauses: int = 16,
        threshold: int = 8,
        s: float = 3.0,
        num_states: int = 100,
        seed: Optional[int] = 2021,
    ) -> None:
        if num_classes < 2:
            raise ValueError("a classifier needs at least two classes")
        self.num_classes = int(num_classes)
        self.machines = [
            TsetlinMachine(
                num_features=num_features,
                num_clauses=num_clauses,
                threshold=threshold,
                s=s,
                num_states=num_states,
                seed=None if seed is None else seed + i,
            )
            for i in range(num_classes)
        ]

    def fit(self, samples: np.ndarray, labels: np.ndarray, epochs: int = 30) -> List[TrainingHistory]:
        """Train each per-class machine one-vs-rest."""
        labels = np.asarray(labels)
        histories = []
        for class_idx, machine in enumerate(self.machines):
            binary_labels = (labels == class_idx).astype(np.int8)
            histories.append(machine.fit(samples, binary_labels, epochs=epochs))
        return histories

    def predict(self, features: Sequence[int]) -> int:
        """Predicted class = argmax of the per-class vote sums."""
        sums = [machine.vote_sum(features) for machine in self.machines]
        return int(np.argmax(sums))

    def predict_batch(self, samples: np.ndarray) -> np.ndarray:
        """Predicted classes for a matrix of samples."""
        return np.array([self.predict(row) for row in np.asarray(samples)], dtype=np.int64)

    def accuracy(self, samples: np.ndarray, labels: np.ndarray) -> float:
        """Multi-class accuracy."""
        predictions = self.predict_batch(samples)
        return float((predictions == np.asarray(labels)).mean())
