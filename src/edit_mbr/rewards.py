"""Edit-set reward functions and their uniform-average expectation."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .edit_core import Edit, EditSet, ValidationError

REWARD_KINDS = ("recall", "precision", "f", "f-paper", "jaccard")


@dataclass(frozen=True, slots=True)
class RewardConfig:
    """Reward selection plus conventions for degenerate (empty-set) cases.

    ``beta`` weights recall against precision for the F rewards: ``f`` is the
    standard F-beta (beta-squared reference weighting in the denominator),
    ``f-paper`` an alternative with linear beta weighting; the two differ for
    beta != 1.  Note that ``f-paper`` is not normalized: a perfect match
    scores (1 + beta^2) / (1 + beta) rather than 1.  When both edit sets are
    empty every reward yields ``empty_empty_value``; when only the
    denominator side of recall or precision is empty the reward yields
    ``empty_denominator_value``.
    """

    kind: str = "f"
    beta: float = 0.5
    empty_empty_value: float = 1.0
    empty_denominator_value: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}; expected one of {REWARD_KINDS}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        for name in ("empty_empty_value", "empty_denominator_value"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")


def reward(ref_edits: EditSet, hyp_edits: EditSet, config: RewardConfig) -> float:
    """Score hypothesis edits against reference edits.

    Every kind except ``f-paper`` lies in [0, 1] with 1.0 for identical sets;
    ``f-paper`` tops out at (1 + beta^2) / (1 + beta) instead.
    """
    return _reward(ref_edits, hyp_edits, frozenset(hyp_edits.edits), config)


def _reward(
    ref_edits: EditSet, hyp_edits: EditSet, hyp: frozenset[Edit], config: RewardConfig
) -> float:
    """``reward`` with the hypothesis edits already collected in ``hyp``."""
    if ref_edits.source_len != hyp_edits.source_len:
        raise ValidationError(
            f"edit sets disagree on source length: {ref_edits.source_len} vs {hyp_edits.source_len}"
        )
    n_ref = len(ref_edits)
    n_hyp = len(hyp_edits)
    if n_ref == 0 and n_hyp == 0:
        return config.empty_empty_value
    overlap = len(hyp.intersection(ref_edits.edits))
    kind = config.kind
    if kind == "recall":
        if n_ref == 0:
            return config.empty_denominator_value
        return overlap / n_ref
    if kind == "precision":
        if n_hyp == 0:
            return config.empty_denominator_value
        return overlap / n_hyp
    if kind == "f":
        b2 = config.beta * config.beta
        return (1.0 + b2) * overlap / (b2 * n_ref + n_hyp)
    if kind == "f-paper":
        k = config.beta
        return (1.0 + k * k) * overlap / (k * n_ref + n_hyp)
    return overlap / (n_ref + n_hyp - overlap)  # jaccard


def expected_reward(
    hyp_edits: EditSet, reward_set: Sequence[EditSet], config: RewardConfig
) -> float:
    """Mean reward of ``hyp_edits`` against each member of ``reward_set``.

    Members are weighted uniformly; the hypothesis may itself be a member
    (contributing 1.0 for its own term).  ``math.fsum`` keeps the mean
    independent of member order.  Members are counted against one set of the
    hypothesis edits.
    """
    if not reward_set:
        raise ValueError("reward set must be non-empty")
    hyp = frozenset(hyp_edits.edits)
    total = math.fsum(_reward(ref, hyp_edits, hyp, config) for ref in reward_set)
    return total / len(reward_set)
