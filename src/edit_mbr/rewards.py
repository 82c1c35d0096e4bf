"""Edit-set reward functions and their uniform-average expectation."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .edit_core import Edit, EditSet, ValidationError

REWARD_KINDS = ("recall", "precision", "f", "f-paper", "jaccard")


@dataclass(frozen=True, slots=True)
class RewardConfig:
    """Reward kind and the F rewards' ``beta``.

    ``beta`` weights recall against precision for the F rewards: ``f`` is the
    standard F-beta (beta-squared reference weighting in the denominator),
    ``f-paper`` an alternative with linear beta weighting; the two differ for
    beta != 1.  Note that ``f-paper`` is not normalized: a perfect match
    scores (1 + beta^2) / (1 + beta) rather than 1.  Empty sets follow the
    scorer's convention: when both edit sets are empty every reward is 1.0,
    and so is recall against an empty reference or precision of an empty
    hypothesis (nothing to get wrong).
    """

    kind: str = "f"
    beta: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in REWARD_KINDS:
            raise ValueError(f"unknown reward kind {self.kind!r}; expected one of {REWARD_KINDS}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta must be positive and finite, got {self.beta}")


def _score(overlap: int, n_ref: int, n_hyp: int, config: RewardConfig) -> float:
    """The configured reward of a hypothesis of ``n_hyp`` edits against a
    reference of ``n_ref`` edits, ``overlap`` of them shared."""
    if n_ref == 0 and n_hyp == 0:
        return 1.0
    kind = config.kind
    if kind == "recall":
        return overlap / n_ref if n_ref else 1.0
    if kind == "precision":
        return overlap / n_hyp if n_hyp else 1.0
    if kind == "f":
        b2 = config.beta * config.beta
        return (1.0 + b2) * overlap / (b2 * n_ref + n_hyp)
    if kind == "f-paper":
        k = config.beta
        return (1.0 + k * k) * overlap / (k * n_ref + n_hyp)
    return overlap / (n_ref + n_hyp - overlap)  # jaccard


class RewardSet:
    """One sentence's reward set as edit bitmasks.

    Each distinct edit of a member gets one bit; a member is held as its mask
    and size, so a hypothesis shares ``popcount(h & r)`` edits with it.  A
    hypothesis edit no member holds has no bit and counts only in its size.
    """

    __slots__ = ("source_len", "_bits", "_members")

    def __init__(self, reward_set: Sequence[EditSet]) -> None:
        if not reward_set:
            raise ValueError("reward set must be non-empty")
        self.source_len = reward_set[0].source_len
        bits: dict[Edit, int] = {}
        self._members: list[tuple[int, int]] = []
        for ref in reward_set:
            self._check_source(ref)
            mask = 0
            for edit in ref.edits:
                mask |= bits.setdefault(edit, 1 << len(bits))
            self._members.append((mask, len(ref)))
        self._bits = bits

    def _check_source(self, edit_set: EditSet) -> None:
        if edit_set.source_len != self.source_len:
            raise ValidationError(
                f"edit sets disagree on source length: {self.source_len} vs {edit_set.source_len}"
            )

    def bit(self, edit: Edit) -> int:
        """The bit of ``edit``, or 0 when no member holds it."""
        return self._bits.get(edit, 0)

    def mask(self, edit_set: EditSet) -> int:
        """The bits of the edits in ``edit_set`` that some member holds."""
        self._check_source(edit_set)
        bits = self._bits
        mask = 0
        for edit in edit_set.edits:
            mask |= bits.get(edit, 0)
        return mask

    def expected(self, mask: int, n_hyp: int, config: RewardConfig) -> float:
        """Mean reward of a hypothesis of ``n_hyp`` edits, ``mask`` of them held
        by some member, against every member (``math.fsum`` in member order)."""
        total = math.fsum(
            _score((mask & ref).bit_count(), n_ref, n_hyp, config)
            for ref, n_ref in self._members
        )
        return total / len(self._members)


def reward(ref_edits: EditSet, hyp_edits: EditSet, config: RewardConfig) -> float:
    """Score hypothesis edits against reference edits.

    Every kind except ``f-paper`` lies in [0, 1] with 1.0 for identical sets;
    ``f-paper`` tops out at (1 + beta^2) / (1 + beta) instead.
    """
    return expected_reward(hyp_edits, [ref_edits], config)


def expected_reward(
    hyp_edits: EditSet, reward_set: Sequence[EditSet] | RewardSet, config: RewardConfig
) -> float:
    """Mean reward of ``hyp_edits`` against each member of ``reward_set``.

    Members are weighted uniformly.  The hypothesis may itself be a member; its
    own term is then the kind's perfect-match value: 1.0, except that a
    non-empty ``f-paper`` match gives (1 + beta^2) / (1 + beta).  ``math.fsum``
    keeps the mean independent of member order.  A sequence of edit sets is
    first turned into a ``RewardSet``; passing one scores against it directly.
    """
    table = reward_set if isinstance(reward_set, RewardSet) else RewardSet(reward_set)
    return table.expected(table.mask(hyp_edits), len(hyp_edits), config)
