"""Edit-set reward functions and their uniform-average expectation."""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, getitem

from .edit_core import Edit, EditSet, check_source_len

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


@lru_cache(maxsize=4096)
def _row(n_ref: int, n_hyp: int, kind: str, beta: float) -> tuple[float, ...]:
    """``_score`` at every overlap ``0 .. min(n_ref, n_hyp)``: the only overlaps
    a reference of ``n_ref`` and a hypothesis of ``n_hyp`` distinct edits can
    share, and all with a non-zero denominator."""
    config = RewardConfig(kind, beta)
    return tuple(
        _score(overlap, n_ref, n_hyp, config) for overlap in range(min(n_ref, n_hyp) + 1)
    )


class RewardSet:
    """One sentence's reward set as edit bitmasks and cached reward rows.

    Each distinct edit of a member gets one bit; a member is held as its mask
    and size, so a hypothesis shares ``popcount(h & r)`` edits with it.  A
    hypothesis edit no member holds has no bit and counts only in its size.
    For each hypothesis size and config the table keeps one row per member
    (``_row``: that member's reward at every possible overlap), so a
    candidate is scored by indexing rows with overlaps, all in C.  A row
    entry is the ``_score`` value for the same arguments, and ``math.fsum``
    sums the same terms in member order, so every float is the one scoring
    each member directly gives.
    """

    __slots__ = ("source_len", "_bits", "_refs", "_sizes", "_rows")

    def __init__(self, reward_set: Sequence[EditSet]) -> None:
        if not reward_set:
            raise ValueError("reward set must be non-empty")
        self.source_len = reward_set[0].source_len
        bits: dict[Edit, int] = {}
        refs: list[int] = []
        for ref in reward_set:
            check_source_len(self.source_len, ref)
            mask = 0
            for edit in ref.edits:
                mask |= bits.setdefault(edit, 1 << len(bits))
            refs.append(mask)
        self._bits = bits
        self._refs = tuple(refs)
        self._sizes = tuple(len(ref) for ref in reward_set)
        self._rows: dict[tuple[int, str, float], list[tuple[float, ...]]] = {}

    def bit(self, edit: Edit) -> int:
        """The bit of ``edit``, or 0 when no member holds it."""
        return self._bits.get(edit, 0)

    def mask(self, edit_set: EditSet) -> int:
        """The bits of the edits in ``edit_set`` that some member holds."""
        check_source_len(self.source_len, edit_set)
        # Distinct edits have distinct bits, so the sum is the OR.
        return sum(map(self._bits.get, edit_set.edits, repeat(0)))

    def overlaps(self, mask: int) -> list[int]:
        """How many of the bits in ``mask`` each member holds, in member order."""
        return list(map(int.bit_count, map(mask.__and__, self._refs)))

    def _member_rows(self, n_hyp: int, config: RewardConfig) -> list[tuple[float, ...]]:
        key = (n_hyp, config.kind, config.beta)
        rows = self._rows.get(key)
        if rows is None:
            rows = self._rows[key] = [
                _row(n_ref, n_hyp, config.kind, config.beta) for n_ref in self._sizes
            ]
        return rows

    def expected(self, mask: int, n_hyp: int, config: RewardConfig) -> float:
        """Mean reward of a hypothesis of ``n_hyp`` edits, ``mask`` of them held
        by some member, against every member (``math.fsum`` in member order)."""
        rows = self._member_rows(n_hyp, config)
        overlaps = map(int.bit_count, map(mask.__and__, self._refs))
        return math.fsum(map(getitem, rows, overlaps)) / len(rows)

    def expected_insertions(
        self,
        overlaps: Sequence[int],
        n_hyp: int,
        holders: Iterable[Sequence[int]],
        config: RewardConfig,
    ) -> list[float]:
        """``expected`` for each one-edit insertion into a hypothesis, in order.

        ``overlaps`` is the hypothesis's ``overlaps(mask)`` before insertion,
        ``n_hyp`` its size after, and each entry of ``holders`` one new edit's
        ``overlaps(bit(edit))``: 1 for each member that holds it, else 0.  A
        new edit is not yet in the hypothesis, so the two add up to the
        overlaps after insertion.
        """
        rows = self._member_rows(n_hyp, config)
        k = len(rows)
        return [math.fsum(map(getitem, rows, map(add, overlaps, held))) / k for held in holders]


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
