"""Edit-set reward functions and their uniform-average expectation.

``RewardSet`` scores a sentence's candidates against its members from
bitmasks, all taken over one ``EditIndex`` (the one map from edits to bits):
a member's size is its mask's popcount, and a hypothesis's overlap with it
the popcount of their AND.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import add, getitem

from .edit_core import Checked, EditIndex, EditSet, check_choice

REWARD_KINDS = ("recall", "precision", "f", "f-paper", "jaccard")

# The betas the F rewards accept.  Beta squared stays a normal double, and
# every F numerator and denominator stays finite and non-zero for any edit
# count below 1e100; outside it, (1 + beta^2) * overlap overflows to nan or
# beta^2 underflows to 0.
BETA_MIN, BETA_MAX = 1e-100, 1e100


def check_beta(beta: float) -> None:
    """Raise ``ValueError`` unless ``beta`` is an ``int`` or a ``float`` (a
    ``bool`` is refused) in [``BETA_MIN``, ``BETA_MAX``]."""
    if not isinstance(beta, (int, float)) or isinstance(beta, bool):
        raise ValueError(f"beta must be an int or a float, got {beta!r}")
    if not 0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not BETA_MIN <= beta <= BETA_MAX:
        raise ValueError(f"beta must be between {BETA_MIN:g} and {BETA_MAX:g}, got {beta}")


class RewardConfig(Checked, namedtuple("RewardConfig", "kind beta")):
    """Reward kind and the F rewards' ``beta``.

    ``beta`` weights recall against precision for the F rewards: ``f`` is the
    standard F-beta (beta-squared reference weighting in the denominator),
    ``f-paper`` an alternative with linear beta weighting; the two differ for
    beta != 1.  Note that ``f-paper`` is not normalized: a perfect match
    scores (1 + beta^2) / (1 + beta) rather than 1.  Empty sets follow the
    scorer's convention: when both edit sets are empty every reward is 1.0,
    and so is recall against an empty reference or precision of an empty
    hypothesis (nothing to get wrong).  ``beta`` must lie in
    [``BETA_MIN``, ``BETA_MAX``], where every F reward is finite.
    """

    __slots__ = ()

    def __new__(cls, kind: str = "f", beta: float = 0.5) -> RewardConfig:
        check_choice(kind, "reward kind", REWARD_KINDS)
        check_beta(beta)
        return tuple.__new__(cls, (kind, beta))


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


# 256: a combine call reads one table per hypothesis size, at most 28 on the bench corpora.
@lru_cache(maxsize=256)
class _RowTable(dict):
    """The ``_score`` rows of one ``(n_hyp, config)``, keyed by reference size
    ``n_ref``: the reward at every overlap ``0 .. min(n_ref, n_hyp)``, the
    only overlaps the two can share, all with a non-zero denominator.  A row
    is built on its first lookup, and the cache holds one table per key; a
    ``RewardConfig`` is the tuple ``(kind, beta)``, so configs that compare
    equal share a table."""

    __slots__ = ("n_hyp", "config")

    def __init__(self, n_hyp: int, config: RewardConfig) -> None:
        self.n_hyp, self.config = n_hyp, config

    def __missing__(self, n_ref: int) -> tuple[float, ...]:
        n_hyp, config = self.n_hyp, self.config
        scores = (_score(overlap, n_ref, n_hyp, config) for overlap in range(min(n_ref, n_hyp) + 1))
        return self.setdefault(n_ref, tuple(scores))


class RewardSet:
    """One sentence's reward set as member masks and member sizes.

    ``masks`` are the members' edit sets as masks over one ``EditIndex``:
    its ``masks``, plus any members whose edits all have bits there (the
    vote sets).  A hypothesis is masked over the same index
    (``EditIndex.mask``); an edit no member holds has no bit and counts only
    in the hypothesis's size.  A member's size is its mask's popcount, taken
    once here, and a hypothesis shares ``popcount(h & r)`` edits with it.  A
    candidate is scored by looking up each member's row by its size in the
    shared ``_RowTable`` of the hypothesis size and config (that member's
    reward at every possible overlap) and indexing it with the overlap, all
    in C.  A row entry is the ``_score`` value for the same arguments, and
    ``math.fsum`` sums the same terms in member order, so every float is the
    one scoring each member directly gives.  Nothing changes after
    construction.
    """

    __slots__ = ("_refs", "_sizes")

    def __init__(self, masks: Iterable[int]) -> None:
        self._refs = tuple(masks)
        self._sizes = tuple(map(int.bit_count, self._refs))

    def overlaps(self, mask: int) -> list[int]:
        """How many of the bits in ``mask`` each member holds, in member order."""
        return list(map(int.bit_count, map(mask.__and__, self._refs)))

    def expected(self, mask: int, n_hyp: int, config: RewardConfig) -> float:
        """Mean reward of a hypothesis of ``n_hyp`` edits, ``mask`` of them held
        by some member, against every member (``math.fsum`` in member order)."""
        rows = map(_RowTable(n_hyp, config).__getitem__, self._sizes)
        overlaps = map(int.bit_count, map(mask.__and__, self._refs))
        return math.fsum(map(getitem, rows, overlaps)) / len(self._sizes)

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
        ``overlaps`` of its bit: 1 for each member that holds it, else 0.  A
        new edit is not yet in the hypothesis, so the two add up to the
        overlaps after insertion.
        """
        rows = list(map(_RowTable(n_hyp, config).__getitem__, self._sizes))
        k = len(rows)
        return [math.fsum(map(getitem, rows, map(add, overlaps, held))) / k for held in holders]


def reward(ref_edits: EditSet, hyp_edits: EditSet, config: RewardConfig) -> float:
    """Score hypothesis edits against reference edits.

    Every kind except ``f-paper`` lies in [0, 1] with 1.0 for identical sets;
    ``f-paper`` tops out at (1 + beta^2) / (1 + beta) instead.
    """
    return expected_reward(hyp_edits, [ref_edits], config)


def expected_reward(
    hyp_edits: EditSet, reward_set: Sequence[EditSet], config: RewardConfig
) -> float:
    """Mean reward of ``hyp_edits`` against each member of ``reward_set``.

    Members are weighted uniformly.  The hypothesis may itself be a member; its
    own term is then the kind's perfect-match value: 1.0, except that a
    non-empty ``f-paper`` match gives (1 + beta^2) / (1 + beta).  ``math.fsum``
    keeps the mean independent of member order.  The members are indexed
    (``EditIndex``), the hypothesis masked over that index, and the mask
    scored by a ``RewardSet`` of the members' masks.
    """
    index = EditIndex(reward_set)
    return RewardSet(index.masks).expected(index.mask(hyp_edits), len(hyp_edits), config)
