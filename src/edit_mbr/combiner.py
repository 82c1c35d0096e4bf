"""Combination strategies: MBR selection, vote augmentation, greedy edit insertion.

All strategies score a candidate by its expected reward: the uniform mean of
the configured reward against every member of the reward-expectation set
(the base systems by default).  Selection returns the first candidate
maximizing that expectation; richer selection sets (vote candidates, the
greedy result) can only raise the attainable maximum.
``combine_sentence`` is the one path for every strategy.  It indexes a
sentence's system edits once (``EditIndex``, the one map from edits to
bits); the vote candidates, their masks, the reward table and the greedy
pool's bits all come from that one index, and each candidate is scored from
the mask it already has, once per distinct mask.  ``mbr_select`` takes
candidates from outside, masks them over an index of its reward set first,
and then applies the same selection rule (``_select``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from operator import add

from .edit_core import (
    Candidate,
    Checked,
    CorpusEntry,
    EditIndex,
    EditSet,
    ValidationError,
    check_choice,
    check_int,
    intersect,  # traced by perfbench/child.py
    vote_set,  # traced by perfbench/child.py
)
from .rewards import (
    RewardConfig,
    RewardSet,
    expected_reward,  # traced by perfbench/child.py
)

STRATEGIES = ("mbr", "mbr-vote", "greedy")
REWARD_SET_SPECS = ("base", "base+votes")


class CombineConfig(
    Checked, namedtuple("CombineConfig", "strategy reward reward_set greedy_pool_threshold")
):
    """Strategy, reward, and candidate-set composition for one combination run.

    ``reward_set`` picks the candidates the expected reward is averaged over:
    the base systems alone (default) or base systems plus vote candidates.
    ``greedy_pool_threshold`` is the vote count an edit needs to enter the
    greedy insertion pool: an ``int`` >= 1 (a ``bool`` is refused), clamped
    to the system count at use.
    """

    __slots__ = ()

    def __new__(
        cls, strategy="mbr", reward=RewardConfig(), reward_set="base", greedy_pool_threshold=2
    ) -> CombineConfig:
        check_choice(strategy, "strategy", STRATEGIES)
        check_choice(reward_set, "reward set", REWARD_SET_SPECS)
        check_int(greedy_pool_threshold, "greedy_pool_threshold", 1)
        if not isinstance(reward, RewardConfig):
            raise ValidationError(f"reward must be a RewardConfig, got {reward!r}")
        return tuple.__new__(cls, (strategy, reward, reward_set, greedy_pool_threshold))


class GreedyStep(namedtuple("GreedyStep", "edit reward_before reward_after")):
    """One committed greedy insertion with the objective before and after."""

    __slots__ = ()


class CombineResult(
    namedtuple("CombineResult", "chosen selection expected_rewards trace", defaults=((),))
):
    """Chosen candidate, the selection set it won over, and per-candidate scores."""

    __slots__ = ()


def _select(
    selection: Sequence[Candidate], keys: Sequence[tuple[int, int]], table: RewardSet,
    reward: RewardConfig, memo: dict[tuple[int, int], float],
) -> CombineResult:
    """The selection rule: the first candidate with the highest expected reward.

    ``keys`` holds each candidate's ``(mask, size)`` over ``table``'s index, in
    selection order.  ``memo`` maps each key already scored to its score, so
    a key that repeats is scored once.  The first maximum wins, so the
    selection order is the tie-break policy (base systems in input order,
    then vote candidates by threshold, then greedy).
    """
    for key in set(keys) - memo.keys():
        memo[key] = table.expected(*key, reward)
    scores = tuple(map(memo.__getitem__, keys))
    best = max(range(len(scores)), key=scores.__getitem__)
    return CombineResult(selection[best], tuple(selection), scores)


def mbr_select(
    selection_set: Sequence[Candidate], reward_set: Sequence[Candidate], config: CombineConfig
) -> CombineResult:
    """Pick the candidate with the highest expected reward against ``reward_set``.

    ``reward_set`` is the candidates to average over, indexed here
    (``EditIndex``) and scored through a ``RewardSet`` of their masks.  Each
    candidate is masked over the index and sized by its edit count, since it
    may hold edits no member holds, and then ``_select`` picks as
    ``combine_sentence`` does.  ``combine_sentence`` does not call it;
    ``perfbench/child.py`` still replaces this name to trace it.
    """
    selection = tuple(selection_set)
    if not selection:
        raise ValueError("selection set must be non-empty")
    index = EditIndex([candidate.edit_set for candidate in reward_set])
    keys = [(index.mask(candidate.edit_set), len(candidate.edit_set)) for candidate in selection]
    return _select(selection, keys, RewardSet(index.masks), config.reward, {})


def _labeled(resolved: Sequence[tuple[EditSet, int]]) -> list[Candidate]:
    """``EditIndex.resolve``'s vote sets as candidates labeled ``vote-m``."""
    return [Candidate(edit_set, f"vote-{m}") for m, (edit_set, _) in enumerate(resolved, start=1)]


def vote_candidates(systems: Sequence[Candidate]) -> list[Candidate]:
    """Vote candidates for every threshold m = 1..N, labeled ``vote-m``.

    ``vote-1`` is the conflict-resolved union of all system edit sets,
    ``vote-m`` its edits with at least m votes, and ``vote-N`` their
    intersection (see ``EditIndex.resolve``).
    """
    return _labeled(EditIndex([candidate.edit_set for candidate in systems]).resolve())


def combine_sentence(systems: Sequence[Candidate], config: CombineConfig) -> CombineResult:
    """Combine one sentence's system candidates per the configured strategy.

    ``mbr`` selects among the systems, ``mbr-vote`` adds the vote candidates,
    and ``greedy`` also adds a grown edit set: the working set starts at
    ``vote-N`` (the intersection), the pool is ``vote-m`` at the configured
    threshold (clamped to N) minus the working set.  Both lie inside that one
    conflict-free vote set, so no pool edit conflicts with the working set.
    Each round scores every pool edit and commits the insertion that raises
    the expected reward the most (the first maximum), stopping when no
    insertion strictly improves it.

    The sentence's system edit sets are indexed once (``EditIndex``).  The
    vote candidates and their masks come from one ``resolve`` of that index,
    and only when the strategy or the reward set uses them; one
    ``RewardSet`` over the index (plus the vote masks under ``base+votes``)
    serves greedy rounds and final selection alike.  Every candidate edit is
    a system edit with a bit, so each candidate is scored from the mask the
    index already gives it (a system's ``masks`` entry, a vote set's
    ``resolve`` mask, the grown set's mask built below), with its popcount as
    its size; no edit is hashed again to score it, and a mask that repeats
    (a vote set equal to another, or to a system) is scored once.  The
    working set's mask is the ``vote-N`` mask, and the pool is the threshold
    set's edits whose bit lies outside it.  A round scores the whole pool in
    one ``expected_insertions`` call, from the working set's per-member
    overlaps and each pool edit's fixed 0/1 holder vector; a committed
    edit's bit joins the working mask, and the grown ``EditSet`` is built
    once.  The overlaps are those of the grown set itself, and the reward
    rows hold the ``_score`` values, so the floats are those of scoring each
    candidate's edit set against each member (``expected_reward``).
    """
    systems = list(systems)
    index = EditIndex([candidate.edit_set for candidate in systems])
    with_votes = config.reward_set == "base+votes"
    resolved = index.resolve() if config.strategy != "mbr" or with_votes else []
    table = RewardSet(index.masks + [mask for _, mask in resolved if with_votes])
    voted = resolved if config.strategy != "mbr" else []
    selection = systems + _labeled(voted)
    keys = [(mask, mask.bit_count()) for mask in index.masks + [mask for _, mask in voted]]
    memo: dict[tuple[int, int], float] = {}
    if config.strategy != "greedy":
        return _select(selection, keys, table, config.reward, memo)

    working, mask = resolved[-1]
    threshold = min(config.greedy_pool_threshold, len(systems))
    pool = [edit for edit in resolved[threshold - 1][0] if not index.bits[edit] & mask]
    holders = [table.overlaps(index.bits[edit]) for edit in pool]
    overlaps, size = table.overlaps(mask), len(working)
    current = memo[mask, size] = table.expected(mask, size, config.reward)
    trace: list[GreedyStep] = []
    while pool:
        scores = table.expected_insertions(overlaps, size + 1, holders, config.reward)
        best = max(range(len(scores)), key=scores.__getitem__)
        if not scores[best] > current:
            break
        trace.append(GreedyStep(pool.pop(best), current, scores[best]))
        overlaps = list(map(add, overlaps, holders.pop(best)))
        mask, size, current = mask | index.bits[trace[-1].edit], size + 1, scores[best]
    # Distinct edits of the one conflict-free threshold vote set.
    grown_edits = tuple(sorted(working.edits + tuple(step.edit for step in trace)))
    grown = EditSet._of(working.source_len, grown_edits)
    selection, keys = selection + [Candidate(grown, "greedy")], keys + [(mask, size)]
    result = _select(selection, keys, table, config.reward, memo)
    return CombineResult(result.chosen, result.selection, result.expected_rewards, tuple(trace))


def combine_corpus(
    entries: Iterable[CorpusEntry], config: CombineConfig, threads: int = 1
) -> list[CombineResult]:
    """Combine every entry independently, in order.

    ``entries`` may be any iterable (a tuple from ``load_parallel``, a list,
    a generator); it is read once.  Entries must all carry the same number
    of systems, checked before any is combined.  ``threads`` is
    accepted and does not change the work: combination is serial, because
    the per-sentence work is pure Python and holds the interpreter lock.
    """
    entries = tuple(entries)
    counts = {len(entry.systems) for entry in entries}
    if len(counts) > 1:
        raise ValidationError(f"entries disagree on system count: {sorted(counts)}")
    return [combine_sentence(entry.systems, config) for entry in entries]
