"""Combination strategies: MBR selection, vote augmentation, greedy edit insertion.

All strategies score a candidate by its expected reward: the uniform mean of
the configured reward against every member of the reward-expectation set
(the base systems by default).  Selection returns the candidate maximizing
that expectation; richer selection sets (vote candidates, the greedy result)
can only raise the attainable maximum.
``combine_sentence`` is the one path for every strategy; it builds a
sentence's vote candidates once, from one conflict-resolution pass, and only
when the strategy or the reward set uses them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace
from operator import add

from .edit_core import (
    Candidate,
    Edit,
    EditSet,
    ValidationError,
    intersect,  # traced by perfbench/child.py
    vote_set,  # traced by perfbench/child.py
    vote_sets,
)
from .m2_io import CorpusEntry
from .rewards import RewardConfig, RewardSet, expected_reward

STRATEGIES = ("mbr", "mbr-vote", "greedy")
REWARD_SET_SPECS = ("base", "base+votes")


@dataclass(frozen=True, slots=True)
class CombineConfig:
    """Strategy, reward, and candidate-set composition for one combination run.

    ``reward_set`` picks the candidates the expected reward is averaged over:
    the base systems alone (default) or base systems plus vote candidates.
    ``greedy_pool_threshold`` is the vote count an edit needs to enter the
    greedy insertion pool (clamped to the system count at use).
    """

    strategy: str = "mbr"
    reward: RewardConfig = field(default_factory=RewardConfig)
    reward_set: str = "base"
    greedy_pool_threshold: int = 2

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.reward_set not in REWARD_SET_SPECS:
            raise ValueError(
                f"unknown reward set {self.reward_set!r}; expected one of {REWARD_SET_SPECS}"
            )
        if self.greedy_pool_threshold < 1:
            raise ValueError("greedy_pool_threshold must be >= 1")


@dataclass(frozen=True, slots=True)
class GreedyStep:
    """One committed greedy insertion with the objective before and after."""

    edit: Edit
    reward_before: float
    reward_after: float


@dataclass(frozen=True, slots=True)
class CombineResult:
    """Chosen candidate, the selection set it won over, and per-candidate scores."""

    chosen: Candidate
    selection: tuple[Candidate, ...]
    expected_rewards: tuple[float, ...]
    trace: tuple[GreedyStep, ...] = ()


def mbr_select(
    selection_set: Sequence[Candidate],
    reward_set: Sequence[Candidate] | RewardSet,
    config: CombineConfig,
) -> CombineResult:
    """Pick the candidate with the highest expected reward against ``reward_set``.

    ``reward_set`` is the candidates to average over, or their ``RewardSet``
    when the caller has built one already.  The first candidate attaining the
    maximum wins, so the selection order is the tie-break policy (base
    systems in input order, then vote candidates by threshold, then greedy).
    """
    selection = tuple(selection_set)
    if not selection:
        raise ValueError("selection set must be non-empty")
    if isinstance(reward_set, RewardSet):
        table = reward_set
    else:
        table = RewardSet([candidate.edit_set for candidate in reward_set])
    scores = tuple(
        expected_reward(candidate.edit_set, table, config.reward) for candidate in selection
    )
    best = max(range(len(selection)), key=scores.__getitem__)
    return CombineResult(chosen=selection[best], selection=selection, expected_rewards=scores)


def vote_candidates(systems: Sequence[Candidate]) -> list[Candidate]:
    """Vote candidates for every threshold m = 1..N, labeled ``vote-m``.

    ``vote-1`` is the conflict-resolved union of all system edit sets,
    ``vote-m`` its edits with at least m votes, and ``vote-N`` their
    intersection.
    """
    if not systems:
        raise ValueError("need at least one system")
    sets = [candidate.edit_set for candidate in systems]
    return [
        Candidate(edit_set, f"vote-{m}")
        for m, edit_set in enumerate(vote_sets(sets), start=1)
    ]


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

    One ``RewardSet`` serves the whole sentence, greedy rounds and final
    selection alike.  A round scores the whole pool in one
    ``expected_insertions`` call, from the working set's per-member overlaps
    and each pool edit's fixed 0/1 holder vector; the grown ``EditSet`` is
    built once.  The overlaps are those of the grown set itself, and the
    reward rows hold the ``_score`` values, so the floats are those of
    scoring each grown set against each member.
    """
    systems = list(systems)
    if not systems:
        raise ValueError("need at least one system")
    need_votes = config.strategy != "mbr" or config.reward_set == "base+votes"
    votes = vote_candidates(systems) if need_votes else []
    reward_cands = systems + votes if config.reward_set == "base+votes" else systems
    selection = systems if config.strategy == "mbr" else systems + votes
    if config.strategy != "greedy":
        return mbr_select(selection, reward_cands, config)

    table = RewardSet([candidate.edit_set for candidate in reward_cands])
    working = votes[-1].edit_set
    threshold = min(config.greedy_pool_threshold, len(systems))
    pool = [edit for edit in votes[threshold - 1].edit_set if edit not in working]
    holders = [table.overlaps(table.bit(edit)) for edit in pool]
    current = expected_reward(working, table, config.reward)
    overlaps, size = table.overlaps(table.mask(working)), len(working)
    trace: list[GreedyStep] = []
    while pool:
        scores = table.expected_insertions(overlaps, size + 1, holders, config.reward)
        best = max(range(len(scores)), key=scores.__getitem__)
        if not scores[best] > current:
            break
        trace.append(GreedyStep(pool.pop(best), current, scores[best]))
        overlaps = list(map(add, overlaps, holders.pop(best)))
        size, current = size + 1, scores[best]
    grown = EditSet(working.source_len, working.edits + tuple(step.edit for step in trace))
    result = mbr_select(selection + [Candidate(grown, "greedy")], table, config)
    return replace(result, trace=tuple(trace))


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
