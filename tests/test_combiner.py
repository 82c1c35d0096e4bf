"""MBR selection, vote candidates, greedy insertion, and corpus combination."""

import itertools
import random

import pytest

from conftest import (
    bf_expected,
    bf_greedy,
    bf_intersect,
    bf_vote_set,
    random_systems,
)
from edit_mbr.combiner import (
    REWARD_SET_SPECS,
    CombineConfig,
    combine_corpus,
    combine_sentence,
    mbr_select,
    vote_candidates,
)
from edit_mbr.edit_core import (
    Candidate,
    Edit,
    EditIndex,
    EditSet,
    ValidationError,
    conflicts,
    tokenize,
    vote_set,
)
from edit_mbr.m2_io import CorpusEntry
from edit_mbr.rewards import REWARD_KINDS, RewardConfig, RewardSet, expected_reward

B = Edit(1, 2, ("B",))
D = Edit(3, 3, ("d",))
X = Edit(1, 2, ("X",))


def es(*edits):
    return EditSet(3, tuple(edits))


def fixture_systems():
    return [
        Candidate(es(B), "h1"),
        Candidate(es(B, D), "h2"),
        Candidate(es(), "h3"),
    ]


def config_for(kind, **kwargs):
    return CombineConfig(reward=RewardConfig(kind=kind, beta=0.5), **kwargs)


class TestMbrSelect:
    def test_recall_picks_superset(self):
        systems = fixture_systems()
        result = mbr_select(systems, systems, config_for("recall"))
        assert result.chosen.label == "h2"
        assert result.expected_rewards == pytest.approx((5 / 6, 1.0, 1 / 3), abs=1e-12)

    def test_precision_picks_empty(self):
        systems = fixture_systems()
        result = mbr_select(systems, systems, config_for("precision"))
        assert result.chosen.label == "h3"
        assert result.expected_rewards == pytest.approx((2 / 3, 0.5, 1.0), abs=1e-12)

    def test_f_picks_consensus_edit(self):
        systems = fixture_systems()
        result = mbr_select(systems, systems, config_for("f"))
        assert result.chosen.label == "h1"
        assert result.expected_rewards == pytest.approx((11 / 18, 14 / 27, 1 / 3), abs=1e-12)

    def test_singleton(self):
        only = [Candidate(es(B), "h1")]
        result = mbr_select(only, only, config_for("f"))
        assert result.chosen.label == "h1"
        assert result.expected_rewards == (1.0,)

    def test_first_maximal_wins_ties(self):
        twin_a = Candidate(es(B), "a")
        twin_b = Candidate(es(B), "b")
        result = mbr_select([twin_a, twin_b], [twin_a, twin_b], config_for("f"))
        assert result.chosen.label == "a"

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            mbr_select([], fixture_systems(), config_for("f"))

    def test_empty_reward_set_rejected(self):
        with pytest.raises(ValueError):
            mbr_select(fixture_systems(), [], config_for("f"))

    def test_chosen_maximizes_brute_force(self):
        rng = random.Random(41)
        for _ in range(100):
            systems = random_systems(rng)
            kind = rng.choice(["recall", "precision", "f", "jaccard"])
            result = mbr_select(systems, systems, config_for(kind))
            refs = [c.edit_set.edits for c in systems]
            scores = [bf_expected(kind, refs, c.edit_set.edits) for c in systems]
            chosen_index = result.selection.index(result.chosen)
            assert max(scores) == pytest.approx(scores[chosen_index], abs=1e-12)

    def test_reward_set_table_or_candidates_give_the_same_result(self):
        rng = random.Random(47)
        for _ in range(200):
            systems = random_systems(rng)
            selection = systems + vote_candidates(systems)
            table = RewardSet(EditIndex([candidate.edit_set for candidate in systems]))
            for kind in REWARD_KINDS:
                config = config_for(kind)
                assert mbr_select(selection, table, config) == mbr_select(
                    selection, systems, config
                )

    def test_argmax_invariant_under_affine_reward_map(self):
        rng = random.Random(43)
        for _ in range(100):
            systems = random_systems(rng)
            result = mbr_select(systems, systems, config_for("f"))
            original = list(result.expected_rewards)
            for a, b in ((2.0, 0.25), (0.5, -1.0), (10.0, 3.0)):
                transformed = [a * score + b for score in original]
                assert max(range(len(original)), key=original.__getitem__) == max(
                    range(len(transformed)), key=transformed.__getitem__
                )


class TestVoteCandidates:
    def test_fixture_thresholds(self):
        votes = vote_candidates(fixture_systems())
        assert [c.label for c in votes] == ["vote-1", "vote-2", "vote-3"]
        assert votes[0].edit_set == es(B, D)
        assert votes[1].edit_set == es(B)
        assert votes[2].edit_set == es()

    def test_identical_systems(self):
        systems = [Candidate(es(B), f"s{i}") for i in range(3)]
        votes = vote_candidates(systems)
        assert all(v.edit_set == es(B) for v in votes)

    def test_conflicting_systems_resolved_by_votes(self):
        systems = [Candidate(es(B), "s0"), Candidate(es(X), "s1"), Candidate(es(B), "s2")]
        votes = vote_candidates(systems)
        assert votes[0].edit_set == es(B)
        assert votes[1].edit_set == es(B)
        assert votes[2].edit_set == es()

    def test_extremes_match_algebra(self):
        rng = random.Random(47)
        for _ in range(150):
            systems = random_systems(rng)
            sets = [c.edit_set for c in systems]
            votes = vote_candidates(systems)
            assert votes[0].edit_set == vote_set(sets, 1)
            assert votes[-1].edit_set == bf_intersect(sets)

    def test_every_threshold_matches_vote_set_with_priority(self):
        # Tie priority is system position, so shuffling the systems reorders it.
        rng = random.Random(71)
        for _ in range(300):
            n = rng.randint(1, 8)
            systems = random_systems(rng, n_systems=n, pool_size=rng.randint(1, 10))
            rng.shuffle(systems)
            sets = [c.edit_set for c in systems]
            votes = vote_candidates(systems)
            assert [c.label for c in votes] == [f"vote-{m}" for m in range(1, n + 1)]
            for m in range(1, n + 1):
                assert votes[m - 1].edit_set == vote_set(sets, m)
                assert votes[m - 1].edit_set == bf_vote_set(sets, m)
            assert vote_set(sets, n + 1) == EditSet(sets[0].source_len)
            assert votes[-1].edit_set == bf_intersect(sets)


    def test_every_threshold_is_conflict_free_and_holds_the_intersection(self):
        # greedy's pool (vote-T minus vote-N) and working set (vote-N) both lie
        # in one conflict-free vote set, so no pool edit can conflict with it
        rng = random.Random(97)
        for _ in range(500):
            n = rng.randint(1, 8)
            systems = random_systems(
                rng, source_len=rng.randint(0, 10), n_systems=n, pool_size=rng.randint(0, 10)
            )
            votes = vote_candidates(systems)
            intersection = set(votes[-1].edit_set)
            for vote in votes:
                edits = vote.edit_set.edits
                assert intersection <= set(edits)
                assert not any(
                    conflicts(first, second)
                    for i, first in enumerate(edits)
                    for second in edits[i + 1 :]
                )


class TestGreedyCombine:
    def test_fixture_default_pool(self):
        result = combine_sentence(fixture_systems(), config_for("f", strategy="greedy"))
        greedy = next(c for c in result.selection if c.label == "greedy")
        assert greedy.edit_set == es(B)
        assert len(result.trace) == 1
        step = result.trace[0]
        assert step.edit == B
        assert step.reward_before == pytest.approx(1 / 3, abs=1e-12)
        assert step.reward_after == pytest.approx(11 / 18, abs=1e-12)
        assert result.chosen.edit_set == es(B)

    def test_fixture_pool_threshold_one(self):
        config = config_for("f", strategy="greedy", greedy_pool_threshold=1)
        result = combine_sentence(fixture_systems(), config)
        greedy = next(c for c in result.selection if c.label == "greedy")
        # d would lower the objective (14/27 < 11/18), so only B is inserted
        assert greedy.edit_set == es(B)
        assert len(result.trace) == 1

    def test_identical_systems_keep_common_set(self):
        systems = [Candidate(es(B, D), f"s{i}") for i in range(3)]
        result = combine_sentence(systems, config_for("f", strategy="greedy"))
        greedy = next(c for c in result.selection if c.label == "greedy")
        assert greedy.edit_set == es(B, D)
        assert result.trace == ()

    def test_threshold_clamped_to_system_count(self):
        only = [Candidate(es(B), "h1")]
        result = combine_sentence(only, config_for("f", strategy="greedy"))
        assert result.chosen.edit_set == es(B)

    def test_selection_order_base_votes_greedy(self):
        result = combine_sentence(fixture_systems(), config_for("f", strategy="greedy"))
        assert [c.label for c in result.selection] == [
            "h1", "h2", "h3", "vote-1", "vote-2", "vote-3", "greedy",
        ]

    def test_trace_strictly_increasing_and_chained(self):
        rng = random.Random(53)
        for _ in range(150):
            systems = random_systems(rng)
            kind = rng.choice(["recall", "precision", "f", "jaccard"])
            threshold = rng.choice([1, 2, 3])
            config = config_for(kind, strategy="greedy", greedy_pool_threshold=threshold)
            result = combine_sentence(systems, config)
            previous = None
            for step in result.trace:
                assert step.reward_after > step.reward_before
                if previous is not None:
                    assert step.reward_before == previous.reward_after
                previous = step

    def test_matches_per_candidate_edit_set_oracle_exactly(self):
        rng = random.Random(101)
        shapes = itertools.product(
            range(1, 9), REWARD_KINDS, REWARD_SET_SPECS, (0.3, 0.5, 1.0, 2.0), range(16)
        )
        instances = insertions = 0
        for n, kind, reward_set, beta, _ in shapes:
            systems = random_systems(
                rng,
                source_len=rng.randint(0, 12),
                n_systems=n,
                pool_size=rng.randint(0, 10),
                take=rng.choice([0.3, 0.45, 0.7]),
            )
            config = CombineConfig(
                strategy="greedy",
                reward=RewardConfig(kind=kind, beta=beta),
                reward_set=reward_set,
                greedy_pool_threshold=rng.randint(1, n + 1),
            )
            got = combine_sentence(systems, config)
            want = bf_greedy(systems, config)
            assert got.chosen == want.chosen
            assert got.selection == want.selection
            assert got.expected_rewards == want.expected_rewards
            assert got.trace == want.trace
            instances += 1
            insertions += bool(got.trace)
        assert instances >= 5000
        assert insertions > 1000

    def test_greedy_at_least_intersection(self):
        rng = random.Random(59)
        for _ in range(150):
            systems = random_systems(rng)
            config = config_for("f", strategy="greedy")
            result = combine_sentence(systems, config)
            sets = [c.edit_set for c in systems]
            refs = sets
            greedy_index = len(result.selection) - 1
            greedy_score = result.expected_rewards[greedy_index]
            intersection_score = expected_reward(bf_intersect(sets), refs, config.reward)
            assert greedy_score >= intersection_score


class TestSelectionMonotonicity:
    def test_supersets_never_lower_the_maximum(self):
        rng = random.Random(61)
        for _ in range(150):
            systems = random_systems(rng)
            kind = rng.choice(["recall", "precision", "f", "jaccard"])
            base = mbr_select(systems, systems, config_for(kind))
            voted = combine_sentence(systems, config_for(kind, strategy="mbr-vote"))
            greedy = combine_sentence(systems, config_for(kind, strategy="greedy"))
            assert max(voted.expected_rewards) >= max(base.expected_rewards)
            assert max(greedy.expected_rewards) >= max(voted.expected_rewards)


class TestCombineSentence:
    def test_strategies_share_reward_config(self):
        result = combine_sentence(fixture_systems(), config_for("f", strategy="mbr-vote"))
        assert [c.label for c in result.selection] == [
            "h1", "h2", "h3", "vote-1", "vote-2", "vote-3",
        ]
        assert result.chosen.edit_set == es(B)

    def test_reward_set_can_include_votes(self):
        config = config_for("f", strategy="mbr", reward_set="base+votes")
        systems = fixture_systems()
        result = combine_sentence(systems, config)
        refs = [c.edit_set for c in systems] + [
            c.edit_set for c in vote_candidates(systems)
        ]
        want = tuple(expected_reward(c.edit_set, refs, config.reward) for c in systems)
        assert result.expected_rewards == pytest.approx(want, abs=1e-15)

    def test_deterministic(self):
        rng = random.Random(67)
        for _ in range(50):
            systems = random_systems(rng)
            config = config_for("f", strategy="greedy")
            assert combine_sentence(systems, config) == combine_sentence(systems, config)


    @pytest.mark.parametrize("strategy", ["mbr", "mbr-vote", "greedy"])
    @pytest.mark.parametrize("odd", [0, 2])
    def test_source_length_mismatch_rejected(self, strategy, odd):
        systems = fixture_systems()
        systems[odd] = Candidate(EditSet(5, (B,)), "long")
        with pytest.raises(ValidationError):
            combine_sentence(systems, config_for("f", strategy=strategy))


class TestCombineCorpus:
    def corpus(self):
        src = tokenize("a b c")
        return tuple(CorpusEntry(src, tuple(fixture_systems())) for _ in range(3))

    def test_results_in_input_order(self):
        results = combine_corpus(self.corpus(), config_for("f"))
        assert len(results) == 3
        assert all(r.chosen.label == "h1" for r in results)

    def test_entries_may_be_a_one_shot_iterator(self):
        want = combine_corpus(self.corpus(), config_for("f"))
        assert combine_corpus(iter(self.corpus()), config_for("f")) == want
        assert combine_corpus(list(self.corpus()), config_for("f")) == want

    def test_empty_corpus(self):
        assert combine_corpus((), config_for("f")) == []

    def test_consensus_sentence(self):
        src = tokenize("a b c")
        systems = tuple(Candidate(es(B), f"s{i}") for i in range(3))
        corpus = (CorpusEntry(src, systems),)
        results = combine_corpus(corpus, config_for("f"))
        assert results[0].chosen.edit_set == es(B)

    def test_ragged_system_counts_rejected(self):
        src = tokenize("a b c")
        corpus = (
            CorpusEntry(src, tuple(fixture_systems())),
            CorpusEntry(src, tuple(fixture_systems()[:2])),
        )
        with pytest.raises(ValidationError):
            combine_corpus(corpus, config_for("f"))

    def test_threads_do_not_change_results(self):
        corpus = self.corpus()
        single = combine_corpus(corpus, config_for("f", strategy="greedy"), threads=1)
        pooled = combine_corpus(corpus, config_for("f", strategy="greedy"), threads=4)
        assert single == pooled


class TestRewardDirection:
    def test_pareto_chain_reward_choice(self):
        # nested candidates: high-precision subset of the reference, a balanced
        # middle, and a high-recall superset with spurious edits
        r1, r2, r3 = Edit(0, 1, ("r1",)), Edit(2, 3, ("r2",)), Edit(4, 5, ("r3",))
        s1, s2 = Edit(6, 7, ("s1",)), Edit(8, 8, ("s2",))
        reference = EditSet(9, (r1, r2, r3))
        hp = Candidate(EditSet(9, (r1,)), "high-precision")
        bal = Candidate(EditSet(9, (r1, r2, s1)), "balanced")
        hr = Candidate(EditSet(9, (r1, r2, r3, s1, s2)), "high-recall")
        systems = [hp, bal, hr]
        picked = {
            kind: mbr_select(systems, systems, config_for(kind)).chosen
            for kind in ("precision", "recall")
        }
        assert picked["precision"].label == "high-precision"
        assert picked["recall"].label == "high-recall"

        from edit_mbr.scorer import score_corpus

        scores = {
            kind: score_corpus([picked[kind].edit_set], [[reference]], beta=0.5)
            for kind in picked
        }
        assert scores["precision"].precision >= scores["recall"].precision
        assert scores["recall"].recall >= scores["precision"].recall


class TestCombineConfig:
    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            CombineConfig(strategy="beam")

    def test_rejects_unknown_reward_set(self):
        with pytest.raises(ValueError):
            CombineConfig(reward_set="everything")

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CombineConfig(greedy_pool_threshold=0)

    @pytest.mark.parametrize("threshold", [1.5, 2.0, True, "2"])
    def test_rejects_a_threshold_that_is_not_an_int(self, threshold):
        with pytest.raises(ValueError) as info:
            CombineConfig(strategy="greedy", greedy_pool_threshold=threshold)
        assert str(info.value) == f"greedy_pool_threshold must be an int, got {threshold!r}"

    @pytest.mark.parametrize("reward", ["f", None, 0.5])
    def test_rejects_a_reward_that_is_not_a_reward_config(self, reward):
        with pytest.raises(ValidationError) as info:
            CombineConfig(reward=reward)
        assert str(info.value) == f"reward must be a RewardConfig, got {reward!r}"

    def test_reward_is_checked_after_the_other_fields(self):
        with pytest.raises(ValueError, match="^greedy_pool_threshold must be >= 1$"):
            CombineConfig(reward="f", greedy_pool_threshold=0)
