"""Reward functions: formula values, conventions, and algebraic properties."""

import math
import random
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import (
    bf_conflicts,
    bf_expected,
    bf_reward,
    bf_vote_set,
    random_edit_set,
    random_sentence,
    random_systems,
)
from edit_mbr import rewards
from edit_mbr.combiner import CombineConfig, combine_corpus
from edit_mbr.edit_core import CorpusEntry, Edit, EditIndex, EditSet, ValidationError
from edit_mbr.rewards import (
    BETA_MAX,
    BETA_MIN,
    REWARD_KINDS,
    RewardConfig,
    RewardSet,
    _score,
    expected_reward,
    reward,
)
from edit_mbr.scorer import _from_counts, score_corpus, score_sentence

B = Edit(1, 2, ("B",))
D = Edit(3, 3, ("d",))


def es(*edits):
    return EditSet(3, tuple(edits))


def r(kind, ref, hyp, beta=0.5):
    return reward(ref, hyp, RewardConfig(kind=kind, beta=beta))


class TestRewardValues:
    def test_recall(self):
        assert r("recall", es(B, D), es(B)) == pytest.approx(0.5, abs=1e-12)

    def test_precision(self):
        assert r("precision", es(B, D), es(B)) == pytest.approx(1.0, abs=1e-12)

    def test_f_identical_sets(self):
        assert r("f", es(B, D), es(B, D)) == pytest.approx(1.0, abs=1e-12)

    def test_f_direct_formula(self):
        # ref {B}, hyp {B, d}: 1.25 * 1 / (0.25 * 1 + 2)
        assert r("f", es(B), es(B, D)) == pytest.approx(1.25 / 2.25, abs=1e-12)

    def test_f_paper_differs_for_half_beta(self):
        # linear-beta denominator: 1.25 * 1 / (0.5 * 1 + 2)
        assert r("f-paper", es(B), es(B, D)) == pytest.approx(1.25 / 2.5, abs=1e-12)
        assert r("f-paper", es(B), es(B, D)) != r("f", es(B), es(B, D))

    def test_f_paper_equals_f_at_beta_one(self):
        assert r("f-paper", es(B), es(B, D), beta=1.0) == r("f", es(B), es(B, D), beta=1.0)

    def test_jaccard_disjoint(self):
        assert r("jaccard", es(B), es(D)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("kind", REWARD_KINDS)
    def test_both_empty_convention(self, kind):
        assert r(kind, es(), es()) == 1.0

    def test_empty_denominator_conventions(self):
        assert r("recall", es(), es(B)) == 1.0
        assert r("precision", es(B), es()) == 1.0

    def test_f_with_one_empty_side_is_zero(self):
        assert r("f", es(), es(B)) == 0.0
        assert r("f", es(B), es()) == 0.0

    def test_source_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            reward(EditSet(3, (B,)), EditSet(5, (B,)), RewardConfig())


class TestRewardConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            RewardConfig(kind="bleu")

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            RewardConfig(beta=0.0)

    @pytest.mark.parametrize("beta", [True, False, "0.5", Decimal("0.5"), Fraction(1, 2), None])
    @pytest.mark.parametrize(
        "check",
        [
            lambda beta: RewardConfig(beta=beta),
            lambda beta: score_sentence(es(B), [es(B)], beta=beta),
            lambda beta: score_corpus([], [], beta=beta),
        ],
        ids=["RewardConfig", "score_sentence", "score_corpus"],
    )
    def test_rejects_a_beta_that_is_not_an_int_or_a_float(self, check, beta):
        with pytest.raises(ValueError) as info:
            check(beta)
        assert type(info.value) is ValueError
        assert str(info.value) == f"beta must be an int or a float, got {beta!r}"

    def test_accepts_an_int_and_a_float_subclass(self):
        class Float(float):
            pass

        assert RewardConfig(beta=2).beta == 2
        assert RewardConfig(beta=Float(0.5)).beta == 0.5
        assert score_sentence(es(B), [es(B)], beta=Float(0.5)).f == 1.0

    @pytest.mark.parametrize("beta", [1e154, 1e200, 1e-200, 5e-324])
    def test_rejects_beta_whose_square_overflows_or_underflows(self, beta):
        with pytest.raises(ValueError, match="beta"):
            RewardConfig(beta=beta)

    @pytest.mark.parametrize("beta", [BETA_MIN, BETA_MAX])
    def test_accepts_the_range_ends(self, beta):
        assert RewardConfig(beta=beta).beta == beta

    @given(
        beta=st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        kind=st.sampled_from(REWARD_KINDS),
        n_ref=st.integers(0, 10**6),
        n_hyp=st.integers(0, 10**6),
        data=st.data(),
    )
    def test_every_accepted_beta_scores_finite(self, beta, kind, n_ref, n_hyp, data):
        try:
            config = RewardConfig(kind=kind, beta=beta)
        except ValueError:
            assume(False)
        overlap = data.draw(st.integers(0, min(n_ref, n_hyp)))
        assert math.isfinite(_score(overlap, n_ref, n_hyp, config))
        report = _from_counts(overlap, n_hyp - overlap, n_ref - overlap, beta)
        assert all(map(math.isfinite, (report.precision, report.recall, report.f)))


class TestExpectedReward:
    def reward_sets(self):
        return [es(B), es(B, D), es()]

    def test_recall_example(self):
        got = expected_reward(es(B, D), self.reward_sets(), RewardConfig(kind="recall"))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_precision_example(self):
        got = expected_reward(es(B, D), self.reward_sets(), RewardConfig(kind="precision"))
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_f_example(self):
        got = expected_reward(es(B), self.reward_sets(), RewardConfig(kind="f", beta=0.5))
        assert got == pytest.approx(11 / 18, abs=1e-12)
        assert got == pytest.approx(0.6111, abs=1e-4)

    def test_empty_reward_set_rejected(self):
        with pytest.raises(ValueError):
            expected_reward(es(B), [], RewardConfig())

    def test_permutation_invariant_exactly(self):
        rng = random.Random(23)
        config = RewardConfig(kind="f", beta=0.5)
        for _ in range(50):
            refs = [random_edit_set(rng, 6) for _ in range(5)]
            hyp = random_edit_set(rng, 6)
            baseline = expected_reward(hyp, refs, config)
            shuffled = refs[:]
            rng.shuffle(shuffled)
            assert expected_reward(hyp, shuffled, config) == baseline

    def test_duplicated_member_doubles_weight(self):
        config = RewardConfig(kind="precision")
        a, b = es(B), es(B, D)
        hyp = es(B)
        duplicated = expected_reward(hyp, [a, a, b], config)
        ra = reward(a, hyp, config)
        rb = reward(b, hyp, config)
        assert duplicated == pytest.approx((2 * ra + rb) / 3, abs=1e-12)


class TestProperties:
    def pairs(self, n=300, seed=29):
        rng = random.Random(seed)
        for _ in range(n):
            source_len = rng.randint(0, 12)
            yield random_edit_set(rng, source_len), random_edit_set(rng, source_len)

    def test_matches_brute_force(self):
        for ref, hyp in self.pairs():
            for kind in REWARD_KINDS:
                for beta in (0.5, 1.0, 2.0):
                    got = r(kind, ref, hyp, beta=beta)
                    assert got == pytest.approx(bf_reward(kind, ref.edits, hyp.edits, beta), abs=1e-12)
                    bound = 1.0 if kind != "f-paper" else (1 + beta * beta) / (1 + beta)
                    assert 0.0 <= got <= max(1.0, bound) + 1e-12

    def test_self_reward_is_one(self):
        for ref, _ in self.pairs(100, seed=31):
            for kind in ("recall", "precision", "f", "jaccard"):
                assert r(kind, ref, ref) == 1.0

    def test_f_paper_self_reward_hits_its_cap(self):
        # the linear-beta denominator is not normalized: a perfect match on a
        # non-empty set scores (1 + beta^2) / (1 + beta), not 1
        full = es(B, D)
        for beta in (0.5, 2.0):
            got = r("f-paper", full, full, beta=beta)
            assert got == pytest.approx((1 + beta * beta) / (1 + beta), abs=1e-12)

    def test_precision_recall_duality_exact(self):
        for ref, hyp in self.pairs():
            assert r("precision", ref, hyp) == r("recall", hyp, ref)

    def test_beta_one_symmetry_exact(self):
        for ref, hyp in self.pairs():
            assert r("f", ref, hyp, beta=1.0) == r("f", hyp, ref, beta=1.0)

    def test_dice_from_jaccard(self):
        for ref, hyp in self.pairs():
            jac = r("jaccard", ref, hyp)
            dice = r("f", ref, hyp, beta=1.0)
            assert dice == pytest.approx(2 * jac / (1 + jac), abs=1e-12)

    def test_jaccard_below_precision_and_recall(self):
        for ref, hyp in self.pairs():
            if len(ref) == 0 or len(hyp) == 0:
                continue
            jac = r("jaccard", ref, hyp)
            assert jac <= r("precision", ref, hyp) + 1e-12
            assert jac <= r("recall", ref, hyp) + 1e-12

    def test_f_sweeps_from_precision_to_recall(self):
        # ref of 3 edits, hyp of 2, overlap 1: P = 0.5, R = 1/3
        ref = es(B, D, Edit(0, 1, ("q",)))
        hyp = es(B, Edit(2, 3, ("z",)))
        precision = r("precision", ref, hyp)
        recall = r("recall", ref, hyp)
        betas = [0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0]
        values = [r("f", ref, hyp, beta=beta) for beta in betas]
        assert values[0] == pytest.approx(precision, abs=1e-3)
        assert values[-1] == pytest.approx(recall, abs=1e-3)
        diffs = [b - a for a, b in zip(values, values[1:])]
        assert all(d <= 1e-12 for d in diffs) or all(d >= -1e-12 for d in diffs)

    def test_expected_matches_brute_force(self):
        rng = random.Random(37)
        for _ in range(100):
            source_len = rng.randint(0, 10)
            refs = [random_edit_set(rng, source_len) for _ in range(rng.randint(1, 4))]
            hyp = random_edit_set(rng, source_len)
            for kind in REWARD_KINDS:
                got = expected_reward(hyp, refs, RewardConfig(kind=kind, beta=0.5))
                want = bf_expected(kind, [ref.edits for ref in refs], hyp.edits, 0.5)
                assert got == pytest.approx(want, abs=1e-12)


class TestRewardSet:
    def instances(self, n=300, seed=41):
        rng = random.Random(seed)
        for _ in range(n):
            source_len = rng.randint(0, 10)
            refs = [random_edit_set(rng, source_len) for _ in range(rng.randint(1, 6))]
            # a hypothesis drawn from a member, or built anew, or empty
            hyp = rng.choice([rng.choice(refs), random_edit_set(rng, source_len), EditSet(source_len)])
            yield refs, hyp

    def test_table_and_list_agree_with_brute_force_exactly(self):
        for refs, hyp in self.instances():
            table = RewardSet(EditIndex(refs))
            for kind in REWARD_KINDS:
                for beta in (0.3, 0.5, 1.0, 2.0):
                    config = RewardConfig(kind=kind, beta=beta)
                    from_list = expected_reward(hyp, refs, config)
                    assert expected_reward(hyp, table, config) == from_list
                    assert from_list == bf_expected(kind, [ref.edits for ref in refs], hyp.edits, beta)

    def test_reward_is_the_one_member_case(self):
        for refs, hyp in self.instances(200, seed=43):
            for kind in REWARD_KINDS:
                config = RewardConfig(kind=kind)
                assert reward(refs[0], hyp, config) == expected_reward(hyp, [refs[0]], config)

    def test_member_and_an_equal_copy_score_alike(self):
        # Every edit set, member or not, is masked edit by edit through the
        # table's bits, so an equal but distinct copy gets the member's bits.
        for refs, _ in self.instances(200, seed=47):
            table = RewardSet(EditIndex(refs))
            for member in refs:
                copy = EditSet(member.source_len, member.edits)
                assert copy is not member
                assert table.mask(copy) == table.mask(member)
                for kind in REWARD_KINDS:
                    config = RewardConfig(kind=kind, beta=2.0)
                    assert expected_reward(copy, table, config) == expected_reward(
                        member, table, config
                    )

    def test_index_plus_vote_masks_scores_as_the_listed_members(self):
        # Systems and their vote sets as extra members: built from the index
        # and the vote masks, from the edit sets, and scored by brute force.
        for refs, hyp in self.instances(200, seed=61):
            index = EditIndex(refs)
            resolved = index.resolve()
            votes = [edit_set for edit_set, _ in resolved]
            assert votes == [bf_vote_set(refs, m) for m in range(1, len(refs) + 1)]
            table = RewardSet(index, [mask for _, mask in resolved])
            listed = RewardSet(EditIndex(refs + votes))
            members = [ref.edits for ref in refs + votes]
            for candidate in [hyp, *votes]:
                for kind in REWARD_KINDS:
                    config = RewardConfig(kind=kind, beta=2.0)
                    got = expected_reward(candidate, table, config)
                    assert got == expected_reward(candidate, listed, config)
                    assert got == bf_expected(kind, members, candidate.edits, 2.0)

    def test_edit_outside_every_member_counts_only_in_size(self):
        table = RewardSet(EditIndex([es(B)]))
        assert table.bit(D) == 0
        assert table.mask(es(B, D)) == table.bit(B) == table.mask(es(B))
        assert expected_reward(es(B, D), table, RewardConfig(kind="precision")) == 0.5

    def test_empty_reward_set_rejected(self):
        # A list of edit sets is indexed first, so the index refuses an empty one.
        with pytest.raises(ValueError, match="need at least one edit set"):
            RewardSet(EditIndex([]))
        with pytest.raises(ValueError, match="need at least one edit set"):
            expected_reward(es(B), [], RewardConfig())

    def test_source_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            RewardSet(EditIndex([es(B), EditSet(5, (B,))]))
        with pytest.raises(ValidationError):
            RewardSet(EditIndex([es(B)])).mask(EditSet(5, (B,)))
        with pytest.raises(ValidationError):
            expected_reward(EditSet(5, (B,)), [es(B), es()], RewardConfig())
        with pytest.raises(ValidationError):
            expected_reward(es(B), [es(B), EditSet(5, (B,))], RewardConfig())


class TestRewardRows:
    CONFIGS = [
        RewardConfig(kind=kind, beta=beta)
        for kind in REWARD_KINDS
        # An int beta shares its row table with the equal float (one cache
        # key); listing 1 before 1.0 and 2.0 before 2 builds it from each.
        for beta in (0.3, 0.5, 1, 1.0, 2.0, 2)
    ]

    def test_interleaved_configs_on_one_table_match_brute_force_exactly(self):
        # One table scored under every config in turn, twice over, so a row
        # cached for one (size, kind, beta) is looked up again under the others.
        rewards._RowTable.cache_clear()
        rng = random.Random(53)
        for _ in range(100):
            source_len = rng.randint(0, 10)
            refs = [random_edit_set(rng, source_len) for _ in range(rng.randint(1, 6))]
            hyps = [random_edit_set(rng, source_len) for _ in range(3)] + refs[:2]
            table = RewardSet(EditIndex(refs))
            ref_edits = [ref.edits for ref in refs]
            for config in self.CONFIGS * 2:
                for hyp in hyps:
                    got = expected_reward(hyp, table, config)
                    assert got == bf_expected(config.kind, ref_edits, hyp.edits, config.beta)

    def test_insertions_score_as_the_grown_sets(self):
        rng = random.Random(59)
        for _ in range(200):
            source_len = rng.randint(1, 10)
            refs = [random_edit_set(rng, source_len) for _ in range(rng.randint(1, 6))]
            hyp = random_edit_set(rng, source_len)
            table = RewardSet(EditIndex(refs))
            extra = dict.fromkeys(
                edit
                for ref in refs
                for edit in ref
                if edit not in hyp and not any(bf_conflicts(edit, e) for e in hyp)
            )
            holders = [table.overlaps(table.bit(edit)) for edit in extra]
            overlaps = table.overlaps(table.mask(hyp))
            for config in self.CONFIGS:
                got = table.expected_insertions(overlaps, len(hyp) + 1, holders, config)
                want = [
                    expected_reward(EditSet(source_len, hyp.edits + (edit,)), refs, config)
                    for edit in extra
                ]
                assert got == want


class TestSharedRowTables:
    def test_threads_combining_at_once_match_the_serial_results(self):
        # Every RewardSet of the process reads the same row tables.  In each
        # round four threads start together on emptied tables, combine one
        # corpus and switch as often as the interpreter allows, so the same
        # rows are built and read by several threads at once.
        rng = random.Random(61)
        corpus = []
        for _ in range(12):
            source = random_sentence(rng, 1, 12, vocab=9)
            corpus.append(CorpusEntry(source, tuple(random_systems(rng, len(source), 4))))
        configs = [
            CombineConfig(
                strategy="greedy", reward=RewardConfig(kind=kind), reward_set="base+votes"
            )
            for kind in REWARD_KINDS
        ]
        rewards._RowTable.cache_clear()
        want = [combine_corpus(corpus, config) for config in configs]
        barrier = threading.Barrier(4, action=rewards._RowTable.cache_clear, timeout=60)
        got = []

        def combine():
            for _ in range(20):
                barrier.wait()
                got.append([combine_corpus(corpus, config) for config in configs])

        threads = [threading.Thread(target=combine) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 80
