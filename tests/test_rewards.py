"""Reward functions: formula values, conventions, and algebraic properties."""

import random

import pytest

from conftest import bf_conflicts, bf_expected, bf_reward, random_edit_set
from edit_mbr.edit_core import Edit, EditSet, ValidationError
from edit_mbr.rewards import REWARD_KINDS, RewardConfig, RewardSet, expected_reward, reward

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
            table = RewardSet(refs)
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

    def test_edit_outside_every_member_counts_only_in_size(self):
        table = RewardSet([es(B)])
        assert table.bit(D) == 0
        assert table.mask(es(B, D)) == table.bit(B) == table.mask(es(B))
        assert expected_reward(es(B, D), table, RewardConfig(kind="precision")) == 0.5

    def test_empty_reward_set_rejected(self):
        with pytest.raises(ValueError, match="reward set must be non-empty"):
            RewardSet([])
        with pytest.raises(ValueError, match="reward set must be non-empty"):
            expected_reward(es(B), [], RewardConfig())

    def test_source_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            RewardSet([es(B), EditSet(5, (B,))])
        with pytest.raises(ValidationError):
            RewardSet([es(B)]).mask(EditSet(5, (B,)))
        with pytest.raises(ValidationError):
            expected_reward(EditSet(5, (B,)), [es(B), es()], RewardConfig())
        with pytest.raises(ValidationError):
            expected_reward(es(B), [es(B), EditSet(5, (B,))], RewardConfig())


class TestRewardRows:
    CONFIGS = [
        RewardConfig(kind=kind, beta=beta)
        for kind in REWARD_KINDS
        for beta in (0.3, 0.5, 1.0, 2.0)
    ]

    def test_interleaved_configs_on_one_table_match_brute_force_exactly(self):
        # One table scored under every config in turn, twice over, so a row
        # cached for one (size, kind, beta) is looked up again under the others.
        rng = random.Random(53)
        for _ in range(100):
            source_len = rng.randint(0, 10)
            refs = [random_edit_set(rng, source_len) for _ in range(rng.randint(1, 6))]
            hyps = [random_edit_set(rng, source_len) for _ in range(3)] + refs[:2]
            table = RewardSet(refs)
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
            table = RewardSet(refs)
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

