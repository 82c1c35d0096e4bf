"""Edit-level P/R/F scoring: fixtures, annotator choice, micro-averaging."""

import random

import pytest

from conftest import random_edit_set
from edit_mbr.edit_core import Edit, EditSet, ValidationError
from edit_mbr.scorer import score_corpus, score_sentence

B = Edit(1, 2, ("B",))
D = Edit(3, 3, ("d",))
X = Edit(1, 2, ("X",))


def es(*edits, source_len=4):
    return EditSet(source_len, tuple(edits))


class TestScoreSentence:
    def test_partial_recall(self):
        report = score_sentence(es(B), [es(B, D)], beta=0.5)
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.f == pytest.approx(5 / 6, abs=1e-12)
        assert report.f == pytest.approx(0.8333, abs=1e-4)

    def test_both_empty(self):
        report = score_sentence(es(), [es()], beta=0.5)
        assert (report.tp, report.fp, report.fn) == (0, 0, 0)
        assert report.precision == report.recall == report.f == 1.0

    def test_disjoint(self):
        report = score_sentence(es(X), [es(B)], beta=0.5)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)
        assert report.precision == report.recall == report.f == 0.0

    def test_best_annotator_wins(self):
        report = score_sentence(es(B), [es(X), es(B, D)], beta=0.5)
        assert (report.tp, report.fp, report.fn) == (1, 0, 1)

    def test_f_tie_broken_by_tp(self):
        # both annotators give F1 = 2/3; the second has more true positives
        hyp = es(B, D)
        low_tp = es(B)  # tp 1, fp 1, fn 0
        high_tp = es(B, D, Edit(0, 1, ("q",)), Edit(2, 3, ("z",)))  # tp 2, fn 2
        first = score_sentence(hyp, [low_tp, high_tp], beta=1.0)
        assert first.tp == 2
        second = score_sentence(hyp, [high_tp, low_tp], beta=1.0)
        assert second.tp == 2

    def test_full_tie_prefers_earlier_annotator(self):
        report = score_sentence(es(B), [es(B), es(B)], beta=0.5)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError):
            score_sentence(es(B), [], beta=0.5)

    def test_reference_for_another_source_length_rejected(self):
        with pytest.raises(ValidationError, match="disagree on source length: 3 vs 9"):
            score_sentence(EditSet(3, (B,)), [EditSet(9, (B,))])
        with pytest.raises(ValidationError, match="disagree on source length: 4 vs 5"):
            score_sentence(es(B), [es(B), es(B, source_len=5)])


class TestScoreCorpus:
    def test_micro_average_example(self):
        spurious = Edit(3, 4, ("x",))
        hyps = [es(B), es(B, spurious, source_len=5)]
        refs = [[es(B, D)], [es(B, source_len=5)]]
        report = score_corpus(hyps, refs, beta=0.5)
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert report.precision == pytest.approx(2 / 3, abs=1e-12)
        assert report.recall == pytest.approx(2 / 3, abs=1e-12)
        assert report.f == pytest.approx(2 / 3, abs=1e-12)
        assert len(report.per_sentence) == 2

    def test_perfect_corpus(self):
        hyps = [es(B), es(D)]
        refs = [[es(B)], [es(D)]]
        report = score_corpus(hyps, refs, beta=0.5)
        assert report.precision == report.recall == report.f == 1.0
        assert report.fp == report.fn == 0

    def test_empty_corpus_edits(self):
        report = score_corpus([es(), es()], [[es()], [es()]], beta=0.5)
        assert (report.tp, report.fp, report.fn) == (0, 0, 0)
        assert report.precision == report.recall == report.f == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            score_corpus([es(B)], [[es(B)], [es(B)]], beta=0.5)

    def test_self_scoring_is_perfect(self):
        rng = random.Random(71)
        for _ in range(50):
            hyps = [random_edit_set(rng, 8) for _ in range(10)]
            report = score_corpus(hyps, [[h] for h in hyps], beta=0.5)
            assert report.f == 1.0
            assert report.fp == 0 and report.fn == 0

    def test_sentence_permutation_keeps_totals(self):
        rng = random.Random(73)
        hyps = [random_edit_set(rng, 8) for _ in range(20)]
        refs = [[random_edit_set(rng, 8)] for _ in range(20)]
        report = score_corpus(hyps, refs, beta=0.5)
        order = list(range(20))
        rng.shuffle(order)
        shuffled = score_corpus([hyps[i] for i in order], [refs[i] for i in order], beta=0.5)
        assert (shuffled.tp, shuffled.fp, shuffled.fn) == (report.tp, report.fp, report.fn)
        assert shuffled.f == report.f

    def test_f_between_precision_and_recall(self):
        rng = random.Random(79)
        for _ in range(200):
            hyp = random_edit_set(rng, 8)
            ref = random_edit_set(rng, 8)
            report = score_sentence(hyp, [ref], beta=0.5)
            low = min(report.precision, report.recall)
            high = max(report.precision, report.recall)
            assert low - 1e-12 <= report.f <= high + 1e-12

    def test_edit_order_within_sets_irrelevant(self):
        a = EditSet(5, (B, D))
        b = EditSet(5, (D, B))
        assert score_sentence(a, [b], beta=0.5).f == 1.0
