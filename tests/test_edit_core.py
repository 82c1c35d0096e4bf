"""Sentences, edits, edit sets, extraction, application, and set algebra."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bf_levenshtein, random_edit, random_edit_set, random_sentence
from edit_mbr.edit_core import (
    Edit,
    EditSet,
    Sentence,
    ValidationError,
    apply_edits,
    conflicts,
    count_votes,
    extract_edits,
    intersect,
    tokenize,
    union_resolved,
    vote_set,
)

B = Edit(1, 2, ("B",))
D = Edit(3, 3, ("d",))
X = Edit(1, 2, ("X",))


def es(*edits, source_len=3):
    return EditSet(source_len, tuple(edits))


token_lists = st.lists(st.sampled_from([f"t{i}" for i in range(6)]), max_size=12)


class TestSentence:
    def test_tokenize_splits_on_whitespace(self):
        assert tokenize("He go to school .").tokens == ("He", "go", "to", "school", ".")

    def test_tokenize_empty_line(self):
        assert tokenize("").tokens == ()

    def test_tokenize_collapses_runs(self):
        assert tokenize("a  b").tokens == ("a", "b")

    def test_tokenize_strips_mixed_whitespace(self):
        assert tokenize("\t a   b \n").tokens == ("a", "b")

    def test_rejects_token_with_space(self):
        with pytest.raises(ValidationError):
            Sentence(("a b",))

    def test_rejects_empty_token(self):
        with pytest.raises(ValidationError):
            Sentence(("",))

    @given(token_lists)
    def test_text_retokenizes_exactly(self, tokens):
        sentence = Sentence(tuple(tokens))
        assert tokenize(sentence.text()) == sentence


class TestEditValidation:
    def test_rejects_inverted_span(self):
        with pytest.raises(ValidationError):
            Edit(2, 1, ("x",))

    def test_rejects_negative_start(self):
        with pytest.raises(ValidationError):
            Edit(-1, 0, ("x",))

    def test_rejects_empty_insertion(self):
        with pytest.raises(ValidationError):
            Edit(1, 1, ())

    def test_rejects_whitespace_replacement_token(self):
        with pytest.raises(ValidationError):
            Edit(0, 1, ("a b",))


class TestEditEqual:
    def test_identical(self):
        assert Edit(1, 2, ("B",)) == Edit(1, 2, ("B",))

    def test_replacement_differs(self):
        assert B != X

    def test_span_differs(self):
        assert Edit(1, 1, ("B",)) != Edit(1, 2, ("B",))


class TestConflicts:
    def test_same_span_different_replacement(self):
        assert conflicts(B, X)

    def test_disjoint(self):
        assert not conflicts(B, D)

    def test_insertion_inside_span(self):
        assert conflicts(Edit(2, 2, ("q",)), Edit(1, 3, ("r",)))

    def test_insertion_at_span_boundary_ok(self):
        assert not conflicts(Edit(1, 1, ("q",)), Edit(1, 3, ("r",)))
        assert not conflicts(Edit(3, 3, ("q",)), Edit(1, 3, ("r",)))

    def test_same_position_insertions(self):
        assert conflicts(Edit(2, 2, ("a",)), Edit(2, 2, ("b",)))

    def test_adjacent_spans_ok(self):
        assert not conflicts(Edit(0, 1, ()), Edit(1, 2, ("y",)))

    def test_equal_implies_no_conflict(self):
        assert not conflicts(B, Edit(1, 2, ("B",)))

    def test_symmetric_random(self):
        rng = random.Random(7)
        for _ in range(300):
            a = random_edit(rng, 8)
            b = random_edit(rng, 8)
            assert conflicts(a, b) == conflicts(b, a)


class TestEditSet:
    def test_sorts_and_dedupes(self):
        built = EditSet(4, (D, B, Edit(1, 2, ("B",))))
        assert built.edits == (B, D)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="exceeds source length"):
            EditSet(2, (D,))

    def test_rejects_conflicts_naming_pair(self):
        with pytest.raises(ValidationError) as info:
            EditSet(3, (B, X))
        message = str(info.value)
        assert "B" in message and "X" in message

    def test_rejects_non_adjacent_conflict(self):
        # sorted neighbours are fine, the conflict is one apart
        inner = Edit(1, 1, ("q",))
        wide = Edit(0, 3, ("r",))
        zero = Edit(0, 0, ("p",))
        with pytest.raises(ValidationError):
            EditSet(3, (zero, wide, inner))


class TestExtract:
    def test_single_substitution(self):
        got = extract_edits(tokenize("a b c"), tokenize("a B c"))
        assert got.edits == (B,)

    def test_identity_is_empty(self):
        assert extract_edits(tokenize("a b c"), tokenize("a b c")).edits == ()

    def test_substitution_and_insertion_stay_separate_runs(self):
        got = extract_edits(tokenize("a b c"), tokenize("a B c d"))
        assert got.edits == (B, D)

    def test_deletion(self):
        got = extract_edits(tokenize("a b c"), tokenize("a c"))
        assert got.edits == (Edit(1, 2, ()),)

    def test_leading_insertion(self):
        got = extract_edits(tokenize("a"), tokenize("z a"))
        assert got.edits == (Edit(0, 0, ("z",)),)

    def test_duplicate_token_deletes_leftmost(self):
        # canonical tie policy: matches bind as late as possible in backtrace
        got = extract_edits(tokenize("a a"), tokenize("a"))
        assert got.edits == (Edit(0, 1, ()),)

    def test_adjacent_ops_merge(self):
        got = extract_edits(tokenize("a b c d"), tokenize("a X Y d"))
        assert got.edits == (Edit(1, 3, ("X", "Y")),)

    def test_empty_source(self):
        got = extract_edits(Sentence(), tokenize("x y"))
        assert got.edits == (Edit(0, 0, ("x", "y")),)

    def test_empty_hypothesis(self):
        got = extract_edits(tokenize("x y"), Sentence())
        assert got.edits == (Edit(0, 2, ()),)

    def test_canonical_same_inputs_same_output(self):
        a = extract_edits(tokenize("a b c x"), tokenize("q b z"))
        b = extract_edits(tokenize("a b c x"), tokenize("q b z"))
        assert a == b

    def test_no_merge_emits_one_edit_per_op(self):
        source = tokenize("a b c d")
        hypothesis = tokenize("a X Y d")
        got = extract_edits(source, hypothesis, merge_adjacent=False)
        assert got.edits == (Edit(1, 2, ("X",)), Edit(2, 3, ("Y",)))
        assert apply_edits(source, got) == hypothesis

    def test_no_merge_keeps_same_point_insertions_together(self):
        source = tokenize("a")
        hypothesis = tokenize("x y a")
        got = extract_edits(source, hypothesis, merge_adjacent=False)
        assert got.edits == (Edit(0, 0, ("x", "y")),)

    def test_no_merge_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(200):
            source = random_sentence(rng, 0, 12, vocab=5)
            hypothesis = random_sentence(rng, 0, 12, vocab=5)
            no_merge = extract_edits(source, hypothesis, merge_adjacent=False)
            merged = extract_edits(source, hypothesis)
            assert apply_edits(source, no_merge) == hypothesis
            assert len(no_merge) >= len(merged)

    @given(token_lists, token_lists)
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, src_tokens, hyp_tokens):
        source = Sentence(tuple(src_tokens))
        hypothesis = Sentence(tuple(hyp_tokens))
        assert apply_edits(source, extract_edits(source, hypothesis)) == hypothesis

    @given(token_lists, token_lists)
    @settings(max_examples=200, deadline=None)
    def test_edit_count_at_most_levenshtein(self, src_tokens, hyp_tokens):
        source = Sentence(tuple(src_tokens))
        hypothesis = Sentence(tuple(hyp_tokens))
        got = extract_edits(source, hypothesis)
        assert len(got) <= bf_levenshtein(src_tokens, hyp_tokens)

    def test_canonical_idempotence(self):
        rng = random.Random(13)
        for _ in range(200):
            source = random_sentence(rng, 0, 12, vocab=5)
            edit_set = random_edit_set(rng, len(source), vocab=5)
            output = apply_edits(source, edit_set)
            re_extracted = extract_edits(source, output)
            assert apply_edits(source, re_extracted) == output


class TestApply:
    def test_substitution(self):
        assert apply_edits(tokenize("a b c"), es(B)) == tokenize("a B c")

    def test_empty_set_is_identity(self):
        assert apply_edits(tokenize("a b c"), es()) == tokenize("a b c")

    def test_insertion_and_deletion(self):
        got = apply_edits(tokenize("a b c"), es(Edit(0, 0, ("z",)), Edit(2, 3, ())))
        assert got == tokenize("z a b")

    def test_rejects_source_length_mismatch(self):
        with pytest.raises(ValidationError, match="source has"):
            apply_edits(tokenize("a b"), es(B))


class TestVotesAndAlgebra:
    def sets(self):
        return [es(B), es(B, D), es()]

    def test_count_votes(self):
        assert count_votes(B, self.sets()) == 2
        assert count_votes(D, self.sets()) == 1
        assert count_votes(B, []) == 0

    def test_intersect_and_union(self):
        assert intersect(self.sets()) == es()
        assert union_resolved(self.sets()) == es(B, D)

    def test_identical_sets(self):
        sets = [es(B), es(B)]
        assert intersect(sets) == es(B)
        assert union_resolved(sets) == es(B)

    def test_union_resolves_conflicts_by_votes(self):
        sets = [es(B), es(X), es(B)]
        assert union_resolved(sets) == es(B)

    def test_union_resolves_vote_ties_by_priority(self):
        sets = [es(B), es(X)]
        assert union_resolved(sets) == es(B)
        assert union_resolved(sets, priority=[1, 0]) == es(X)

    def test_priority_must_be_permutation(self):
        with pytest.raises(ValueError):
            union_resolved([es(B), es(X)], priority=[0, 0])

    def test_vote_set_threshold(self):
        sets = self.sets()
        assert vote_set(sets, 1) == es(B, D)
        assert vote_set(sets, 2) == es(B)
        assert vote_set(sets, 3) == es()

    def test_source_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            intersect([es(B), EditSet(5, (B,))])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            intersect([])

    def test_random_vote_properties(self):
        rng = random.Random(17)
        for _ in range(200):
            sets = [random_edit_set(rng, 8) for _ in range(3)]
            inter = intersect(sets)
            union = union_resolved(sets)
            for edit in inter:
                assert all(edit in member for member in sets)
                assert count_votes(edit, sets) == len(sets)
            for member in sets:
                for edit in member:
                    assert count_votes(edit, sets) >= 1
            for edit in union:
                assert count_votes(edit, sets) >= 1
