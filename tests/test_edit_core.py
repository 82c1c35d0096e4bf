"""Sentences, edits, edit sets, extraction, application, and set algebra."""

import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bf_conflicts,
    bf_edits,
    bf_first_conflict,
    bf_intersect,
    bf_levenshtein,
    bf_vote_set,
    random_edit,
    random_edit_set,
    random_sentence,
)
from edit_mbr.edit_core import (
    Edit,
    EditSet,
    Sentence,
    ValidationError,
    apply_edits,
    conflicts,
    extract_edits,
    intersect,
    tokenize,
    vote_set,
    vote_sets,
)

B = Edit(1, 2, ("B",))
D = Edit(3, 3, ("d",))
X = Edit(1, 2, ("X",))


def es(*edits, source_len=3):
    return EditSet(source_len, tuple(edits))


token_lists = st.lists(st.sampled_from([f"t{i}" for i in range(6)]), max_size=12)


@st.composite
def repetitive_pairs(draw):
    """Two token lists over one 1-3 token vocabulary, up to 130 tokens each,
    so ties are common and the bit vectors cross a 64-bit word."""
    vocab = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    tokens = st.lists(st.sampled_from(vocab), max_size=130)
    return Sentence(tuple(draw(tokens))), Sentence(tuple(draw(tokens)))


def random_pair(rng):
    """A random source and a hypothesis that is either unrelated or a few
    random edits away from it; every 50th pair is up to 130 tokens long."""
    vocab = rng.randint(1, 20)
    longest = 130 if rng.randrange(50) == 0 else 20
    source = random_sentence(rng, 0, longest, vocab)
    if rng.random() < 0.5:
        return source, random_sentence(rng, 0, longest, vocab)
    tokens = list(source.tokens)
    for _ in range(rng.randint(0, 4)):
        at = rng.randint(0, len(tokens))
        kind = rng.randrange(3)
        if kind == 0 or not tokens:
            tokens.insert(at, f"t{rng.randrange(vocab)}")
        elif kind == 1:
            del tokens[min(at, len(tokens) - 1)]
        else:
            tokens[min(at, len(tokens) - 1)] = f"t{rng.randrange(vocab)}"
    return source, Sentence(tuple(tokens))


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


class TestTokenCheck:
    def test_split_and_isspace_agree_on_every_code_point(self):
        # The premise of _check_tokens: str.split() splits on exactly the
        # characters str.isspace() accepts.
        disagree = [
            code
            for code in range(0x110000)
            if (len(("x" + chr(code) + "y").split()) == 2) != chr(code).isspace()
        ]
        assert disagree == []

    @pytest.mark.parametrize(
        "tokens, message",
        [
            (("",), "tokens must be non-empty"),
            (("a", "b c"), "token contains whitespace: 'b c'"),
            (("a", "\u2028"), "token contains whitespace: '\\u2028'"),
            (("a", "", "b c"), "tokens must be non-empty"),
            (("a", "b\tc", ""), "token contains whitespace: 'b\\tc'"),
            ((None,), "tokens must be non-empty"),
            (("a b", 5), "token contains whitespace: 'a b'"),
        ],
    )
    def test_sentence_and_edit_name_the_first_bad_token(self, tokens, message):
        for build in (Sentence, lambda t: Edit(0, 1, t)):
            with pytest.raises(ValidationError) as info:
                build(tokens)
            assert str(info.value) == message

    @pytest.mark.parametrize(
        "tokens, error, message",
        [
            ((5,), TypeError, "'int' object is not iterable"),
            (("a", 1.5), TypeError, "'float' object is not iterable"),
            ((b"ab",), AttributeError, "'int' object has no attribute 'isspace'"),
        ],
    )
    def test_non_str_token_raises_as_before(self, tokens, error, message):
        for build in (Sentence, lambda t: Edit(0, 1, t)):
            with pytest.raises(error) as info:
                build(tokens)
            assert str(info.value) == message


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


class TestEditValue:
    def test_is_a_slotted_tuple(self):
        edit = Edit(1, 2, ["a"])
        assert isinstance(edit, tuple) and Edit.__slots__ == ()
        assert not hasattr(edit, "__dict__")
        assert edit == (1, 2, ("a",)) and len(edit) == 3
        assert hash(edit) == hash((1, 2, ("a",)))
        with pytest.raises(AttributeError):
            edit.start = 0

    def test_repr(self):
        assert repr(Edit(1, 2, ("a",))) == "Edit(start=1, end=2, replacement=('a',))"
        assert repr(Edit(0, 3)) == "Edit(start=0, end=3, replacement=())"

    def test_keyword_construction(self):
        edit = Edit(start=1, end=2, replacement=iter(["a", "b"]))
        assert (edit.start, edit.end, edit.replacement) == (1, 2, ("a", "b"))
        assert edit == Edit(1, 2, ("a", "b"))
        assert Edit(end=3, start=0).replacement == ()

    @pytest.mark.parametrize(
        "clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy]
    )
    def test_pickle_and_copy_round_trip(self, clone):
        for edit in (Edit(1, 2, ("a",)), Edit(0, 0, ("x", "y")), Edit(2, 4)):
            twin = clone(edit)
            assert twin == edit and type(twin) is Edit
            assert repr(twin) == repr(edit)

    def test_order_is_start_end_replacement(self):
        rng = random.Random(11)
        edits = [random_edit(rng, 6, vocab=3) for _ in range(400)]
        assert sorted(edits) == sorted(edits, key=lambda e: (e.start, e.end, e.replacement))

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((-1, 0, 5), TypeError, "'int' object is not iterable"),
            ((-1, 0, ("a b",)), ValidationError, "bad edit span [-1, 0)"),
            ((2, 1, ()), ValidationError, "bad edit span [2, 1)"),
            ((1, 1, ()), ValidationError, "zero-width edit with empty replacement is a no-op"),
            ((1, 1, ("a", "")), ValidationError, "tokens must be non-empty"),
        ],
    )
    def test_first_failing_check_decides_the_error(self, args, error, message):
        with pytest.raises(error) as info:
            Edit(*args)
        assert type(info.value) is error and str(info.value) == message


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

    def test_masks_agree_with_pairwise_rule_on_every_small_edit(self):
        replacements = [(), ("a",), ("b",), ("a", "b")]
        edits = [
            Edit(start, end, replacement)
            for start in range(7)
            for end in range(start, 7)
            for replacement in replacements
            if start < end or replacement
        ]
        assert len(edits) == 105
        for first, second in itertools.product(edits, repeat=2):
            assert conflicts(first, second) == bf_conflicts(first, second), (first, second)


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

    def test_range_error_wins_over_an_earlier_conflict(self):
        edits = (Edit(0, 2, ("a",)), Edit(1, 2, ("b",)), Edit(3, 3, ("c",)))
        with pytest.raises(ValidationError) as info:
            EditSet(2, edits)
        assert str(info.value) == (
            "edit Edit(start=3, end=3, replacement=('c',)) exceeds source length 2"
        )

    def test_accepts_and_names_pairs_as_the_pairwise_scan(self):
        rng = random.Random(23)
        outcomes = {True: 0, False: 0}
        for _ in range(12_000):
            source_len = rng.randint(0, 8)
            edits = [random_edit(rng, source_len, vocab=3) for _ in range(rng.randint(0, 6))]
            pair = bf_first_conflict(edits)
            outcomes[pair is None] += 1
            if pair is None:
                assert EditSet(source_len, tuple(edits)).edits == tuple(
                    sorted(set(edits), key=lambda e: (e.start, e.end, e.replacement))
                )
                continue
            with pytest.raises(ValidationError) as info:
                EditSet(source_len, tuple(edits))
            assert str(info.value) == f"conflicting edits: {pair[0]!r} vs {pair[1]!r}"
        assert min(outcomes.values()) > 3_000

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


class TestAlignmentKernel:
    """The bit-parallel extraction against the full-table oracle, edit by edit."""

    def test_insertion_before_a_repeated_token_goes_first(self):
        # a -> a a: the canonical alignment inserts at 0, which stripping the
        # common prefix would get wrong (it would insert at 1).
        assert extract_edits(tokenize("a"), tokenize("a a")).edits == (Edit(0, 0, ("a",)),)

    def test_identical_pair_is_all_matches(self):
        tokens = tuple(f"t{i % 3}" for i in range(100))
        assert extract_edits(Sentence(tokens), Sentence(tokens)).edits == ()

    def test_empty_sides(self):
        assert extract_edits(Sentence(), Sentence()).edits == ()
        assert extract_edits(tokenize("a b"), Sentence()).edits == (Edit(0, 2, ()),)
        assert extract_edits(Sentence(), tokenize("a b")).edits == (Edit(0, 0, ("a", "b")),)

    @pytest.mark.parametrize(
        "source, hypothesis, edits",
        [
            # an open run reaches column 0 and takes its deletion
            ("a b", "x", (Edit(0, 2, ("x",)),)),
            # an open run reaches row 0 and takes its insertion
            ("a", "x y", (Edit(0, 1, ("x", "y")),)),
            # no run is open when the backtrace reaches column 0
            ("x a", "a", (Edit(0, 1, ()),)),
            # a match closes a run, and a later run reaches column 0
            ("x a b c", "a y c", (Edit(0, 1, ()), Edit(2, 3, ("y",)))),
        ],
    )
    def test_runs_reaching_the_first_row_or_column(self, source, hypothesis, edits):
        source, hypothesis = tokenize(source), tokenize(hypothesis)
        assert extract_edits(source, hypothesis).edits == edits
        assert bf_edits(source, hypothesis).edits == edits

    @given(repetitive_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_repetitive_tokens(self, pair):
        source, hypothesis = pair
        assert extract_edits(source, hypothesis) == bf_edits(source, hypothesis)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(2309)
        for _ in range(20_000):
            source, hypothesis = random_pair(rng)
            got = extract_edits(source, hypothesis)
            assert got == bf_edits(source, hypothesis), (source, hypothesis)


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

    def test_intersect_and_union(self):
        assert intersect(self.sets()) == es()
        assert vote_set(self.sets(), 1) == es(B, D)

    def test_identical_sets(self):
        sets = [es(B), es(B)]
        assert intersect(sets) == es(B)
        assert vote_set(sets, 1) == es(B)

    def test_union_resolves_conflicts_by_votes(self):
        sets = [es(B), es(X), es(B)]
        assert vote_set(sets, 1) == es(B)

    def test_union_resolves_vote_ties_by_priority(self):
        # Tie priority is system position: the earliest proposer wins.
        assert vote_set([es(B), es(X)], 1) == es(B)
        assert vote_set([es(X), es(B)], 1) == es(X)

    def test_vote_set_threshold(self):
        sets = self.sets()
        assert vote_set(sets, 1) == es(B, D)
        assert vote_set(sets, 2) == es(B)
        assert vote_set(sets, 3) == es()

    def test_threshold_adding_no_edit_reuses_the_set_above(self):
        # B has 3 votes, D 1: thresholds 2 and 3 hold B alone, 4 nothing.
        sets = [es(B, D), es(B), es(B), es()]
        by_threshold = vote_sets(sets)
        assert by_threshold == [es(B, D), es(B), es(B), es()]
        assert by_threshold[1] is by_threshold[2]
        assert len({id(edit_set) for edit_set in by_threshold}) == 3

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
            union = vote_set(sets, 1)
            assert inter == bf_intersect(sets)
            assert union == bf_vote_set(sets, 1)
            for edit in inter:
                assert all(edit in member for member in sets)
            for edit in union:
                assert sum(edit in s for s in sets) >= 1
