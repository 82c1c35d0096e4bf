"""Sentences, edits, edit sets, extraction, application, and set algebra."""

import ast
import copy
import itertools
import pickle
import random
from pathlib import Path

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
    random_systems,
)
import edit_mbr
from edit_mbr import m2_io
from edit_mbr.edit_core import (
    Candidate,
    CorpusEntry,
    Edit,
    EditIndex,
    EditSet,
    Sentence,
    ValidationError,
    apply_edits,
    conflicts,
    extract_edits,
    intersect,
    tokenize,
    vote_set,
)

B = Edit(1, 2, ("B",))
D = Edit(3, 3, ("d",))
X = Edit(1, 2, ("X",))
SRC = Path(__file__).resolve().parent.parent / "src" / "edit_mbr"


def es(*edits, source_len=3):
    return EditSet(source_len, tuple(edits))


def one_of_each_record():
    """One value of each value type beyond ``Edit`` and ``Sentence``."""
    candidate = Candidate(es(B, D), "sys")
    step = edit_mbr.GreedyStep(D, 0.25, 0.5)
    annotations = (edit_mbr.Annotation(0, es()), edit_mbr.Annotation(2, es(B, D), ("R", "M")))
    return (
        es(B, D),
        candidate,
        CorpusEntry(tokenize("a b c"), (candidate, Candidate(es(), "other"))),
        annotations[1],
        edit_mbr.M2Entry(tokenize("a b c"), annotations),
        edit_mbr.RewardConfig("jaccard", 2),
        edit_mbr.CombineConfig("greedy", edit_mbr.RewardConfig("recall"), "base+votes", 3),
        step,
        edit_mbr.CombineResult(candidate, (candidate,), (0.5,), (step,)),
        edit_mbr.score_corpus([es(B)], [[es(B, D)]]),
    )


token_lists = st.lists(st.sampled_from([f"t{i}" for i in range(6)]), max_size=12)


@st.composite
def repetitive_pairs(draw):
    """Two token lists over one 1-3 token vocabulary, up to 130 tokens each,
    so ties are common and the bit vectors cross a 64-bit word."""
    vocab = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    tokens = st.lists(st.sampled_from(vocab), max_size=130)
    return Sentence(tuple(draw(tokens))), Sentence(tuple(draw(tokens)))


@st.composite
def shared_prefix_pairs(draw):
    """Two token lists over one 1-3 token vocabulary that share a drawn prefix
    of up to 8 tokens, so the backtrace often leaves the core above or below
    the diagonal."""
    vocab = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    tokens = st.lists(st.sampled_from(vocab), max_size=10)
    prefix = tuple(draw(st.lists(st.sampled_from(vocab), max_size=8)))
    return Sentence(prefix + tuple(draw(tokens))), Sentence(prefix + tuple(draw(tokens)))


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

    def test_rejects_a_str_of_tokens(self):
        with pytest.raises(ValidationError) as info:
            Sentence("abc")
        assert str(info.value) == "tokens is a str, not a token sequence: 'abc'"
        assert Sentence(["abc"]).tokens == ("abc",)

    def test_rejects_empty_token(self):
        with pytest.raises(ValidationError):
            Sentence(("",))

    @given(token_lists)
    def test_text_retokenizes_exactly(self, tokens):
        sentence = Sentence(tuple(tokens))
        assert tokenize(sentence.text()) == sentence


class TestSentenceValue:
    def test_is_a_slotted_tuple(self):
        sentence = Sentence(("a", "b"))
        assert isinstance(sentence, tuple) and Sentence.__slots__ == ()
        assert not hasattr(sentence, "__dict__")
        with pytest.raises(AttributeError):
            sentence.tokens = ("c",)

    def test_equals_hashes_and_orders_as_its_token_tuple(self):
        sentence = Sentence(("a", "b"))
        assert sentence == ("a", "b") and hash(sentence) == hash(("a", "b"))
        assert Sentence() == () and hash(Sentence()) == hash(())
        rng = random.Random(13)
        sentences = [random_sentence(rng, 0, 4, vocab=3) for _ in range(200)]
        assert sorted(sentences) == sorted(sentences, key=tuple)

    def test_slices_and_tokens_are_plain_tuples(self):
        sentence = Sentence(("a", "b", "c"))
        assert type(sentence[0:1]) is tuple and sentence[0:1] == ("a",)
        assert type(sentence[:]) is tuple and sentence[:] == ("a", "b", "c")
        assert type(sentence.tokens) is tuple and sentence.tokens == ("a", "b", "c")
        assert sentence[1] == "b" and len(sentence) == 3 and list(sentence) == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "tokens",
        [["a", "b"], (t for t in ("a", "b")), Sentence(("a", "b")), iter(("a", "b"))],
        ids=["list", "generator", "sentence", "iterator"],
    )
    def test_any_token_iterable_gives_an_equal_sentence(self, tokens):
        sentence = Sentence(tokens)
        assert type(sentence) is Sentence and sentence == Sentence(("a", "b"))
        assert Sentence(tokens=("a", "b")) == sentence

    def test_repr(self):
        assert repr(Sentence(("a", "b"))) == "Sentence(tokens=('a', 'b'))"
        assert repr(Sentence()) == "Sentence(tokens=())"
        assert repr(tokenize("x")) == "Sentence(tokens=('x',))"

    def test_src_never_reads_the_tokens_attribute(self):
        # ``Sentence.tokens`` is kept for callers outside the package; the
        # package indexes and iterates the sentence.
        reads = [
            f"{path.name}:{node.lineno}"
            for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr == "tokens"
        ]
        assert reads == []


class TestCorpusEntry:
    def test_lives_in_edit_core_and_the_combiner_needs_no_m2_io(self):
        assert m2_io.CorpusEntry is CorpusEntry and edit_mbr.CorpusEntry is CorpusEntry
        tree = ast.parse((SRC / "combiner.py").read_text(encoding="utf-8"))
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert "m2_io" not in modules and "edit_core" in modules


    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: CorpusEntry("a b", ("x",)), "entry source must be a Sentence, got 'a b'"),
            (
                lambda: CorpusEntry(tokenize("a"), (Candidate(es(source_len=1), "s"), "x")),
                "entry system must be a Candidate, got 'x'",
            ),
            (
                lambda: CorpusEntry(tokenize("a b c d"), (Candidate(es(source_len=2), "s"),)),
                "edit sets disagree on source length: 4 vs 2",
            ),
        ],
    )
    def test_refuses_what_cannot_be_combined(self, build, message):
        # The first two once combined into a bare AttributeError, and the
        # third combined without error, against the wrong source.
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_holds_its_systems_as_a_tuple(self):
        systems = [Candidate(es(B), "a"), Candidate(es(), "b")]
        entry = CorpusEntry(tokenize("a b c"), iter(systems))
        assert type(entry.systems) is tuple and entry.systems == tuple(systems)
        assert entry == (tokenize("a b c"), tuple(systems))


class TestRecords:
    """Every value type beyond ``Sentence`` is a namedtuple subclass, except
    ``EditSet``; none has a ``__dict__``, and none is built unchecked."""

    def test_no_value_has_a_dict(self):
        for value in (B, tokenize("a b")) + one_of_each_record():
            assert not hasattr(value, "__dict__"), type(value)
            slots = () if isinstance(value, tuple) else ("source_len", "edits")
            assert vars(type(value))["__slots__"] == slots, type(value)

    @pytest.mark.parametrize(
        "value, field, bad",
        [
            (Edit(0, 1), "start", 2),
            (Candidate(es(), "sys"), "label", ""),
            (CorpusEntry(tokenize("a b c"), ()), "systems", (Candidate(es(source_len=2), "s"),)),
            (edit_mbr.Annotation(0, es(B)), "types", ("R", "M")),
            (edit_mbr.M2Entry(tokenize("a b c"), ()), "source", "a b c"),
            (edit_mbr.RewardConfig(), "beta", 0.0),
            (edit_mbr.CombineConfig(), "strategy", "nope"),
        ],
    )
    def test_replace_and_make_check_as_the_constructor_does(self, value, field, bad):
        fields = {**value._asdict(), field: bad}
        with pytest.raises(ValueError) as built:
            type(value)(**fields)
        for copy_with_bad_field in (
            lambda: value._replace(**{field: bad}),
            lambda: type(value)._make(fields.values()),
        ):
            with pytest.raises(ValueError) as info:
                copy_with_bad_field()
            assert type(info.value) is type(built.value) and str(info.value) == str(built.value)


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

    def test_every_whitespace_code_point_is_refused_alone_and_inside_a_token(self):
        spaces = [chr(code) for code in range(0x110000) if chr(code).isspace()]
        assert len(spaces) > 20
        for space in spaces:
            for token in (space, "a" + space + "b"):
                for build in (Sentence, lambda t: Edit(0, 1, t)):
                    with pytest.raises(ValidationError) as info:
                        build(("a", token))
                    assert str(info.value) == f"token contains whitespace: {token!r}"

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
            ((5,), "token is not a str: 5"),
            (("a", 1.5), "token is not a str: 1.5"),
            ((b"ab",), "token is not a str: b'ab'"),
        ],
    )
    def test_sentence_and_edit_name_the_first_bad_token(self, tokens, message):
        for build in (Sentence, lambda t: Edit(0, 1, t)):
            with pytest.raises(ValidationError) as info:
                build(tokens)
            assert str(info.value) == message

    @pytest.mark.parametrize("tokens", [5, None, 1.5])
    def test_sentence_and_edit_refuse_a_non_iterable(self, tokens):
        for build, name in ((Sentence, "tokens"), (lambda t: Edit(0, 1, t), "replacement")):
            with pytest.raises(ValidationError) as info:
                build(tokens)
            assert str(info.value) == f"{name} is not a token sequence: {tokens!r}"


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

    @pytest.mark.parametrize(
        "start, end, shown",
        [(0.5, 1, "0.5 and 1"), (0, 1.0, "0 and 1.0"), (True, 1, "True and 1"),
         (0, False, "0 and False"), ("0", 1, "'0' and 1")],
    )
    def test_rejects_positions_that_are_not_ints(self, start, end, shown):
        with pytest.raises(ValidationError) as info:
            Edit(start, end, ("x",))
        assert str(info.value) == f"edit positions must be ints, got {shown}"

    def test_rejects_a_str_replacement(self):
        with pytest.raises(ValidationError) as info:
            Edit(0, 1, "xy")
        assert str(info.value) == "replacement is a str, not a token sequence: 'xy'"
        assert Edit(0, 1, ["xy"]).replacement == ("xy",)


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
        values = (Edit(1, 2, ("a",)), Edit(0, 0, ("x", "y")), Edit(2, 4))
        values += (Sentence(("a", "b")), Sentence(), tokenize("x y z"))
        for value in values + one_of_each_record():
            twin = clone(value)
            assert twin == value and type(twin) is type(value)
            assert repr(twin) == repr(value)

    def test_order_is_start_end_replacement(self):
        rng = random.Random(11)
        edits = [random_edit(rng, 6, vocab=3) for _ in range(400)]
        assert sorted(edits) == sorted(edits, key=lambda e: (e.start, e.end, e.replacement))

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((-1, 0, 5), ValidationError, "replacement is not a token sequence: 5"),
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
    def test_is_immutable_and_equals_only_edit_sets(self):
        edit_set = es(B)
        for name in ("source_len", "edits", "other"):
            with pytest.raises(AttributeError):
                setattr(edit_set, name, ())
            with pytest.raises(AttributeError):
                delattr(edit_set, name)
        assert edit_set.source_len == 3 and edit_set.edits == (B,)
        assert EditSet(0) != (0, ()) and es(B) != (3, (B,)) and es(B) == es(B)
        assert hash(es(B)) == hash((3, (B,)))
        shown = "EditSet(source_len=3, edits=(Edit(start=1, end=2, replacement=('B',)),))"
        assert repr(es(B)) == shown

    def test_membership_answers_through_iteration(self):
        assert "__contains__" not in vars(EditSet)
        edit_set = es(B, D)
        assert B in edit_set and Edit(1, 2, ("B",)) in edit_set and D in edit_set
        assert X not in edit_set and Edit(0, 1) not in edit_set
        assert (1, 2, ("B",)) in edit_set  # an Edit equals its tuple
        assert "B" not in edit_set and None not in edit_set and 1 not in edit_set
        assert B not in es()

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
        # Short sources with few edits, so duplicates and clashes are common;
        # then sources of up to 130 tokens, whose positions pass one machine
        # word, with up to 20 edits.
        for seed, longest, most, runs in ((23, 8, 6, 12_000), (29, 130, 20, 4_000)):
            rng = random.Random(seed)
            outcomes = {True: 0, False: 0}
            for _ in range(runs):
                source_len = rng.randint(0, longest)
                edits = [
                    random_edit(rng, source_len, vocab=3) for _ in range(rng.randint(0, most))
                ]
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
            assert min(outcomes.values()) > runs // 4, (longest, outcomes)

    @pytest.mark.parametrize(
        "items, bad",
        [
            (((2, 1, ()),), "(2, 1, ())"),  # a reversed span Edit would refuse
            ((B, 3, (0, 1, ("x",))), "3"),  # one that cannot even be sorted
            ([D, (0, 1, ("x",)), "a"], "(0, 1, ('x',))"),  # the first, in input order
        ],
    )
    def test_rejects_items_that_are_not_edits(self, items, bad):
        with pytest.raises(ValidationError, match=r"^edit set item is not an Edit: ") as info:
            EditSet(4, items)
        assert str(info.value).endswith(": " + bad)

    @pytest.mark.parametrize("source_len", [2.0, True, False, "3", None])
    def test_rejects_a_source_length_that_is_not_an_int(self, source_len):
        with pytest.raises(ValidationError) as info:
            EditSet(source_len, (B,))
        assert str(info.value) == f"source_len must be an int, got {source_len!r}"

    def test_accepts_a_one_shot_iterable(self):
        assert EditSet(4, iter((D, B))).edits == (B, D)

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
        # a -> a a: the canonical alignment inserts at 0, which cutting the
        # common prefix off without the walk back to the diagonal would get
        # wrong (it would insert at 1).
        assert extract_edits(tokenize("a"), tokenize("a a")).edits == (Edit(0, 0, ("a",)),)

    @pytest.mark.parametrize(
        "source, hypothesis, edits",
        [
            # above the diagonal, a token that differs is inserted where the
            # path leaves the core
            ("x a", "x a a", (Edit(1, 1, ("a",)),)),
            # above the diagonal, matching tokens carry the insertion to 0
            ("a a a", "a a a a", (Edit(0, 0, ("a",)),)),
            # below the diagonal, a match and then a deletion at 0
            ("a a b", "a b", (Edit(0, 1, ()),)),
            # above the diagonal the walk inserts, matches, then inserts at 0
            # (one edit at the prefix's end would insert "a b" at 1)
            ("a", "a a b", (Edit(0, 0, ("a",)), Edit(1, 1, ("b",)))),
            # the same below the diagonal, with deletions
            ("a a b", "a", (Edit(0, 1, ()), Edit(2, 3, ()))),
        ],
    )
    def test_walk_out_of_a_common_prefix(self, source, hypothesis, edits):
        source, hypothesis = tokenize(source), tokenize(hypothesis)
        assert extract_edits(source, hypothesis).edits == edits
        assert bf_edits(source, hypothesis).edits == edits

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

    @given(shared_prefix_pairs())
    @settings(max_examples=500, deadline=None)
    def test_matches_oracle_on_pairs_with_a_common_prefix(self, pair):
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
        with pytest.raises(ValidationError, match="^edit sets disagree on source length: 2 vs 3$"):
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

    @pytest.mark.parametrize("min_votes", [1.5, 2.0, True, "2"])
    def test_rejects_a_threshold_that_is_not_an_int(self, min_votes):
        with pytest.raises(ValidationError) as info:
            vote_set(self.sets(), min_votes)
        assert str(info.value) == f"min_votes must be an int, got {min_votes!r}"

    def test_rejects_a_threshold_below_1(self):
        with pytest.raises(ValidationError, match="^min_votes must be >= 1$"):
            vote_set(self.sets(), 0)

    def test_threshold_adding_no_edit_reuses_the_set_above(self):
        # B has 3 votes, D 1: thresholds 2 and 3 hold B alone, 4 nothing.
        sets = [es(B, D), es(B), es(B), es()]
        by_threshold = [edit_set for edit_set, _ in EditIndex(sets).resolve()]
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


def index_instances(n, seed):
    """System edit sets from a shared pool (shared votes and conflicts), with
    every fourth draw repeating a system and every third adding two clashing
    insertions at one point to different systems."""
    rng = random.Random(seed)
    for draw in range(n):
        source_len = rng.randint(0, 8)
        systems = random_systems(
            rng, source_len=source_len, n_systems=rng.randint(1, 6), pool_size=rng.randint(0, 8)
        )
        sets = [candidate.edit_set for candidate in systems]
        if draw % 4 == 0:
            sets.append(rng.choice(sets))
        if draw % 3 == 0 and len(sets) > 1:
            point = rng.randint(0, source_len)
            for edit_set, word in zip(rng.sample(range(len(sets)), 2), ("x", "y")):
                insertion = Edit(point, point, (word,))
                kept = [e for e in sets[edit_set] if not bf_conflicts(e, insertion)]
                sets[edit_set] = EditSet(source_len, (*kept, insertion))
        yield sets


class TestCandidate:
    @pytest.mark.parametrize("label", ["", 5, None, b"sys", ("sys",)])
    def test_label_must_be_a_non_empty_str(self, label):
        with pytest.raises(ValidationError) as info:
            Candidate(es(B), label)
        assert str(info.value) == f"candidate label must be a non-empty str, got {label!r}"

    @pytest.mark.parametrize("edit_set", ["nope", None, (B,), [B], frozenset({B})])
    def test_edit_set_must_be_an_edit_set_and_is_checked_first(self, edit_set):
        for label in ("a", ""):
            with pytest.raises(ValidationError) as info:
                Candidate(edit_set, label)
            assert str(info.value) == f"candidate edit set must be an EditSet, got {edit_set!r}"


class TestEditIndex:
    def test_bits_votes_and_masks_match_brute_force(self):
        for sets in index_instances(400, seed=71):
            index = EditIndex(sets)
            # Distinct edits in first-proposal order: system order, then span order.
            proposed = list(dict.fromkeys(edit for edit_set in sets for edit in sorted(edit_set)))
            assert list(index.bits.items()) == [(e, 1 << i) for i, e in enumerate(proposed)]
            assert index.source_len == sets[0].source_len
            assert list(index.masks) == [
                sum(index.bits[edit] for edit in edit_set) for edit_set in sets
            ]
            for edit, bit in index.bits.items():
                votes = sum(edit in edit_set for edit_set in sets)
                assert sum(bool(mask & bit) for mask in index.masks) == votes

    def test_every_threshold_matches_the_oracle_with_its_mask(self):
        reused = 0
        for sets in index_instances(400, seed=73):
            index = EditIndex(sets)
            resolved = index.resolve()
            assert len(resolved) == len(sets)
            for m, (edit_set, mask) in enumerate(resolved, start=1):
                want = bf_vote_set(sets, m)
                assert edit_set == want
                assert mask == sum(index.bits[edit] for edit in want)
                if m < len(sets) and want == bf_vote_set(sets, m + 1):
                    assert edit_set is resolved[m][0]
                    reused += 1
            views = [vote_set(sets, m) for m in range(1, len(sets) + 1)]
            assert [edit_set for edit_set, _ in resolved] == views
            assert views[-1] == intersect(sets)
        assert reused >= 100

    def test_mask_is_the_or_of_the_bits_of_the_held_edits(self):
        rng = random.Random(79)
        for sets in index_instances(300, seed=79):
            index = EditIndex(sets)
            for edit_set, mask in zip(sets, index.masks):
                copy = EditSet(edit_set.source_len, edit_set.edits)
                assert copy is not edit_set
                assert index.mask(edit_set) == index.mask(copy) == mask
            # An edit that no indexed set holds adds no bit.
            other = random_edit_set(rng, sets[0].source_len)
            assert index.mask(other) == sum(index.bits.get(edit, 0) for edit in other)
        index = EditIndex([es(B)])
        assert index.mask(es(B, D)) == index.mask(es(B)) == index.bits[B]
        assert index.mask(es(D)) == 0

    def test_source_length_mismatch_names_both_lengths(self):
        with pytest.raises(ValidationError, match="disagree on source length: 3 vs 5"):
            EditIndex([es(B), EditSet(5, (B,))])
        with pytest.raises(ValidationError, match="disagree on source length: 3 vs 5"):
            EditIndex([es(B)]).mask(EditSet(5, (B,)))
        with pytest.raises(ValueError, match="need at least one edit set"):
            EditIndex([])
