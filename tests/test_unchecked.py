"""Values the package builds without their checks (``Sentence._of``,
``Edit._of``, ``EditSet._of``, ``Annotation._of``, ``M2Entry._of``) would
pass those checks, and the public entry points those builds rely on still
refuse bad input.

Each property rebuilds an unchecked value through its public constructor and
asserts it comes back equal, with the exact type, so an unchecked build that
yields an unsorted, conflicting, out-of-range or ill-typed value fails here.
CI runs this module once more under the ``thorough`` hypothesis profile
(``tests/conftest.py``).  ``TestUncheckedSites`` lists every unchecked build
in ``src/``, so a new one has to be added to that list on purpose.
"""

import ast
import random
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bf_edits, bf_lines, random_edit_set, random_sentence, random_systems
from edit_mbr.combiner import CombineConfig, combine_sentence
from edit_mbr.edit_core import (
    Edit,
    EditIndex,
    EditSet,
    Sentence,
    ValidationError,
    apply_edits,
    extract_batch,
    extract_edits,
    intersect,
    tokenize,
    vote_set,
)
from edit_mbr.m2_io import Annotation, M2Entry, M2ParseError, load_sentences, parse_m2
from edit_mbr.rewards import REWARD_KINDS, RewardConfig
from test_m2_io import _random_m2

SRC = Path(__file__).resolve().parent.parent / "src" / "edit_mbr"

# Word characters (a zero-width space is not whitespace) plus the whitespace
# ``str.split`` splits on that is easy to miss: no-break space, NEL, line and
# ideographic separators, the information separators ``\x1c``-``\x1f``,
# vertical tab and form feed.  ``\n`` ends a line of a file.
WORD_CHARS = ["a", "b", "c", "\u00e9", "-", "\u200b"]
SPACE_CHARS = [" ", "\t", "\xa0", "\x85", "\u2028", "\u3000"]
SPACE_CHARS += ["\x1c", "\x1d", "\x1e", "\x1f", "\v", "\f"]
line_texts = st.text(alphabet=WORD_CHARS + SPACE_CHARS, max_size=30)
seeds = st.integers(0, 2**32 - 1)


def assert_checked_sentence(sentence) -> None:
    """``sentence`` is a ``Sentence`` that its public constructor rebuilds
    unchanged, and every token is an exact ``str``."""
    assert type(sentence) is Sentence
    assert all(type(token) is str for token in sentence)
    assert Sentence(sentence) == sentence


def assert_checked_edit_set(edit_set) -> None:
    """``edit_set`` is an ``EditSet`` of ``Edit``s that the public
    constructors rebuild unchanged: in range, sorted, distinct and
    conflict-free, each edit a valid one with a tuple of exact ``str``s."""
    assert type(edit_set) is EditSet and type(edit_set.edits) is tuple
    for edit in edit_set.edits:
        assert type(edit) is Edit and Edit(*edit) == edit
        assert type(edit.replacement) is tuple
        assert all(type(token) is str for token in edit.replacement)
    assert EditSet(edit_set.source_len, edit_set.edits) == edit_set


def assert_checked_entry(entry) -> None:
    """``entry`` is an ``M2Entry`` that the public constructors rebuild
    unchanged, annotation by annotation, with a tuple of exact ``str`` types
    per edit set."""
    assert type(entry) is M2Entry and type(entry.annotations) is tuple
    assert_checked_sentence(entry.source)
    for annotation in entry.annotations:
        assert type(annotation) is Annotation and type(annotation.annotator) is int
        assert type(annotation.types) is tuple
        assert all(type(type_str) is str for type_str in annotation.types)
        assert_checked_edit_set(annotation.edits)
        assert Annotation(*annotation) == annotation
    assert M2Entry(*entry) == entry


class TestUncheckedBuildsPassTheirChecks:
    @settings(deadline=None)
    @given(seeds, st.integers(1, 40))
    def test_extracted_and_applied_edit_sets(self, seed, n_pairs):
        # Up to 40 pairs, so a batch of them can fill more than one pack of lanes.
        rng = random.Random(seed)
        sources, hypotheses = [], []
        for _ in range(n_pairs):
            vocab = rng.randint(1, 12)
            source = random_sentence(rng, 0, 25, vocab)
            if rng.random() < 0.5:
                hypothesis = apply_edits(source, random_edit_set(rng, len(source), max_edits=6))
                assert_checked_sentence(hypothesis)
            else:
                hypothesis = random_sentence(rng, 0, 25, vocab)
            sources.append(source)
            hypotheses.append(hypothesis)
        edit_sets = extract_batch(sources, hypotheses)
        for source, hypothesis, edits in zip(sources, hypotheses, edit_sets):
            assert_checked_edit_set(edits)
            assert edits == bf_edits(source, hypothesis)
            output = apply_edits(source, edits)
            assert_checked_sentence(output)
            assert output == hypothesis

    @settings(deadline=None)
    @given(st.lists(st.tuples(line_texts, line_texts), max_size=6))
    def test_tokenized_lines_and_their_edits(self, texts):
        sources = [tokenize(source_text) for source_text, _ in texts]
        hypotheses = [tokenize(hypothesis_text) for _, hypothesis_text in texts]
        for source, (source_text, _) in zip(sources, texts):
            assert_checked_sentence(source)
            assert source == tuple(source_text.split())
        for hypothesis in hypotheses:
            assert_checked_sentence(hypothesis)
        edit_sets = extract_batch(sources, hypotheses)
        for source, hypothesis, edits in zip(sources, hypotheses, edit_sets):
            assert_checked_edit_set(edits)
            assert apply_edits(source, edits) == hypothesis

    @settings(deadline=None)
    @given(seeds, st.integers(1, 6))
    def test_vote_sets_at_every_threshold(self, seed, n_systems):
        rng = random.Random(seed)
        systems = random_systems(rng, source_len=rng.randint(0, 12), n_systems=n_systems)
        sets = [candidate.edit_set for candidate in systems]
        resolved = EditIndex(sets).resolve()
        assert len(resolved) == n_systems
        for edit_set, _ in resolved:
            assert_checked_edit_set(edit_set)
        assert_checked_edit_set(intersect(sets))
        assert_checked_edit_set(vote_set(sets, rng.randint(1, n_systems + 1)))

    @settings(deadline=None)
    @given(seeds, st.sampled_from(REWARD_KINDS), st.integers(1, 5), st.booleans())
    def test_greedy_grown_set(self, seed, kind, threshold, with_votes):
        rng = random.Random(seed)
        systems = random_systems(rng, source_len=rng.randint(1, 12), n_systems=rng.randint(1, 5))
        config = CombineConfig(
            "greedy", RewardConfig(kind), "base+votes" if with_votes else "base", threshold
        )
        result = combine_sentence(systems, config)
        grown = result.selection[-1]
        assert grown.label == "greedy"
        assert_checked_edit_set(grown.edit_set)
        union = next(c.edit_set for c in result.selection if c.label == "vote-1")
        assert set(union) >= set(grown.edit_set)

    @settings(deadline=None)
    @given(st.lists(line_texts, max_size=6), st.sampled_from(["\n", "\r\n"]))
    def test_loaded_sentences(self, lines, newline):
        text = newline.join(lines) + newline
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "corpus.txt"
            path.write_bytes(text.encode("utf-8"))
            sentences = load_sentences(path)
        assert sentences == [tokenize(line) for line in bf_lines(text)]
        for sentence in sentences:
            assert_checked_sentence(sentence)

    @settings(deadline=None)
    @given(st.lists(line_texts, max_size=6))
    def test_parsed_source_lines(self, lines):
        noop = "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0"
        text = "".join(f"S {line}\n{noop}\n\n" for line in lines)
        entries = parse_m2(text)
        assert [entry.source for entry in entries] == [tokenize(line) for line in lines]
        for entry in entries:
            assert_checked_sentence(entry.source)

    @settings(deadline=None)
    @given(seeds)
    def test_parsed_edits_annotations_and_entries(self, seed):
        rng = random.Random(seed)
        memo = {}  # shared by the texts of one example, as ``load_parallel`` shares it
        for text in [_random_m2(rng) for _ in range(4)]:
            for parse in (parse_m2, lambda t: parse_m2(t, memo=memo)):
                try:
                    entries = parse(text)
                except M2ParseError:
                    continue
                for entry in entries:
                    assert_checked_entry(entry)


class TestEntryPointsStillCheck:
    @pytest.mark.parametrize(
        "bad", [["a", "b c"], ("a", ""), ["a", 1]], ids=["space", "empty", "int"]
    )
    def test_extract_edits_refuses_a_bad_token_where_the_sentences_agree(self, bad):
        with pytest.raises(ValidationError):
            extract_edits(bad, bad)
        with pytest.raises(ValidationError):
            extract_edits(tokenize("a b"), bad)

    def test_extract_edits_takes_lists_and_tuples(self):
        want = extract_edits(tokenize("a b c"), tokenize("a x c"))
        assert extract_edits(["a", "b", "c"], ("a", "x", "c")) == want
        assert_checked_edit_set(extract_edits(["a", "b", "c"], ("a", "x", "c")))

    def test_apply_edits_refuses_a_bad_token_and_takes_a_list(self):
        with pytest.raises(ValidationError):
            apply_edits(["a", "b c"], EditSet(2))
        output = apply_edits(["a", "b"], EditSet(2, (Edit(1, 2, ("c",)),)))
        assert output == ("a", "c")
        assert_checked_sentence(output)

    def test_apply_edits_refuses_what_is_not_an_edit_set(self):
        class Fake:
            source_len = 1
            edits = ((0, 1, ("x y",)),)

            def __iter__(self):
                return iter(self.edits)

        with pytest.raises(ValidationError, match="edits must be an EditSet"):
            apply_edits(tokenize("a"), Fake())

    @pytest.mark.parametrize("build", [EditIndex, intersect, lambda sets: vote_set(sets, 1)])
    def test_edit_index_refuses_what_is_not_an_edit_set(self, build):
        with pytest.raises(ValidationError, match="indexed item is not an EditSet"):
            build([EditSet(1), (Edit(0, 1, ("x",)),)])

    @pytest.mark.parametrize("text", [b"a b", None, ["a", "b"]], ids=["bytes", "none", "list"])
    def test_tokenize_refuses_what_is_not_a_str(self, text):
        with pytest.raises(ValidationError, match="text to tokenize is not a str"):
            tokenize(text)

    def test_parse_m2_reuses_only_a_sentence_source(self):
        class Lookalike(tuple):
            def text(self):
                return " ".join(self)

        [entry] = parse_m2("S a b\n\n", sources=[Lookalike(("a", "b"))])
        assert type(entry.source) is Sentence and entry.source == ("a", "b")
        assert_checked_entry(entry)

    @pytest.mark.parametrize("types", ["RM", "R:NOUN", ""])
    def test_annotation_refuses_types_given_as_one_str(self, types):
        edits = EditSet(3, (Edit(0, 1, ("x",)), Edit(1, 2, ("y",))))
        with pytest.raises(ValidationError, match="types is a str"):
            Annotation(0, edits, types)
        assert Annotation(0, edits, ["R", "M"]).types == ("R", "M")


def unchecked_builds(text: str) -> list[tuple[str, str]]:
    """(enclosing scope, what) of each unchecked build in a module's source.

    A build is any reference to an ``_of`` attribute, and any ``tuple.__new__``
    or ``object.__new__`` outside a ``__new__`` method.  The scope is the
    qualified name of the enclosing classes and functions, ``""`` at module
    level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                what = ast.unparse(child)
                bypass = what in ("tuple.__new__", "object.__new__")
                if child.attr == "_of" or (bypass and scope.rpartition(".")[2] != "__new__"):
                    found.append((scope, what))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
            else:
                visit(child, scope)

    visit(ast.parse(text), "")
    return found


# Every unchecked build in ``src/``, with how often it occurs.  The five
# ``_of`` definitions come first, then each site that relies on one.
UNCHECKED_BUILDS = {
    ("edit_core", "Sentence", "tuple.__new__"): 1,
    ("edit_core", "Edit._of", "tuple.__new__"): 1,
    ("edit_core", "EditSet._of", "object.__new__"): 1,
    ("m2_io", "Annotation._of", "tuple.__new__"): 1,
    ("m2_io", "M2Entry._of", "tuple.__new__"): 1,
    ("edit_core", "tokenize", "Sentence._of"): 1,
    ("edit_core", "apply_edits", "Sentence._of"): 1,
    ("edit_core", "_backtrace", "Edit._of"): 2,
    ("edit_core", "_backtrace", "EditSet._of"): 1,
    ("edit_core", "EditIndex.resolve", "EditSet._of"): 1,
    ("m2_io", "parse_m2", "Sentence._of"): 1,
    ("m2_io", "parse_m2", "Edit._of"): 1,
    ("m2_io", "parse_m2.close", "Annotation._of"): 1,
    ("m2_io", "parse_m2.close", "M2Entry._of"): 1,
    ("m2_io", "load_sentences", "Sentence._of"): 1,
    ("combiner", "combine_sentence", "EditSet._of"): 1,
}


class TestUncheckedSites:
    def test_every_unchecked_build_in_src_is_listed(self):
        files = sorted(SRC.rglob("*.py"))
        assert files
        found = Counter(
            (path.stem, scope, what)
            for path in files
            for scope, what in unchecked_builds(path.read_text(encoding="utf-8"))
        )
        assert dict(found) == UNCHECKED_BUILDS

    def test_scan_finds_each_kind_of_build(self):
        text = (
            "class Sentence(tuple):\n"
            "    _of = classmethod(tuple.__new__)\n"
            "    def __new__(cls, tokens):\n"
            "        return tuple.__new__(cls, tokens)\n"
            "def load(lines):\n"
            "    make = Sentence._of\n"
            "    def inner(x):\n"
            "        return object.__new__(x)\n"
            "    return [tuple.__new__(Sentence, line) for line in lines]\n"
            "edit = Edit._of(0, 1, ('x',))\n"
        )
        assert unchecked_builds(text) == [
            ("Sentence", "tuple.__new__"),
            ("load", "Sentence._of"),
            ("load.inner", "object.__new__"),
            ("load", "tuple.__new__"),
            ("", "Edit._of"),
        ]
