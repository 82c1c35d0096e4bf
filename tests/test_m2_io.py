"""M2 parsing/emission and parallel corpus loading."""

import random
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bf_lines, bf_parse_m2, random_edit_set, random_sentence
from edit_mbr import m2_io
from edit_mbr.combiner import CombineConfig, combine_sentence
from edit_mbr.edit_core import (
    Candidate,
    CorpusEntry,
    Edit,
    EditSet,
    Sentence,
    ValidationError,
    tokenize,
)
from edit_mbr.m2_io import (
    Annotation,
    M2Entry,
    M2ParseError,
    emit_m2,
    load_matching_m2,
    load_parallel,
    load_sentences,
    parse_m2,
    primary_edit_set,
)

GOLDEN = Path(__file__).parent / "data" / "golden.m2"

B = Edit(1, 2, ("B",))

SINGLE_EDIT_M2 = "S a b c\nA 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n"
NOOP_M2 = "S a b c\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"

# Fields ``int`` reads as integers that an M2 file may not hold.
NOT_M2_INTS = ["0_0", "+1", "\u0661", "+0"]
NOT_M2_SPANS = ["1_0 1_1", "\u0661 \u0662", "+1 2", "0 +1"]


class TestParse:
    def test_single_edit(self):
        entries = parse_m2(SINGLE_EDIT_M2)
        assert len(entries) == 1
        entry = entries[0]
        assert entry.source == tokenize("a b c")
        assert entry.annotations[0].annotator == 0
        assert entry.annotations[0].edits == EditSet(3, (B,))
        assert entry.annotations[0].types == ("UNK",)

    def test_noop_gives_empty_set(self):
        entries = parse_m2(NOOP_M2)
        assert entries[0].annotations[0].edits == EditSet(3)

    def test_span_out_of_range(self):
        with pytest.raises(M2ParseError, match="line 2.*out of range"):
            parse_m2("S a b c\nA 5 6|||UNK|||x|||REQUIRED|||-NONE-|||0\n\n")

    def test_overlapping_edits_within_annotator(self):
        text = (
            "S a b c\n"
            "A 0 2|||UNK|||x|||REQUIRED|||-NONE-|||0\n"
            "A 1 3|||UNK|||y|||REQUIRED|||-NONE-|||0\n\n"
        )
        with pytest.raises(M2ParseError, match="conflicting edits"):
            parse_m2(text)

    def test_wrong_field_count(self):
        with pytest.raises(M2ParseError, match="line 2"):
            parse_m2("S a b c\nA 1 2|||UNK|||B\n\n")

    def test_non_integer_span(self):
        with pytest.raises(M2ParseError, match="line 2"):
            parse_m2("S a b c\nA one 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n")

    def test_annotation_before_source(self):
        with pytest.raises(M2ParseError, match="line 1"):
            parse_m2("A 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n")

    def test_unrecognized_line(self):
        with pytest.raises(M2ParseError, match="line 2"):
            parse_m2("S a b c\nB whatever\n\n")

    @pytest.mark.parametrize("replacement", ["-NONE-", ""])
    def test_zero_width_edit_with_empty_replacement(self, replacement):
        message = "^line 2: zero-width edit with empty replacement is a no-op$"
        with pytest.raises(M2ParseError, match=message):
            parse_m2(f"S a b c\n{_line('2 2', 'M', replacement)}\n\n")

    def test_negative_annotator(self):
        with pytest.raises(M2ParseError, match="annotator"):
            parse_m2("S a b c\nA 1 2|||UNK|||B|||REQUIRED|||-NONE-|||-1\n\n")

    # Superscript two is a digit to ``str.isdigit``, not to ``int``.
    @pytest.mark.parametrize("span", [*NOT_M2_SPANS, "0 2\u00b2"])
    def test_span_holds_ascii_digits_only(self, span):
        with pytest.raises(M2ParseError, match="^line 2: non-integer edit span$"):
            parse_m2(f"S a b c\n{_line(span)}\n\n")

    # Of ``|0`` and ``|| 2`` the text after the line's last '|||' reads as an
    # integer, but the sixth field, split from the left, starts with '|'.
    @pytest.mark.parametrize("annotator", [*NOT_M2_INTS, "\u00b2", "- 1", "|0", "|| 2"])
    def test_annotator_id_holds_ascii_digits_only(self, annotator):
        with pytest.raises(M2ParseError, match="^line 2: non-integer annotator id$"):
            parse_m2(f"S a b c\n{_line('1 2', annotator=annotator)}\n\n")

    @pytest.mark.parametrize("field", [" 1 ", "\t1", "01", "-0"])
    def test_annotator_id_may_be_padded_or_zero_led(self, field):
        [entry] = parse_m2(f"S a b c\n{_line('1 2', annotator=field)}\n")
        assert entry.annotations[0].annotator == (0 if field == "-0" else 1)

    def test_more_digits_than_int_converts_is_not_an_integer(self):
        digits = "1" * 5000
        with pytest.raises(M2ParseError, match="^line 2: non-integer edit span$"):
            parse_m2(f"S a b c\n{_line('0 ' + digits)}\n")
        with pytest.raises(M2ParseError, match="^line 2: non-integer annotator id$"):
            parse_m2(f"S a b c\n{_line('1 2', annotator=digits)}\n")

    def test_repeated_edit_keeps_its_first_type_in_span_order(self):
        text = (
            "S a b c\n"
            "A 2 3|||R:NOUN|||C|||REQUIRED|||-NONE-|||0\n"
            "A 1 2|||R:VERB|||B|||REQUIRED|||-NONE-|||0\n"
            "A 2 3|||M:DET|||C|||REQUIRED|||-NONE-|||0\n"
            "A 1 2|||U:ADJ|||B|||REQUIRED|||-NONE-|||0\n\n"
        )
        annotation = parse_m2(text)[0].annotations[0]
        assert annotation.edits == EditSet(3, (B, Edit(2, 3, ("C",))))
        assert annotation.types == ("R:VERB", "R:NOUN")

    def test_missing_trailing_blank_line(self):
        entries = parse_m2("S a b c\nA 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0")
        assert entries[0].annotations[0].edits == EditSet(3, (B,))

    def test_crlf_tolerated(self):
        entries = parse_m2(SINGLE_EDIT_M2.replace("\n", "\r\n"))
        assert entries[0].annotations[0].edits == EditSet(3, (B,))

    def test_only_newline_ends_a_line(self):
        entries = parse_m2("S a\u2028b c\nA 1 2|||UNK|||B\x0bX|||REQUIRED|||-NONE-|||0\n\n")
        assert entries[0].source == tokenize("a b c")
        assert entries[0].annotations[0].edits == EditSet(3, (Edit(1, 2, ("B", "X")),))

    def test_empty_replacement_field(self):
        entries = parse_m2("S a b c\nA 1 2|||U:DET||||||REQUIRED|||-NONE-|||0\n\n")
        assert entries[0].annotations[0].edits == EditSet(3, (Edit(1, 2, ()),))

    def test_multi_annotator_grouping(self):
        text = (
            "S a b c\n"
            "A 1 2|||UNK|||B|||REQUIRED|||-NONE-|||1\n"
            "A 0 1|||UNK|||z|||REQUIRED|||-NONE-|||0\n\n"
        )
        entries = parse_m2(text)
        annotations = entries[0].annotations
        assert [a.annotator for a in annotations] == [0, 1]
        assert annotations[0].edits == EditSet(3, (Edit(0, 1, ("z",)),))
        assert annotations[1].edits == EditSet(3, (B,))

    def test_entry_without_annotations(self):
        entries = parse_m2("S a b c\n\n")
        assert entries[0].annotations == ()
        assert primary_edit_set(entries[0]) == EditSet(3)


def _line(span, type_str="UNK", replacement="x", annotator="0", flag="REQUIRED"):
    return f"A {span}|||{type_str}|||{replacement}|||{flag}|||-NONE-|||{annotator}"


def _mutate(rng: random.Random, line: str) -> str:
    """An annotation line broken in one of several ways."""
    head = line.rpartition("|||")[0]
    rest = line.partition("|||")[2]
    annotator = rng.choice(["x", "-1", "", "1.0", " 2 ", "|0", "||1", *NOT_M2_INTS])
    span = rng.choice(["1", "1 x", "a b", "1 2 3", "0 9", "3 1", "-1 0", *NOT_M2_SPANS])
    return rng.choice(
        [
            head,  # five fields
            line + "|||extra",  # seven fields
            f"{head}|||{annotator}",
            line.replace("|||-NONE-|||", "|||-NONE-|||" + rng.choice(["|", "||", "x|"]), 1),
            f"A {span}|||{rest}",
        ]
    )


def _random_m2(rng: random.Random) -> str:
    """Multi-annotator M2 text whose annotators mostly repeat each other's
    lines, with some lines reused across entries and some lines malformed.
    Now and then an entry's annotation lines are shuffled, so annotators
    interleave, or an annotator field is padded with spaces."""
    shared: list[str] = []  # annotation lines that may turn up in any entry
    lines: list[str] = []
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(0, 6)
        lines.append("S " + " ".join(f"t{rng.randrange(4)}" for _ in range(length)))
        block = []  # this entry's annotation lines
        gold = []
        for start in sorted(rng.sample(range(length + 1), rng.randint(0, min(3, length + 1)))):
            end = min(length, start + rng.randint(0, 1))
            replacement = rng.choice(["x", "y z", "x\ty", "-NONE-", ""][: 5 if end > start else 3])
            gold.append((f"{start} {end}", replacement))
            shared.append(_line(f"{start} {end}", "UNK", replacement))
        for annotator in rng.sample(range(4), rng.randint(1, 3)):
            body = [
                (span, rng.choice(["R:NOUN", "M:DET"]), replacement)
                for span, replacement in gold
                if rng.random() < 0.8
            ]
            if gold and rng.random() < 0.1:  # conflicts with the gold edit on its span
                body.append((gold[0][0], "R:NOUN", "w"))
            if not body or rng.random() < 0.2:
                body.append(("-1 -1", "noop", "-NONE-"))
            for span, type_str, replacement in body:
                flag = rng.choice(["REQUIRED", "REQUIRED", "OPTIONAL"])
                field = str(annotator)
                if rng.random() < 0.15:
                    field = rng.choice([f" {field} ", f"{field} ", f"\t{field}"])
                block.append(_line(span, type_str, replacement, field, flag))
                if rng.random() < 0.2:  # the same edit again, maybe with another type
                    type_str = rng.choice(["R:NOUN", "U:ADJ"])
                    block.append(_line(span, type_str, replacement, field, flag))
        if shared and rng.random() < 0.2:
            block.append(rng.choice(shared))
        if rng.random() < 0.3:
            rng.shuffle(block)
        lines += block
        lines.append(rng.choice(["", "", "  ", "\r"]))

    for _ in range(rng.choice([0, 0, 1, 2])):
        index = rng.randrange(len(lines))
        if lines[index].startswith("A ") and rng.random() < 0.8:
            lines[index] = _mutate(rng, lines[index])
        else:
            lines.insert(index, rng.choice(["S", "Sx", "A", "junk", "A 1|||broken", "", "B 1 2"]))
    return "\n".join(lines) + rng.choice(["", "\n"])


def _annotator_runs(text: str) -> list[list[str]]:
    """Per entry of ``text``, the annotator field of each run of ``A`` lines
    whose fields read as the same id; an entry whose annotators interleave
    lists an id twice."""
    entries: list[list[str]] = []
    last = None
    for line in bf_lines(text):
        if not line.startswith("A "):
            entries.append([])
            last = None
            continue
        field = line.rpartition("|||")[2]
        if entries and field.strip() != last:
            entries[-1].append(field)
            last = field.strip()
    return entries


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


class TestParseMemo:
    """Repeated annotation lines are checked once per entry, with the old outcome."""

    def test_matches_full_check_on_random_multi_annotator_text(self):
        rng = random.Random(5)
        kinds = {"ok": 0, "error": 0}
        for _ in range(3000):
            text = _random_m2(rng)
            want = _outcome(bf_parse_m2, text)
            assert _outcome(parse_m2, text) == want, text
            kinds["ok" if isinstance(want, list) else "error"] += 1
        assert min(kinds.values()) > 500

    def test_matches_full_check_with_a_memo_shared_across_texts(self):
        rng = random.Random(6)
        kinds = {"ok": 0, "error": 0}
        # Texts where an annotator's lines are not one run, and texts with a
        # padded annotator field.
        interleaved = padded = 0
        for _ in range(1000):
            memo = {}
            for text in [_random_m2(rng) for _ in range(3)]:
                want = _outcome(bf_parse_m2, text)
                assert _outcome(lambda t: parse_m2(t, memo=memo), text) == want, text
                kinds["ok" if isinstance(want, list) else "error"] += 1
                runs = _annotator_runs(text)
                interleaved += any(len({f.strip() for f in fields}) < len(fields) for fields in runs)
                padded += any(f != f.strip() for fields in runs for f in fields)
        assert min(kinds.values()) > 500
        assert interleaved > 500 and padded > 500

    def test_repeat_in_a_shorter_later_entry_is_out_of_range_on_its_own_line(self):
        line = _line("3 4", "UNK", "x")
        text = f"S a b c d\n{line}\n{_line('3 4', 'UNK', 'x', '1')}\n\nS a b\n{line}\n"
        with pytest.raises(M2ParseError, match="^line 6: edit span 3 4 out of range"):
            parse_m2(text)

    @pytest.mark.parametrize(
        "annotator, message",
        [("x", "line 3: non-integer annotator id"), ("-1", "line 3: negative annotator id -1")],
    )
    def test_repeat_with_a_bad_annotator_fails_on_its_own_line(self, annotator, message):
        text = f"S a b c\n{_line('1 2')}\n{_line('1 2', annotator=annotator)}\n"
        with pytest.raises(M2ParseError, match=f"^{message}$"):
            parse_m2(text)

    def test_each_annotator_keeps_its_own_first_type(self):
        text = "\n".join(
            [
                "S a b c",
                _line("1 2", "R:VERB", "B", "1"),
                _line("1 2", "M:DET", "B", "0"),
                _line("1 2", "R:VERB", "B", "0"),
                _line("1 2", "M:DET", "B", "1"),
                _line("1 2", "M:DET", "B", "2"),
            ]
        )
        first, second, third = parse_m2(text)[0].annotations
        assert (first.types, second.types, third.types) == (("M:DET",), ("R:VERB",), ("M:DET",))
        assert first.edits == second.edits == third.edits == EditSet(3, (B,))
        assert first.edits.edits[0] is third.edits.edits[0]



def _system_files(rng: random.Random) -> tuple[list[str], list[str]]:
    """Source lines plus the M2 text of two to four system files over them.

    Later files repeat most of the first file's edit lines for the same
    entry, some broken, some with another annotator id; now and then a later
    file's ``S`` line holds another source (a token dropped or added) or
    the same tokens spaced another way, or the file holds an entry too many
    or too few.  Any file's entry may also repeat an edit line the first
    file gave another entry, whose source may be longer or shorter."""
    sources = [
        " ".join(f"t{rng.randrange(4)}" for _ in range(rng.randint(0, 6)))
        for _ in range(rng.randint(1, 5))
    ]
    first = []
    for source in sources:
        length = len(source.split())
        lines = []
        for start in sorted(rng.sample(range(length + 1), rng.randint(0, min(3, length + 1)))):
            end = min(length, start + rng.randint(0, 1))
            replacement = rng.choice(["x", "y z", "-NONE-"][: 3 if end > start else 2])
            for annotator in rng.sample(range(3), rng.randint(1, 2)):
                type_str = rng.choice(["R:NOUN", "M:DET"])
                lines.append(_line(f"{start} {end}", type_str, replacement, str(annotator)))
        first.append(lines or [_line("-1 -1", "noop", "-NONE-")])
    files = []
    for number in range(rng.randint(2, 4)):
        blocks = []
        for source, lines in zip(sources, first):
            s_line = f"S {source}" if source or rng.random() < 0.5 else "S"
            if number and rng.random() < 0.2:
                tokens = source.split()
                s_line = "S " + rng.choice(
                    [
                        " ".join(tokens[:-1]),  # shorter: a shared span may fall outside
                        " ".join(tokens + ["t9"]),
                        "  ".join(tokens),
                        "\t".join(tokens) + " ",
                        " " + source,
                    ]
                )
            body = [line for line in lines if not number or rng.random() < 0.8]
            for index, line in enumerate(body):
                if number and rng.random() < 0.1:
                    body[index] = rng.choice(
                        [
                            _mutate(rng, line),
                            line.rpartition("|||")[0] + rng.choice(["|||x", "|||-1", "|||7"]),
                        ]
                    )
            if number and lines and rng.random() < 0.1:  # the first line's span, another edit
                fields = lines[0][2:].split("|||")
                body.append(_line(fields[0], "R:NOUN", "w", fields[5]))
            if rng.random() < 0.15:  # another entry's line, maybe past this source's end
                body.append(rng.choice(rng.choice(first)))
            blocks.append("\n".join([s_line, *body]))
        if number and rng.random() < 0.1:  # an entry too many or too few
            if rng.random() < 0.5:
                blocks.append(blocks[-1])
            else:
                blocks.pop()
        files.append("".join(block + "\n\n" for block in blocks))
    return sources, files


def _lengths_by_line(files: list[str]) -> dict[str, set[int]]:
    """Each edit line's text before its last ``|||``, with the token counts of
    the ``S`` lines of the entries it occurs in, over all ``files``."""
    lengths: dict[str, set[int]] = {}
    for text in files:
        length = 0
        for line in bf_lines(text):
            if line == "S" or line.startswith("S "):
                length = len(line[2:].split())
            elif line.startswith("A ") and not line.startswith("A -1 -1"):
                lengths.setdefault(line.rpartition("|||")[0], set()).add(length)
    return lengths


def _span_end(key: str) -> int:
    """The end of an edit line's span; -1 when the line has no such field."""
    try:
        return int(key[2:].split("|||")[0].split()[1])
    except (IndexError, ValueError):
        return -1


def _bf_load_matching(text, sources, path, source_name):
    """``load_matching_m2`` as it was: a full parse, then count and ``==`` checks."""
    entries = bf_parse_m2(text)
    if len(entries) != len(sources):
        raise ValidationError(
            f"{path}: {len(entries)} entries, but {source_name} has {len(sources)} lines"
        )
    for index, (entry, source) in enumerate(zip(entries, sources), start=1):
        if entry.source != source:
            raise ValidationError(f"{path}: entry {index} source differs from {source_name}")
    return entries


class TestSharedMemo:
    """Files parsed with one memo check an edit line that any earlier entry
    held only for its annotator id and range, with the outcome of parsing
    each file alone and comparing its sources."""

    def write(self, tmp_path, sources, files):
        (tmp_path / "src.txt").write_text("".join(s + "\n" for s in sources), encoding="utf-8")
        paths = []
        for number, text in enumerate(files):
            paths.append(tmp_path / f"sys{number}.m2")
            paths[-1].write_text(text, encoding="utf-8")
        return tmp_path / "src.txt", paths

    def test_each_file_matches_a_full_parse_and_source_check(self, tmp_path):
        rng = random.Random(11)
        kinds = {"ok": 0, "error": 0}
        # Draws where an edit line recurs in entries of two source lengths,
        # and where it also ends inside the longer source only.
        recurs = past_end = 0
        for _ in range(400):
            source_lines, files = _system_files(rng)
            src, paths = self.write(tmp_path, source_lines, files)
            sources = load_sentences(src)
            memo = {}
            # Every file is parsed, even after an earlier one failed: the memo
            # holds only lines that passed, so it must stay sound for the rest.
            for path, text in zip(paths, files):
                want = _outcome(lambda t: _bf_load_matching(t, sources, path, src), text)
                got = _outcome(lambda p: load_matching_m2(p, sources, src, memo), path)
                assert got == want, text
                kinds["ok" if isinstance(want, list) else "error"] += 1
            lengths = _lengths_by_line(files)
            recurs += any(len(found) > 1 for found in lengths.values())
            past_end += any(
                min(found) < _span_end(key) <= max(found)
                for key, found in lengths.items()
            )
        assert min(kinds.values()) > 150
        assert recurs > 100 and past_end > 40

    def test_load_parallel_matches_per_file_oracle(self, tmp_path):
        rng = random.Random(12)
        for _ in range(300):
            source_lines, files = _system_files(rng)
            src, paths = self.write(tmp_path, source_lines, files)
            sources = load_sentences(src)

            def oracle(_):
                columns = []
                for path, text in zip(paths, files):
                    entries = _bf_load_matching(text, sources, path, src)
                    columns.append([
                        entry.annotations[0].edits if entry.annotations
                        else EditSet(len(entry.source))
                        for entry in entries
                    ])
                return [tuple(column[i] for column in columns) for i in range(len(sources))]

            def loaded(_):
                corpus = load_parallel(src, paths)
                assert [entry.source for entry in corpus] == sources
                return [tuple(c.edit_set for c in entry.systems) for entry in corpus]

            assert _outcome(loaded, None) == _outcome(oracle, None), files

    def test_matching_source_line_reuses_the_sentence(self, tmp_path):
        line = _line("1 2", "R:NOUN", "B")
        text = f"S a b c\n{line}\n\nS x y\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
        src, paths = self.write(tmp_path, ["a b c", "x  y"], [text, text])
        sources = load_sentences(src)
        memo = {}
        first, second = (load_matching_m2(path, sources, src, memo) for path in paths)
        assert all(entry.source is source for entry, source in zip(first, sources))
        assert second[0].annotations[0].edits.edits[0] is first[0].annotations[0].edits.edits[0]
        assert list(memo) == [line.rpartition("|||")[0]]

    @pytest.mark.parametrize("s_line", ["S a  b c", "S a\tb c", "S a b c ", "S  a b c"])
    def test_other_spacing_is_accepted_with_a_fresh_sentence_and_the_shared_memo(
        self, tmp_path, s_line
    ):
        line = _line("1 2", "R:NOUN", "B")
        src, paths = self.write(
            tmp_path, ["a b c"], [f"S a b c\n{line}\n", f"{s_line}\n{line}\n"]
        )
        sources = load_sentences(src)
        memo = {}
        first, second = (load_matching_m2(path, sources, src, memo) for path in paths)
        assert second == first
        assert second[0].source == sources[0] and second[0].source is not sources[0]
        edit = second[0].annotations[0].edits.edits[0]
        assert edit == B and edit is first[0].annotations[0].edits.edits[0]

    def test_later_short_source_checks_a_shared_line_in_full(self, tmp_path):
        line = _line("3 4", "UNK", "x")
        src, paths = self.write(
            tmp_path, ["a b c d"], [f"S a b c d\n{line}\n", f"S a b\n{_line('0 1')}\n{line}\n"]
        )
        sources = load_sentences(src)
        memo = {}
        load_matching_m2(paths[0], sources, src, memo)
        with pytest.raises(M2ParseError, match="^line 3: edit span 3 4 out of range"):
            load_matching_m2(paths[1], sources, src, memo)

    def test_later_shorter_entry_fails_a_shared_line_at_that_line(self, tmp_path):
        # Both files' entries match their sources; the line the first file's
        # longer entry held ends past the end of the second file's shorter one.
        line = _line("3 4", "UNK", "x")
        noop = _line("-1 -1", "noop", "-NONE-")
        src, paths = self.write(
            tmp_path,
            ["a b c d", "a b"],
            [f"S a b c d\n{line}\n\nS a b\n{noop}\n", f"S a b c d\n{noop}\n\nS a b\n{line}\n"],
        )
        message = "^line 5: edit span 3 4 out of range for source of 2 tokens$"
        with pytest.raises(M2ParseError, match=message):
            load_parallel(src, paths)
        memo = {}
        sources = load_sentences(src)
        load_matching_m2(paths[0], sources, src, memo)
        assert memo
        with pytest.raises(M2ParseError, match=message):
            load_matching_m2(paths[1], sources, src, memo)

    def test_a_memo_hit_needs_a_source_line_first(self):
        line = _line("1 2", "UNK", "B")
        memo = {}
        parse_m2(f"S a b c\n{line}\n", memo=memo)
        with pytest.raises(M2ParseError, match="^line 1: annotation line before any source line$"):
            parse_m2(f"{line}\n", memo=memo)

    def test_later_repeat_checks_its_own_annotator(self, tmp_path):
        line = _line("1 2", "UNK", "B")
        src, paths = self.write(
            tmp_path, ["a b c"], [f"S a b c\n{line}\n", f"S a b c\n{line[:-1]}x\n"]
        )
        sources = load_sentences(src)
        memo = {}
        load_matching_m2(paths[0], sources, src, memo)
        with pytest.raises(M2ParseError, match="^line 2: non-integer annotator id$"):
            load_matching_m2(paths[1], sources, src, memo)

    def test_entries_past_the_sources_parse_before_the_count_check(self, tmp_path):
        entry = f"S a b c\n{_line('1 2', 'UNK', 'B')}\n\n"
        src, paths = self.write(tmp_path, ["a b c"], [entry, entry + entry + "S a\nA 0 3|||x"])
        sources = load_sentences(src)
        memo = {}
        load_matching_m2(paths[0], sources, src, memo)
        with pytest.raises(M2ParseError, match="^line 8: expected 6"):
            load_matching_m2(paths[1], sources, src, memo)
        paths[1].write_text(entry + entry, encoding="utf-8")
        with pytest.raises(ValidationError, match="2 entries, but .* has 1 lines$"):
            load_matching_m2(paths[1], sources, src, memo)

    def test_memos_are_shared_only_between_two_or_more_m2_files(self, tmp_path, memo_seen):
        text = f"S a b c\n{_line('1 2', 'UNK', 'B')}\n\n"
        src, paths = self.write(tmp_path, ["a b c"], [text, text, text])
        (tmp_path / "hyp.txt").write_text("a B c\n", encoding="utf-8")
        for hyp_paths, shared in [
            ([paths[0]], False),
            ([paths[0], tmp_path / "hyp.txt"], False),
            (paths[:2], True),
            ([paths[0], tmp_path / "hyp.txt", paths[1], paths[2]], True),
            ([paths[0], paths[1], tmp_path / "hyp.txt"], True),
        ]:
            memo_seen.clear()
            entries = load_parallel(src, hyp_paths)
            assert len(memo_seen) == sum(path.suffix == ".m2" for path in hyp_paths)
            if shared:
                first = memo_seen[0]
                assert isinstance(first, dict) and all(memo is first for memo in memo_seen)
            else:
                assert memo_seen == [None]
            # The entries of each file loaded alone, with no memo.
            sources = load_sentences(src)
            columns = [m2_io.load_hypothesis_sets(path, sources, src) for path in hyp_paths]
            labels = [path.stem for path in hyp_paths]
            assert entries == tuple(
                CorpusEntry(source, tuple(map(Candidate, edit_sets, labels)))
                for source, *edit_sets in zip(sources, *columns)
            )

    def test_without_sources_every_entry_is_parsed_alone(self):
        text = f"S a b c\n{_line('1 2', 'UNK', 'B')}\n\nS a b c\n{_line('1 2', 'UNK', 'B')}\n"
        first, second = parse_m2(text)
        assert first == second and first.source is not second.source
        edit = first.annotations[0].edits.edits[0]
        assert edit is not second.annotations[0].edits.edits[0]
        first, second = parse_m2(text, memo={})
        assert second.annotations[0].edits.edits[0] is first.annotations[0].edits.edits[0]

class TestEmit:
    def test_single_edit(self):
        entry = M2Entry(tokenize("a b c"), (Annotation(0, EditSet(3, (B,))),))
        assert emit_m2([entry]) == SINGLE_EDIT_M2

    def test_empty_set_emits_noop(self):
        entry = M2Entry(tokenize("a b c"), (Annotation(0, EditSet(3)),))
        assert emit_m2([entry]) == NOOP_M2

    def test_deletion_uses_none_marker(self):
        deletion = Annotation(0, EditSet(3, (Edit(1, 2, ()),)))
        entry = M2Entry(tokenize("a b c"), (deletion,))
        assert "|||-NONE-|||REQUIRED" in emit_m2([entry])

    @pytest.mark.parametrize(
        "replacement", [("-NONE-",), ("a|||b",), ("x", "|||"), ("x|",), ("x", "y||")]
    )
    def test_refuses_replacement_m2_cannot_hold(self, replacement):
        plain = Annotation(0, EditSet(3, (B,)))
        bad = Annotation(0, EditSet(3, (Edit(1, 2, replacement),)))
        entries = [M2Entry(tokenize("a b c"), (plain,)), M2Entry(tokenize("a b c"), (bad,))]
        with pytest.raises(ValidationError, match="^entry 2: replacement .* cannot be written"):
            emit_m2(entries)

    @pytest.mark.parametrize("type_str", ["R:NOUN|||x", "|||", "R:NOUN\nA", "x\n", "R:NOUN|", 5])
    def test_refuses_type_m2_cannot_hold(self, type_str):
        plain = Annotation(0, EditSet(3, (B,)))
        bad = Annotation(0, EditSet(3, (B,)), (type_str,))
        entries = [M2Entry(tokenize("a b c"), (plain,)), M2Entry(tokenize("a b c"), (bad,))]
        with pytest.raises(ValidationError, match="^entry 2: type .* cannot be written as M2$"):
            emit_m2(entries)

    @pytest.mark.parametrize(
        "token, type_str",
        [("|x", "|R:NOUN"), ("x|y", "R|NOUN"), ("x||y", "R||NOUN"), ("x", ""), ("x", "R :NOUN")],
    )
    def test_bars_not_at_a_field_end_round_trip(self, token, type_str):
        edits = EditSet(3, (Edit(1, 2, (token,)),))
        entry = M2Entry(tokenize("a b c"), (Annotation(0, edits, (type_str,)),))
        assert parse_m2(emit_m2([entry])) == [entry]

    def test_none_marker_inside_a_longer_replacement_round_trips(self):
        edits = EditSet(3, (Edit(1, 2, ("x", "-NONE-")),))
        entry = M2Entry(tokenize("a b c"), (Annotation(0, edits),))
        assert parse_m2(emit_m2([entry])) == [entry]

    def test_round_trip_random_entries(self):
        rng = random.Random(83)
        types = ["UNK", "R:VERB", "M:DET", "U:PREP", "R:ORTH"]
        for _ in range(100):
            source = random_sentence(rng, 0, 12, vocab=9)
            annotations = []
            for annotator in sorted(rng.sample(range(4), rng.randint(0, 3))):
                edits = random_edit_set(rng, len(source))
                annotations.append(
                    Annotation(
                        annotator,
                        edits,
                        tuple(rng.choice(types) for _ in range(len(edits))),
                    )
                )
            entry = M2Entry(source, tuple(annotations))
            assert parse_m2(emit_m2([entry])) == [entry]

    def test_golden_file_byte_exact(self):
        raw = GOLDEN.read_text(encoding="utf-8")
        assert emit_m2(parse_m2(raw)) == raw


class TestAnnotationTypes:
    def test_types_default_to_unk(self):
        ann = Annotation(0, EditSet(3, (B,)))
        assert ann.types == ("UNK",)

    def test_type_count_must_match(self):
        with pytest.raises(ValidationError):
            Annotation(0, EditSet(3, (B,)), ("UNK", "UNK"))

    @pytest.mark.parametrize("annotator", [-1, 0.5, True, "0", 1.0])
    def test_annotator_id_must_be_an_int_of_at_least_0(self, annotator):
        # emit_m2 would write such an id as it prints, and parse_m2 refuse it.
        with pytest.raises(ValidationError) as info:
            Annotation(annotator, EditSet(3, (B,)))
        if annotator == -1:
            assert str(info.value) == "annotator id must be >= 0"
        else:
            assert str(info.value) == f"annotator id must be an int, got {annotator!r}"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Annotation(0, "x"), "annotation edits must be an EditSet, got 'x'"),
            (lambda: M2Entry("a b c", ()), "entry source must be a Sentence, got 'a b c'"),
            (
                lambda: M2Entry(tokenize("a b c"), (Annotation(0, EditSet(3)), "x")),
                "entry annotation must be an Annotation, got 'x'",
            ),
        ],
    )
    def test_parts_of_the_wrong_type_are_refused(self, build, message):
        # Each of these once built and failed later with a bare AttributeError.
        with pytest.raises(ValidationError) as info:
            build()
        assert str(info.value) == message

    def test_duplicate_annotators_rejected(self):
        with pytest.raises(ValidationError):
            M2Entry(
                tokenize("a b c"),
                (Annotation(0, EditSet(3)), Annotation(0, EditSet(3))),
            )

    def test_source_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            M2Entry(tokenize("a b"), (Annotation(0, EditSet(3, (B,))),))

    @pytest.mark.parametrize(
        "ids, message",
        [
            ((1, 0), "annotator ids must ascend: 0 after 1"),
            ((0, 0), "duplicate annotator id 0"),
            ((0, 2, 1), "annotator ids must ascend: 1 after 2"),
            ((0, 1, 0), "annotator ids must ascend: 0 after 1"),
            ((2, 2, 0), "duplicate annotator id 2"),
        ],
    )
    def test_annotator_ids_must_strictly_ascend(self, ids, message):
        # primary_edit_set takes the first annotation for the lowest id, and
        # emit_m2 writes them in the order held, so an entry out of id order
        # would not read back as itself.
        annotations = tuple(Annotation(i, EditSet(3, (B,)) if i else EditSet(3)) for i in ids)
        with pytest.raises(ValidationError) as info:
            M2Entry(tokenize("a b c"), annotations)
        assert str(info.value) == message

    def test_ascending_ids_with_gaps_round_trip(self):
        annotations = (Annotation(0, EditSet(3)), Annotation(2, EditSet(3, (B,))))
        entry = M2Entry(tokenize("a b c"), iter(annotations))
        assert entry.annotations == annotations and primary_edit_set(entry) == EditSet(3)
        assert parse_m2(emit_m2([entry])) == [entry]


class TestLoadParallel:
    def write(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        return path

    def test_pairs_lines(self, tmp_path):
        src = self.write(tmp_path, "src.txt", ["a b c", "x y", "p"])
        hyp = self.write(tmp_path, "hyp.txt", ["a B c", "x y", "p q"])
        corpus = load_parallel(src, [hyp])
        assert len(corpus) == 3
        assert corpus[0].systems[0].edit_set == EditSet(3, (B,))
        assert corpus[1].systems[0].edit_set == EditSet(2)

    def test_n_files_give_n_candidates_per_sentence(self, tmp_path):
        src = self.write(tmp_path, "src.txt", ["a b c", "x y"])
        hyps = [
            self.write(tmp_path, f"hyp{i}.txt", ["a B c", "x y"]) for i in range(4)
        ]
        corpus = load_parallel(src, hyps)
        assert all(len(entry.systems) == 4 for entry in corpus)

    def test_length_mismatch(self, tmp_path):
        src = self.write(tmp_path, "src.txt", ["a b c", "x y", "p"])
        hyp = self.write(tmp_path, "hyp.txt", ["a B c", "x y"])
        with pytest.raises(ValidationError, match="lines"):
            load_parallel(src, [hyp])

    def test_labels_from_stems_deduplicated(self, tmp_path):
        src = self.write(tmp_path, "src.txt", ["a b c"])
        hyp_a = self.write(tmp_path, "hyp.txt", ["a B c"])
        sub = tmp_path / "other"
        sub.mkdir()
        hyp_b = self.write(sub, "hyp.txt", ["a b c d"])
        corpus = load_parallel(src, [hyp_a, hyp_b])
        labels = [c.label for c in corpus[0].systems]
        assert labels == ["hyp", "hyp.2"]

    def test_labels_never_equal_combiner_candidate_labels(self, tmp_path):
        # The labels the combiner gives its own candidates, read off its
        # selection set over 1 to 5 systems, so that a change of format in
        # either module alone fails here.
        config = CombineConfig("greedy", reward_set="base+votes")
        combiner = []
        for n in range(1, 6):
            systems = [Candidate(EditSet(3), f"sys{i}") for i in range(n)]
            for candidate in combine_sentence(systems, config).selection[n:]:
                if candidate.label not in combiner:
                    combiner.append(candidate.label)
        assert len(combiner) == 6  # a vote candidate per threshold 1..5, and greedy
        src = self.write(tmp_path, "src.txt", ["a b c"])
        others = ["vote-x", *(f"sys{i}" for i in range(8))]
        hyps = [self.write(tmp_path, f"{name}.txt", ["a B c"]) for name in combiner + others]
        corpus = load_parallel(src, hyps)
        labels = [c.label for c in corpus[0].systems]
        assert labels == [f"{name}.2" for name in combiner] + others

    def test_m2_hypothesis_column(self, tmp_path):
        src = self.write(tmp_path, "src.txt", ["a b c"])
        m2 = tmp_path / "hyp.m2"
        m2.write_text(SINGLE_EDIT_M2, encoding="utf-8")
        corpus = load_parallel(src, [m2])
        assert corpus[0].systems[0].edit_set == EditSet(3, (B,))

    def test_m2_source_mismatch(self, tmp_path):
        src = self.write(tmp_path, "src.txt", ["z z z"])
        m2 = tmp_path / "hyp.m2"
        m2.write_text(SINGLE_EDIT_M2, encoding="utf-8")
        with pytest.raises(ValidationError, match="source differs"):
            load_parallel(src, [m2])

    def test_empty_lines_allowed(self, tmp_path):
        src = self.write(tmp_path, "src.txt", ["", "a"])
        hyp = self.write(tmp_path, "hyp.txt", ["x", "a"])
        corpus = load_parallel(src, [hyp])
        assert corpus[0].source == Sentence()
        assert corpus[0].systems[0].edit_set == EditSet(0, (Edit(0, 0, ("x",)),))

    def test_load_sentences_crlf(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a b\r\nc d\r\n")
        assert load_sentences(path) == [tokenize("a b"), tokenize("c d")]

    def test_load_sentences_splits_on_newline_only(self, tmp_path):
        path = tmp_path / "separators.txt"
        path.write_text("a\u2028b\x85c\rd\r\ne\x0cf\n\n", encoding="utf-8")
        assert load_sentences(path) == [tokenize("a b c d"), tokenize("e f"), tokenize("")]


# Line ends, other Unicode line breaks and a byte-order mark, between tokens.
LINE_CHARS = ["a", "b", " ", "\n", "\r", "\u2028", "\x85", "\ufeff"]


def _shared_tokens(sentences) -> bool:
    """Whether every token of ``sentences`` is the first object seen with its value."""
    first: dict[str, str] = {}
    return all(first.setdefault(token, token) is token for tokens in sentences for token in tokens)


class TestLineReaders:
    """The lazy splitter and the token-sharing readers against the list-based oracles."""

    @given(st.text(alphabet=LINE_CHARS, max_size=40), st.sampled_from([0, 1, 2, 5, 1 << 14]))
    @settings(max_examples=400, deadline=None)
    def test_splitter_matches_oracle_at_any_block_size(self, text, block):
        with mock.patch.object(m2_io, "_BLOCK", block):
            assert list(m2_io._lines(text)) == bf_lines(text)

    def test_splitter_matches_oracle_across_many_blocks(self):
        rng = random.Random(11)
        text = "".join(rng.choice(LINE_CHARS + ["a b c"] * 4) for _ in range(200_000))
        assert list(m2_io._lines(text)) == bf_lines(text)

    def test_load_sentences_matches_tokenize_and_shares_tokens(self, tmp_path):
        rng = random.Random(12)
        path = tmp_path / "corpus.txt"
        for _ in range(300):
            text = "".join(rng.choice(LINE_CHARS + ["aa", "ab "]) for _ in range(rng.randint(0, 60)))
            path.write_bytes(text.encode("utf-8"))
            sentences = load_sentences(path)
            assert sentences == [tokenize(line) for line in bf_lines(text.removeprefix("\ufeff"))]
            assert _shared_tokens(sentences)

    def test_parse_m2_matches_oracle_and_shares_tokens(self):
        rng = random.Random(13)
        parsed = 0
        for _ in range(2000):
            # Two-letter replacements: one-letter strings are shared anyway.
            text = _random_m2(rng).replace("|||x", "|||xx")
            want = _outcome(bf_parse_m2, text)
            assert _outcome(parse_m2, text) == want, text
            if isinstance(want, list):
                entries = parse_m2(text)
                annotations = [a for entry in entries for a in entry.annotations]
                tokens = [entry.source.tokens for entry in entries] + [
                    edit.replacement for annotation in annotations for edit in annotation.edits
                ]
                assert _shared_tokens(tokens)
                # Equal type fields of the call are one object too.
                assert _shared_tokens([annotation.types for annotation in annotations])
                parsed += 1
        assert parsed > 500
