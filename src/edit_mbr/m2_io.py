"""M2 annotation format and plain-text corpus I/O.

The M2 format is line oriented:

    S <tokenized source sentence>
    A <start> <end>|||<type>|||<replacement>|||REQUIRED|||-NONE-|||<annotator>

An ``A -1 -1|||noop|||...`` line records an annotator proposing no edits, and
a blank line terminates each entry.  Replacements are space-tokenized;
``-NONE-`` (or an empty field) means an empty replacement.  Parsing is
tolerant of CRLF line endings and non-canonical flag fields; emission is
canonical (LF, ``REQUIRED``/``-NONE-`` flags, annotators ascending, edits in
span order, ``UNK`` for untyped edits), so parse(emit(x)) == x and canonical
files re-emit byte-identically.  A replacement or type that M2 cannot hold
is refused on emission: one containing ``|||`` or a line break, one ending in
``|`` (which would join the separator after it), or the lone replacement
token ``-NONE-``.  The span and annotator id hold ASCII digits after at most
one ``-``: other forms ``int`` takes (``+1``, ``1_0``, non-ASCII digits) are
refused.

Plain-text corpora hold one tokenized sentence per line, UTF-8.  Both formats
drop one leading byte-order mark (U+FEFF) from a file, so a file saved with a
BOM reads like the same file without one.  They split lines on ``\n`` only,
dropping one trailing ``\r``; other line breaks (U+2028, U+0085, ``\v``,
``\f``, a lone ``\r``, ...) are whitespace to ``str.split``, so inside a line
they only separate tokens.

Both readers split the text a block of lines at a time, never into a list
of every line, and give equal tokens of one file (or of one ``parse_m2``
call) one shared ``str`` object, so a corpus costs one object per distinct
word, not one per token.  Sentences are built unchecked (``Sentence._of``):
``str.split`` yields only valid tokens.  ``parse_m2`` runs the checks of an
``A`` line's edit itself (field syntax, span range, no no-op) and builds it
unchecked (``Edit._of``); each annotator's edits are still checked by
``EditSet``, the conflict check, and its annotations and entries are built
unchecked (``Annotation._of``, ``M2Entry._of``).
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from pathlib import Path

from .edit_core import (
    Candidate,
    Checked,
    CorpusEntry,
    Edit,
    EditSet,
    Sentence,
    ValidationError,
    check_int,
    check_source_len,
    extract_batch,
    extract_edits,  # traced by perfbench/child.py
)

_NOOP_TYPE = "noop"
_EMPTY_REPLACEMENT = "-NONE-"
_BLOCK = 1 << 14  # characters ``_lines`` splits at once
# An M2 integer field: ASCII digits after one optional '-', not all ``int`` takes.
_INTEGER = re.compile(r"-?[0-9]+")
# Labels the combiner gives its own candidates; a system file may not take one.
_COMBINER_LABEL = re.compile(r"greedy|vote-[0-9]+")


class M2ParseError(ValidationError):
    """An M2 file is malformed or fails edit-set validation."""


class Annotation(Checked, namedtuple("Annotation", "annotator edits types")):
    """One annotator's edit set; ``types`` carries per-edit type strings.

    Omitting ``types`` fills in ``UNK`` for every edit; one ``str`` is refused,
    not split into characters.
    """

    __slots__ = ()

    def __new__(cls, annotator: int, edits: EditSet, types: Iterable[str] = ()) -> Annotation:
        check_int(annotator, "annotator id", 0)
        if not isinstance(edits, EditSet):
            raise ValidationError(f"annotation edits must be an EditSet, got {edits!r}")
        if isinstance(types, str):
            raise ValidationError(f"types is a str, not a sequence of type strings: {types!r}")
        types = ("UNK",) * len(edits) if not types and edits.edits else tuple(types)
        if len(types) != len(edits):
            raise ValidationError(
                f"annotator {annotator}: {len(types)} type strings for {len(edits)} edits"
            )
        return tuple.__new__(cls, (annotator, edits, types))

    @classmethod
    def _of(cls, annotator: int, edits: EditSet, types: tuple[str, ...]) -> Annotation:
        """Unchecked: ``annotator`` an ``int`` >= 0 and ``types`` a tuple of
        one ``str`` per edit of ``edits``."""
        return tuple.__new__(cls, (annotator, edits, types))


class M2Entry(Checked, namedtuple("M2Entry", "source annotations")):
    """A source sentence plus per-annotator edit sets, in strictly ascending
    annotator id order."""

    __slots__ = ()

    def __new__(cls, source: Sentence, annotations: Iterable[Annotation] = ()) -> M2Entry:
        if not isinstance(source, Sentence):
            raise ValidationError(f"entry source must be a Sentence, got {source!r}")
        annotations = tuple(annotations)
        previous = -1
        for ann in annotations:
            if not isinstance(ann, Annotation):
                raise ValidationError(f"entry annotation must be an Annotation, got {ann!r}")
            if ann.annotator == previous:
                raise ValidationError(f"duplicate annotator id {ann.annotator}")
            if ann.annotator < previous:
                raise ValidationError(f"annotator ids must ascend: {ann.annotator} after {previous}")
            previous = ann.annotator
            check_source_len(len(source), ann.edits)
        return tuple.__new__(cls, (source, annotations))

    @classmethod
    def _of(cls, source: Sentence, annotations: tuple[Annotation, ...]) -> M2Entry:
        """Unchecked: ``annotations`` a tuple of ``Annotation``s in strictly
        ascending annotator order, each built for ``len(source)`` tokens."""
        return tuple.__new__(cls, (source, annotations))


def primary_edit_set(entry: M2Entry) -> EditSet:
    """The lowest-id annotator's edits; empty when the entry has none."""
    if entry.annotations:
        return entry.annotations[0].edits
    return EditSet(len(entry.source))


def _lines(text: str) -> Iterator[str]:
    """Yield the lines of ``text``: split on ``\n`` only, drop one trailing
    ``\r`` per line, and drop a final empty piece (a final ``\n`` ends the
    last line; it does not start an empty one).

    The text is split one block of about ``_BLOCK`` characters, cut after a
    ``\n``, at a time: only that block's lines exist at once, never a list of
    every line of the file, and each is split at the speed of ``str.split``.
    """
    cr = repeat("\r")
    start = 0
    end = text.find("\n", _BLOCK)
    while end >= 0:
        yield from map(str.removesuffix, text[start:end].split("\n"), cr)
        start = end + 1
        end = text.find("\n", start + _BLOCK)
    tail = list(map(str.removesuffix, text[start:].split("\n"), cr))
    if not tail[-1]:
        tail.pop()
    yield from tail


def _integers(texts: list[str], line_no: int, what: str) -> list[int]:
    """The integers ``texts`` hold; ``M2ParseError`` naming ``what`` unless
    each matches ``_INTEGER`` and has no more digits than ``int`` converts."""
    if all(map(_INTEGER.fullmatch, texts)):
        try:
            return list(map(int, texts))
        except ValueError:  # more digits than ``sys.get_int_max_str_digits()``
            pass
    raise M2ParseError(f"line {line_no}: non-integer {what}")


def _annotator_id(field: str, line_no: int) -> int:
    """The annotator id an ``A`` line's last field holds: an integer >= 0."""
    [annotator] = _integers([field.strip()], line_no, "annotator id")
    if annotator < 0:
        raise M2ParseError(f"line {line_no}: negative annotator id {annotator}")
    return annotator


def _span(field: str, line_no: int) -> tuple[int, int]:
    """The start and end an ``A`` line's first field holds: two integers."""
    span = field.split()
    if len(span) != 2:
        raise M2ParseError(f"line {line_no}: edit span must be two integers")
    return tuple(_integers(span, line_no, "edit span"))


def parse_m2(
    text: str,
    sources: Sequence[Sentence] | None = None,
    memo: dict | None = None,
) -> list[M2Entry]:
    """Parse M2 file content into entries.

    Raises ``M2ParseError`` (with a line number) for malformed lines,
    out-of-range edit spans, or overlapping edits within one annotator.

    The checks of an edit line are run here, once each: six fields, a span
    of two integers and an annotator id of at least 0 (``_span``,
    ``_annotator_id``), ``0 <= start <= end <=`` the source length, and a
    replacement for a zero-width span.  The ``Edit`` that passes is built
    unchecked, its replacement being ``str.split`` tokens.  Each annotator's
    edits are then checked together by ``EditSet``, which refuses conflicts;
    annotations and entries are built unchecked from what passed.

    Each distinct annotation line is validated in full once: a line whose
    text before its last ``|||`` (everything but the annotator id) repeats
    an earlier valid edit line checks only its own annotator field and that
    the shared ``Edit``'s end is within its own entry's source (its stored
    ``0 <= start <= end`` holds already), and shares that ``Edit``.  Every
    other check of an edit line is independent of the entry, so errors,
    their line numbers and the entries returned are those of checking every
    line in full.  ``memo`` is the dict of valid edit lines (text before the
    last ``|||`` -> (edit, type)): when given, it serves every entry of the
    call and is left holding the call's lines, so the M2 files of one call
    that are handed one dict check a line an earlier file held only for its
    annotator id and range.  ``None`` gives each entry a memo of its own.

    ``sources`` are the sentences the entries are expected to hold, as read
    by the caller.  When ``sources[k]`` is a ``Sentence`` and the text of
    entry k's ``S`` line equals ``sources[k].text()``, the entry reuses that
    ``Sentence``; any other ``S`` line (another source, other spacing, an
    entry past the end of ``sources``) builds a fresh one.  Whether the
    sources match is the caller's check: the entries returned equal those of
    ``parse_m2(text)``.

    The text is split a block of lines at a time (see ``_lines``).  Equal
    tokens of the call's fresh ``S`` lines and replacements, and equal type
    fields, share one ``str`` object.  The call keeps tables from the text
    of an ``A`` line's annotator-id, span and replacement fields to their
    parsed values.  A field enters its table only once it has passed its
    checks, so a bad field fails at its own line with its own message, and
    a line whose fields are all in the tables is checked without ``int``.
    A run of ``A`` lines with one annotator field text looks up its id and
    its edits once; the run ends at a line with another field text, and at
    every ``S`` and blank line.
    """
    entries: list[M2Entry] = []
    source: Sentence | None = None
    source_len = 0
    # Per annotator, each distinct edit with the type of its first line.
    pending: dict[int, dict[Edit, str]] = {}
    sources = sources or ()
    entry_line = 0
    # One object per distinct token of this text (see ``load_sentences``).
    words: dict[str, str] = {}
    word = words.setdefault
    # The call's annotator-id, span and replacement fields, by their text, as
    # parsed; a field is stored only once it has passed its own checks.
    annotators: dict[str, int] = {}
    spans: dict[str, tuple[int, int]] = {}
    replacements: dict[str, tuple[str, ...]] = {_EMPTY_REPLACEMENT: (), "": ()}
    # The annotator field of the current run of ``A`` lines, and its dict in
    # ``pending``; ``None`` after each ``S`` and blank line.
    run_field = edits = None

    def close() -> None:
        nonlocal source, pending, run_field
        if source is None:
            return
        annotations = []
        for annotator in sorted(pending):
            first_type = pending[annotator]
            try:
                # The conflict check, the one check of an entry's lines together.
                edit_set = EditSet(source_len, tuple(first_type))
            except ValidationError as exc:
                raise M2ParseError(
                    f"entry at line {entry_line}, annotator {annotator}: {exc}"
                ) from exc
            types = tuple(map(first_type.__getitem__, edit_set.edits))
            # ``annotator`` passed ``_annotator_id``; one type str per edit.
            annotations.append(Annotation._of(annotator, edit_set, types))
        # ``source`` is a ``Sentence``, ``sorted`` ids of one dict ascend
        # strictly, and every edit set was built for ``source_len``.
        entries.append(M2Entry._of(source, tuple(annotations)))
        source = run_field = None
        pending = {}

    for line_no, line in enumerate(_lines(text), start=1):
        if line.startswith("A "):
            if source is None:
                raise M2ParseError(f"line {line_no}: annotation line before any source line")
            # A line that passed every check has an integer, so '|'-free,
            # sixth field: its last '|||' is its fifth separator, and a later
            # line with the same key splits into the same first five fields.
            key, _, annotator_field = line.rpartition("|||")
            hit = parsed.get(key)
            if hit is None:
                fields = line[2:].split("|||")
                if len(fields) != 6:
                    raise M2ParseError(
                        f"line {line_no}: expected 6 '|||'-separated fields, got {len(fields)}"
                    )
                span = spans.get(fields[0])
                if span is None:
                    span = spans[fields[0]] = _span(fields[0], line_no)
                annotator_field = fields[5]
            if annotator_field != run_field:
                annotator = annotators.get(annotator_field)
                if annotator is None:
                    annotator = annotators[annotator_field] = _annotator_id(annotator_field, line_no)
                edits = pending.setdefault(annotator, {})
                run_field = annotator_field
            if hit is not None:
                # The one check of a valid line that depends on its entry: a
                # stored edit has ``0 <= start <= end``, so only its end is
                # checked here, and one past the source fails the range check.
                if hit[0][1] <= source_len:
                    edits.setdefault(*hit)
                    continue
                start, end, _ = hit[0]
            else:
                start, end = span
                if start == -1 and end == -1:
                    continue
            if not 0 <= start <= end <= source_len:
                raise M2ParseError(
                    f"line {line_no}: edit span {start} {end} out of range for "
                    f"source of {source_len} tokens"
                )
            replacement = replacements.get(fields[2])
            if replacement is None:
                tokens = fields[2].split()
                replacement = replacements[fields[2]] = tuple(map(word, tokens, tokens))
            if start == end and not replacement:
                raise M2ParseError(
                    f"line {line_no}: zero-width edit with empty replacement is a no-op"
                )
            # The span is in range and not a no-op, and ``split`` tokens are valid.
            hit = parsed[key] = Edit._of(start, end, replacement), word(fields[1], fields[1])
            edits.setdefault(*hit)
        elif not line.strip():
            close()
        elif line == "S" or line.startswith("S "):
            close()
            known = sources[len(entries)] if len(entries) < len(sources) else None
            if isinstance(known, Sentence) and line[2:] == known.text():
                source = known
            else:
                tokens = line[2:].split()
                # ``str.split`` tokens, or equal ones interned from it.
                source = Sentence._of(map(word, tokens, tokens))
            source_len = len(source)
            entry_line = line_no
            # Valid edit lines: text before the last '|||' -> (edit, type).
            parsed = {} if memo is None else memo
        else:
            raise M2ParseError(f"line {line_no}: unrecognized line {line[:40]!r}")
    close()
    return entries


def _unwritable(text: str) -> bool:
    """Whether ``text`` would not read back unchanged as a field of an ``A`` line."""
    return "\n" in text or "|||" in text or text.endswith("|")


def emit_m2(entries: Sequence[M2Entry]) -> str:
    """Serialize entries to canonical M2 text (inverse of ``parse_m2``)."""
    blocks: list[str] = []
    for number, entry in enumerate(entries, start=1):
        lines = ["S " + entry.source.text() if len(entry.source) else "S"]
        for ann in entry.annotations:
            if not ann.edits.edits:
                lines.append(
                    f"A -1 -1|||{_NOOP_TYPE}|||{_EMPTY_REPLACEMENT}|||REQUIRED|||-NONE-|||{ann.annotator}"
                )
                continue
            for edit, type_str in zip(ann.edits, ann.types):
                replacement = " ".join(edit.replacement) if edit.replacement else _EMPTY_REPLACEMENT
                if _unwritable(replacement) or edit.replacement == (_EMPTY_REPLACEMENT,):
                    raise ValidationError(
                        f"entry {number}: replacement {replacement!r} cannot be written as M2"
                    )
                if not isinstance(type_str, str) or _unwritable(type_str):
                    raise ValidationError(f"entry {number}: type {type_str!r} cannot be written as M2")
                lines.append(
                    f"A {edit.start} {edit.end}|||{type_str}|||{replacement}"
                    f"|||REQUIRED|||-NONE-|||{ann.annotator}"
                )
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


def _read_text(path) -> str:
    """The UTF-8 content of ``path`` without one leading byte-order mark, with
    no newline translation."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_sentences(path) -> list[Sentence]:
    """Read a one-sentence-per-line UTF-8 corpus, a block of lines at a time.

    Each line is split on whitespace as ``tokenize`` splits it, and the
    sentences equal ``tokenize``'s.  Equal tokens of one file are one ``str``
    object: a corpus repeats a few thousand distinct words tens of thousands
    of times, and one object per occurrence would cost more than the text.
    """
    words: dict[str, str] = {}
    word = words.setdefault
    # ``str.split`` tokens, or equal ones interned from it.
    return [
        Sentence._of(map(word, tokens, tokens))
        for tokens in map(str.split, _lines(_read_text(path)))
    ]


def is_m2(path) -> bool:
    """Whether a hypothesis file is parsed as M2 (its name ends in ``.m2``)
    rather than read as text and aligned."""
    return str(path).lower().endswith(".m2")


def load_matching_m2(
    path, sources: Sequence[Sentence], source_name, memo: dict | None = None
) -> list[M2Entry]:
    """Parse an M2 file whose entries must match ``sources`` one to one.

    The file is parsed against ``sources`` with ``memo`` (see ``parse_m2``):
    an entry whose ``S`` line holds its source's text reuses that
    ``Sentence``, and a file handed the dict an earlier file of the call
    filled checks an edit line that file held only for its annotator id and
    range.  A count or source mismatch is raised after parsing, so a
    malformed line is reported first, as it would be without ``sources``.
    """
    entries = parse_m2(_read_text(path), sources, memo)
    if len(entries) != len(sources):
        raise ValidationError(
            f"{path}: {len(entries)} entries, but {source_name} has {len(sources)} lines"
        )
    for index, (entry, source) in enumerate(zip(entries, sources), start=1):
        if entry.source != source:
            raise ValidationError(f"{path}: entry {index} source differs from {source_name}")
    return entries


def load_hypothesis_sets(
    path, sources: Sequence[Sentence], source_name, memo: dict | None = None
) -> list[EditSet]:
    """One edit set per source line from a text or M2 hypothesis file.

    ``.m2`` files are parsed (their sources must match ``sources``, and
    ``memo`` is passed on to ``load_matching_m2``) and give their
    lowest-id annotator's edits; anything else is read as text, and its
    lines are aligned with their sources in one ``extract_batch`` call.
    """
    if is_m2(path):
        entries = load_matching_m2(path, sources, source_name, memo)
        return [primary_edit_set(entry) for entry in entries]
    hyps = load_sentences(path)
    if len(hyps) != len(sources):
        raise ValidationError(
            f"{path}: {len(hyps)} lines, but {source_name} has {len(sources)} lines"
        )
    return extract_batch(sources, hyps)


def _labels_for(paths) -> list[str]:
    """File stems, made unique and kept apart from the combiner's own labels."""
    labels: list[str] = []
    for path in paths:
        stem = Path(path).stem or str(path)
        label = stem
        suffix = 2
        while label in labels or _COMBINER_LABEL.fullmatch(label):
            label = f"{stem}.{suffix}"
            suffix += 1
        labels.append(label)
    return labels


def load_parallel(source_path, hyp_paths: Sequence) -> tuple[CorpusEntry, ...]:
    """Pair line i of the source file with line i of every hypothesis file,
    one ``CorpusEntry`` per source line, ready for ``combine_corpus``.

    Hypothesis edits are extracted on load; ``.m2`` hypothesis files are
    parsed instead.  Two or more of them share one memo of checked edit
    lines (see ``parse_m2``), so an edit line that several systems share is
    checked in full once.  The memo lives while the systems load, text
    systems after the last ``.m2`` file included, and is dropped before the
    entries are built.  This is the one place that shares a memo: with one
    ``.m2`` file, and in ``score`` and ``apply``, each entry keeps a memo of
    its own.
    System labels come from the file stems, deduplicated as ``stem.2``,
    ``stem.3``, ...; a stem equal to ``greedy`` or ``vote-<m>`` is
    deduplicated the same way, so every label in a ``--report`` line is
    unique.
    """
    sources = load_sentences(source_path)
    labels = _labels_for(hyp_paths)
    memo = {} if sum(map(is_m2, hyp_paths)) > 1 else None
    columns = [load_hypothesis_sets(path, sources, source_path, memo) for path in hyp_paths]
    del memo  # the text of every distinct edit line: freed before the entries are built
    return tuple(
        CorpusEntry(source, tuple(map(Candidate, edit_sets, labels)))
        for source, *edit_sets in zip(sources, *columns)
    )
