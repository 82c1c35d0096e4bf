"""Token-level edits: extraction by alignment, application, and set algebra.

A sentence is a whitespace-free token sequence.  An edit replaces the source
span [start, end) with a replacement token sequence; an edit set is a
canonical, conflict-free collection of edits describing one full correction
of a sentence.  One conflict-resolution pass (``vote_sets``) yields the vote
set at every threshold; ``vote_set`` and ``intersect`` are views of it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter


class ValidationError(ValueError):
    """A sentence, edit, or edit set violates its structural contract."""


def _check_token(token: str) -> None:
    if not token:
        raise ValidationError("tokens must be non-empty")
    if any(ch.isspace() for ch in token):
        raise ValidationError(f"token contains whitespace: {token!r}")


def _check_tokens(tokens: tuple[str, ...]) -> None:
    """Raise ``ValidationError`` naming the first empty or whitespace token.

    ``str.split()`` splits on exactly the characters ``str.isspace()`` accepts,
    so re-splitting the joined tokens gives them back unchanged precisely when
    every token is non-empty and whitespace-free.  Only when it does not (or a
    token is not a ``str``) are the tokens scanned one by one for the error.
    """
    try:
        if tuple(" ".join(tokens).split()) == tokens:
            return
    except TypeError:
        pass
    for token in tokens:
        _check_token(token)


@dataclass(frozen=True, slots=True)
class Sentence:
    """An immutable sequence of whitespace-free tokens."""

    tokens: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        _check_tokens(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)

    def __getitem__(self, index):
        return self.tokens[index]

    def text(self) -> str:
        return " ".join(self.tokens)


def tokenize(text: str) -> Sentence:
    """Split a raw line on runs of whitespace; an empty line gives an empty sentence."""
    return Sentence(tuple(text.split()))


class Edit(tuple):
    """Replace source tokens [start, end) with ``replacement``.

    ``start == end`` is a pure insertion before token ``start``; an empty
    replacement over a non-empty span is a deletion.  An edit is the tuple
    ``(start, end, replacement)``: hashing, equality and ordering are the
    tuple's own, so edits sort by span, then replacement.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, replacement: Iterable[str] = ()) -> Edit:
        replacement = tuple(replacement)
        if start < 0 or end < start:
            raise ValidationError(f"bad edit span [{start}, {end})")
        if start == end and not replacement:
            raise ValidationError("zero-width edit with empty replacement is a no-op")
        _check_tokens(replacement)
        return tuple.__new__(cls, (start, end, replacement))

    start = property(itemgetter(0))
    end = property(itemgetter(1))
    replacement = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"Edit(start={self[0]!r}, end={self[1]!r}, replacement={self[2]!r})"

    def __getnewargs__(self) -> tuple:
        return tuple(self)


def _mask(edit: Edit) -> int:
    """The source positions an edit occupies, as bits of an int.

    Bit ``2i + 1`` stands for token ``i`` and bit ``2i`` for the gap before
    it: a span ``[s, e)`` with ``s < e`` sets bits ``2s+1 .. 2e-1`` (its
    tokens and the gaps strictly inside it), an insertion at ``p`` sets bit
    ``2p``.  Two distinct edits conflict exactly when their masks intersect.
    """
    start, end, _ = edit
    if start == end:
        return 1 << (2 * start)
    return (1 << (2 * end)) - (1 << (2 * start + 1))


def conflicts(first: Edit, second: Edit) -> bool:
    """Whether two distinct edits cannot coexist in one edit set.

    Distinct edits conflict when their half-open spans intersect (which also
    covers an insertion point strictly inside the other's span) or when both
    are insertions at the same position.  Edits that merely touch at a span
    boundary are compatible.
    """
    return first != second and bool(_mask(first) & _mask(second))


@dataclass(frozen=True, slots=True)
class EditSet:
    """Canonical, conflict-free edit collection for a source of ``source_len`` tokens."""

    source_len: int
    edits: tuple[Edit, ...] = ()

    def __post_init__(self) -> None:
        if self.source_len < 0:
            raise ValidationError("source_len must be >= 0")
        object.__setattr__(self, "edits", tuple(sorted(set(self.edits))))
        occupied = 0
        clash = None
        for edit in self.edits:
            if edit.end > self.source_len:
                raise ValidationError(
                    f"edit {edit!r} exceeds source length {self.source_len}"
                )
            mask = _mask(edit)
            if occupied & mask and clash is None:
                clash = edit
            occupied |= mask
        if clash is not None:
            # The earliest edit that clashes with the first clashing one.
            partner = next(e for e in self.edits if conflicts(e, clash))
            raise ValidationError(f"conflicting edits: {partner!r} vs {clash!r}")

    def __len__(self) -> int:
        return len(self.edits)

    def __iter__(self) -> Iterator[Edit]:
        return iter(self.edits)

    def __contains__(self, edit: Edit) -> bool:
        return edit in self.edits


def check_source_len(source_len: int, edit_set: EditSet) -> None:
    """Raise ``ValidationError`` unless ``edit_set`` was built for ``source_len`` tokens."""
    if edit_set.source_len != source_len:
        raise ValidationError(
            f"edit sets disagree on source length: {source_len} vs {edit_set.source_len}"
        )


@dataclass(frozen=True, slots=True)
class Candidate:
    """An edit set plus a provenance label (system name, vote-m, greedy)."""

    edit_set: EditSet
    label: str

    def __post_init__(self) -> None:
        if not self.label:
            raise ValidationError("candidate label must be non-empty")


def apply_edits(source: Sentence, edits: EditSet) -> Sentence:
    """Apply an edit set to its source sentence.

    Unedited spans and replacements are concatenated left to right.  The edit
    set must have been built for a source of this length; internal validity
    (ordering, no conflicts, spans in range) is guaranteed by ``EditSet``.
    """
    if edits.source_len != len(source):
        raise ValidationError(
            f"edit set built for {edits.source_len} tokens, source has {len(source)}"
        )
    out: list[str] = []
    cursor = 0
    for start, end, replacement in edits:
        out.extend(source.tokens[cursor:start])
        out.extend(replacement)
        cursor = end
    out.extend(source.tokens[cursor:])
    return Sentence(tuple(out))


def extract_edits(source: Sentence, hypothesis: Sentence) -> EditSet:
    """Extract the edit set that turns ``source`` into ``hypothesis``.

    Token-level Levenshtein alignment with unit insert/delete/substitute
    costs; backtrace ties resolve match > substitute > delete > insert, so
    extraction is canonical.  Each maximal run of adjacent non-match steps
    becomes one edit, read off the backtrace as the run closes: no list of
    operations is built.

    The distances are Myers' bit-parallel edit distance (Myers 1999, JACM)
    in Hyyrö's column formulation, on Python ints: bit ``i - 1`` of a column
    vector stands for row ``i`` (source token ``i``) of the table
    ``D[i][j]`` with ``D[i][0] = i`` and ``D[0][j] = j``.  Per hypothesis
    column it keeps ``vp`` (``D[i][j] - D[i-1][j] == +1``) and ``d0``
    (``D[i][j] == D[i-1][j-1]``); every value of the table is exact, so the
    backtrace from ``D[n][m]`` takes the same steps as a full table would,
    reading one bit per step.

    A common suffix is stripped first: where the last tokens match,
    ``D[n][m] == D[n-1][m-1]`` and the backtrace takes the match anyway.  A
    common prefix is not, because there the backtrace may not take it
    (``a`` -> ``a a`` inserts at 0).
    """
    src, hyp = source.tokens, hypothesis.tokens
    n, m = len(src), len(hyp)
    while n and m and src[n - 1] == hyp[m - 1]:
        n -= 1
        m -= 1
    peq: dict[str, int] = {}
    bit = 1
    for token in src[:n]:
        peq[token] = peq.get(token, 0) | bit
        bit <<= 1
    mask = bit - 1
    vp, vn = mask, 0
    vps, d0s = [vp], [0]
    for token in hyp[:m]:
        x = peq.get(token, 0) | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & mask
        hp = vn | (mask ^ (d0 | vp))
        hn = vp & d0
        # Shift the horizontal deltas down one row; row 0 steps by +1.
        hp = ((hp << 1) | 1) & mask
        hn = (hn << 1) & mask
        vp = hn | (mask ^ (d0 | hp))
        vn = hp & d0
        vps.append(vp)
        d0s.append(d0)
    edits: list[Edit] = []
    run_end: tuple[int, int] | None = None  # (i, j) where the open run began
    i, j = n, m
    while i and j:
        # Neighbouring cells differ by at most 1, so a match is always on an
        # optimal path; an insertion is what is left when no other step is.
        if src[i - 1] == hyp[j - 1]:
            if run_end is not None:
                edits.append(Edit(i, run_end[0], hyp[j : run_end[1]]))
                run_end = None
            i -= 1
            j -= 1
            continue
        if run_end is None:
            run_end = (i, j)
        row = 1 << (i - 1)
        if not d0s[j] & row:  # substitute
            i -= 1
            j -= 1
        elif vps[j] & row:  # delete
            i -= 1
        else:  # insert
            j -= 1
    # The rest of the path runs down column 0 (deletions) or along row 0
    # (insertions), and joins the open run.
    end_i, end_j = run_end or (i, j)
    if end_i or end_j:
        edits.append(Edit(0, end_i, hyp[:end_j]))
    return EditSet(len(source), tuple(edits))


def intersect(sets: Sequence[EditSet]) -> EditSet:
    """Edits present in every set: the vote set at threshold N (see ``vote_sets``)."""
    return vote_sets(sets)[-1]


def vote_sets(sets: Sequence[EditSet]) -> list[EditSet]:
    """Conflict-resolved vote sets for every threshold m = 1..N, from one pass.

    Conflicts are resolved greedily over the union: higher vote count wins,
    ties go to the edit first proposed by the earliest system in ``sets``,
    then to span position.  Edits with at least m votes form a prefix of that
    order, so each threshold's set is the resolved union restricted to them.
    An edit every set holds has N votes, and all such edits lie in the
    conflict-free ``sets[0]``, so none is dropped: the set at m = N is the
    plain intersection.
    """
    if not sets:
        raise ValueError("need at least one edit set")
    lengths = {s.source_len for s in sets}
    if len(lengths) > 1:
        raise ValidationError(f"edit sets disagree on source length: {sorted(lengths)}")
    votes: dict[Edit, int] = {}
    for edit_set in sets:
        for edit in edit_set:
            votes[edit] = votes.get(edit, 0) + 1
    # The sort is stable, so edits with equal votes keep insertion order: the
    # position of their first proposer, then span order within its edit set.
    kept: list[Edit] = []
    occupied = 0
    for edit in sorted(votes, key=votes.__getitem__, reverse=True):
        mask = _mask(edit)
        if not occupied & mask:
            kept.append(edit)
            occupied |= mask
    # ``kept`` is in vote order, so each threshold's edits are a prefix of it;
    # a threshold that adds no edit reuses the set above it.
    by_threshold: list[EditSet] = []
    edit_set, size = None, 0
    for m in range(len(sets), 0, -1):
        grown = size
        while grown < len(kept) and votes[kept[grown]] >= m:
            grown += 1
        if edit_set is None or grown > size:
            edit_set, size = EditSet(sets[0].source_len, tuple(kept[:grown])), grown
        by_threshold.append(edit_set)
    by_threshold.reverse()
    return by_threshold


def vote_set(sets: Sequence[EditSet], min_votes: int) -> EditSet:
    """Conflict-resolved set of edits proposed by at least ``min_votes`` sets
    (see ``vote_sets``); empty when ``min_votes`` exceeds the number of sets."""
    if min_votes < 1:
        raise ValueError("min_votes must be >= 1")
    by_threshold = vote_sets(sets)
    return by_threshold[min_votes - 1] if min_votes <= len(sets) else EditSet(sets[0].source_len)
