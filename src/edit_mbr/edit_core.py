"""Token-level edits: extraction by alignment, application, and set algebra.

A sentence is a tuple of whitespace-free tokens.  An edit replaces the source
span [start, end) with a replacement token sequence; an edit set is a
canonical, conflict-free collection of edits describing one full correction
of a sentence.  Edit sets are extracted many pairs at a time
(``extract_batch``): each pair's stripped source core is one lane of a
Python int, one bit-parallel column pass serves the whole batch, and each
pair is read back by its own backtrace; ``extract_edits`` is a batch of one.
A sentence's system edit sets are indexed once
(``EditIndex``): one bit per distinct edit, one mask per system.  One
conflict-resolution pass over that index (``EditIndex.resolve``) yields the
vote set and its mask at every threshold; ``vote_set`` and ``intersect`` are
views of it.

``Sentence``, ``Edit`` and ``EditSet`` each have one unchecked builder,
``_of``: a sentence's takes its tokens, a record's (``Checked._of``) the
tuple of its fields, and ``EditSet._of`` its constructor's arguments.  It is
called only where every check of that constructor holds by construction,
with a comment saying why; ``tests/test_unchecked.py`` lists every such call.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat, zip_longest


class ValidationError(ValueError):
    """A sentence, edit, edit set, or checked field violates its contract."""


class Checked:
    """The first base of a record (a ``namedtuple`` subclass) whose ``__new__``
    checks its fields.  A namedtuple's own ``_make`` calls ``tuple.__new__``,
    and its ``_replace`` calls ``_make``; this ``_make`` builds through the
    record's ``__new__``, so neither skips the checks; ``_of`` alone does."""

    __slots__ = ()

    # Unchecked: the tuple of the record's fields, as ``Sentence._of`` takes
    # its tokens; they must pass the checks of the record's ``__new__``.
    _of = classmethod(tuple.__new__)

    @classmethod
    def _make(cls, fields: Iterable):
        return cls(*fields)


def _check_tokens(tokens: tuple[str, ...]) -> None:
    """Raise ``ValidationError`` naming the first empty, non-``str`` or
    whitespace token.

    A ``str`` token holds no whitespace exactly when ``token.split()`` gives
    it back alone: ``str.split()`` splits on exactly the characters
    ``str.isspace()`` accepts.  Every hot build skips this check through
    ``_of``, so the tokens are scanned one by one.
    """
    for token in tokens:
        if not token:
            raise ValidationError("tokens must be non-empty")
        if not isinstance(token, str):
            raise ValidationError(f"token is not a str: {token!r}")
        if token.split() != [token]:
            raise ValidationError(f"token contains whitespace: {token!r}")


def _token_tuple(tokens, name: str) -> tuple[str, ...]:
    """A token sequence that is not a tuple, as one; ``ValidationError`` for a
    bare ``str`` (which would split into characters) or a non-iterable."""
    if isinstance(tokens, str):
        raise ValidationError(f"{name} is a str, not a token sequence: {tokens!r}")
    try:
        iterator = iter(tokens)
    except TypeError:
        raise ValidationError(f"{name} is not a token sequence: {tokens!r}") from None
    return tuple(iterator)


class Sentence(tuple):
    """An immutable sequence of whitespace-free tokens.

    A sentence is the tuple of its tokens, as an ``Edit`` is the tuple of its
    fields: hashing, equality and ordering are the tuple's own, and a slice
    is a plain tuple.  ``tokens`` is that plain tuple.
    """

    __slots__ = ()

    def __new__(cls, tokens: Iterable[str] = ()) -> Sentence:
        if type(tokens) is not tuple:
            tokens = _token_tuple(tokens, "tokens")
        _check_tokens(tokens)
        return tuple.__new__(cls, tokens)

    # Unchecked: ``tokens`` must be non-empty, whitespace-free ``str``s.
    _of = classmethod(tuple.__new__)

    tokens = property(tuple)

    def __repr__(self) -> str:
        return f"Sentence(tokens={tuple(self)!r})"

    def text(self) -> str:
        return " ".join(self)


def tokenize(text: str) -> Sentence:
    """Split a raw line on runs of whitespace; an empty line gives an empty
    sentence; ``ValidationError`` unless ``text`` is a ``str``."""
    if not isinstance(text, str):
        raise ValidationError(f"text to tokenize is not a str: {text!r}")
    # ``str.split()`` yields only non-empty, whitespace-free ``str``s.
    return Sentence._of(str.split(text))


class Edit(Checked, namedtuple("Edit", "start end replacement")):
    """Replace source tokens [start, end) with ``replacement``.

    ``start == end`` is a pure insertion before token ``start``; an empty
    replacement over a non-empty span is a deletion.  An edit is the tuple
    ``(start, end, replacement)``: hashing, equality and ordering are the
    tuple's own, so edits sort by span, then replacement.  Positions must be
    ``int`` (a ``bool`` is refused) and the replacement an iterable of
    tokens, not one ``str``.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, replacement: Iterable[str] = ()) -> Edit:
        if type(replacement) is not tuple:
            replacement = _token_tuple(replacement, "replacement")
        if type(start) is not int or type(end) is not int:  # refuses a bool too
            raise ValidationError(f"edit positions must be ints, got {start!r} and {end!r}")
        if start < 0 or end < start:
            raise ValidationError(f"bad edit span [{start}, {end})")
        if start == end and not replacement:
            raise ValidationError("zero-width edit with empty replacement is a no-op")
        _check_tokens(replacement)
        return tuple.__new__(cls, (start, end, replacement))


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


class EditSet:
    """Canonical, conflict-free edit collection for a source of ``source_len`` tokens.

    Immutable: ``source_len`` and ``edits`` are set once, by the checks (or
    by ``_of``, where they hold by construction).  Two edit sets are equal
    (and hash alike) when both fields are; an edit set never equals a value
    of another type.
    """

    __slots__ = ("source_len", "edits")

    def __init__(self, source_len: int, edits: Iterable[Edit] = ()) -> None:
        """Sort the edits, drop duplicates, and check range and conflicts.

        In span order an edit's ``_mask`` bits start no lower than those of
        the edits before it, so in a conflict-free prefix the previous edit
        reaches furthest, and an edit clashes with some earlier one exactly
        when it clashes with that neighbour: when it starts before the
        neighbour's end, or both are insertions at one point (its end is
        the neighbour's start).  An equal edit clashes by that test too, so
        only a clash is compared for equality, and dropped when equal.
        Every edit is range-checked, so a range error wins over a conflict.
        An item that is not an ``Edit`` (a bare tuple, say) skipped
        ``Edit``'s checks, so it is refused before anything is sorted.
        """
        check_int(source_len, "source_len", 0)
        edits = tuple(edits)
        for edit in edits:
            if not isinstance(edit, Edit):
                raise ValidationError(f"edit set item is not an Edit: {edit!r}")
        kept: list[Edit] = []
        prev = clash = None
        prev_start = prev_end = -1
        for edit in sorted(edits):
            start, end, _ = edit
            if end > source_len:
                raise ValidationError(f"edit {edit!r} exceeds source length {source_len}")
            if start < prev_end or end == prev_start:
                if edit == prev:
                    continue
                if clash is None:
                    clash = edit
            kept.append(edit)
            prev, prev_start, prev_end = edit, start, end
        if clash is not None:
            # The earliest edit that clashes with the first clashing one.
            partner = next(e for e in kept if conflicts(e, clash))
            raise ValidationError(f"conflicting edits: {partner!r} vs {clash!r}")
        object.__setattr__(self, "source_len", source_len)
        object.__setattr__(self, "edits", tuple(kept))

    @classmethod
    def _of(cls, source_len: int, edits: tuple[Edit, ...]) -> EditSet:
        """Unchecked: ``source_len`` an ``int`` >= 0 and ``edits`` a tuple of
        distinct, conflict-free ``Edit``s within it, in sorted order."""
        self = object.__new__(cls)
        object.__setattr__(self, "source_len", source_len)
        object.__setattr__(self, "edits", edits)
        return self

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.source_len == other.source_len and self.edits == other.edits

    def __hash__(self) -> int:
        return hash((self.source_len, self.edits))

    def __repr__(self) -> str:
        return f"EditSet(source_len={self.source_len!r}, edits={self.edits!r})"

    def __reduce__(self):
        # Copies and unpickled values are rebuilt, and so checked, by ``__init__``.
        return self.__class__, (self.source_len, self.edits)

    def __len__(self) -> int:
        return len(self.edits)

    def __iter__(self) -> Iterator[Edit]:
        return iter(self.edits)


def check_int(value, name: str, minimum: int) -> None:
    """Raise ``ValidationError`` unless ``value`` is an ``int`` (a ``bool`` is
    refused) of at least ``minimum``."""
    if type(value) is not int:  # refuses a bool too
        raise ValidationError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}")


def check_choice(value, name: str, choices: tuple) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")


def check_source_len(source_len: int, edit_set: EditSet) -> None:
    """Raise ``ValidationError`` unless ``edit_set`` was built for ``source_len`` tokens."""
    if edit_set.source_len != source_len:
        raise ValidationError(
            f"edit sets disagree on source length: {source_len} vs {edit_set.source_len}"
        )


class Candidate(Checked, namedtuple("Candidate", "edit_set label")):
    """An edit set plus a provenance label (system name, vote-m, greedy)."""

    __slots__ = ()

    def __new__(cls, edit_set: EditSet, label: str) -> Candidate:
        if not isinstance(edit_set, EditSet):
            raise ValidationError(f"candidate edit set must be an EditSet, got {edit_set!r}")
        if not isinstance(label, str) or not label:
            raise ValidationError(f"candidate label must be a non-empty str, got {label!r}")
        return tuple.__new__(cls, (edit_set, label))


class CorpusEntry(Checked, namedtuple("CorpusEntry", "source systems")):
    """One source sentence with its per-system hypothesis candidates, each
    built for the source's length."""

    __slots__ = ()

    def __new__(cls, source: Sentence, systems: Iterable[Candidate]) -> CorpusEntry:
        if not isinstance(source, Sentence):
            raise ValidationError(f"entry source must be a Sentence, got {source!r}")
        systems = tuple(systems)
        for candidate in systems:
            if not isinstance(candidate, Candidate):
                raise ValidationError(f"entry system must be a Candidate, got {candidate!r}")
            check_source_len(len(source), candidate.edit_set)
        return tuple.__new__(cls, (source, systems))


def apply_edits(source: Sentence, edits: EditSet) -> Sentence:
    """Apply an edit set to its source sentence.

    Unedited spans and replacements are concatenated left to right.  A
    ``source`` that is not a ``Sentence`` (a list or tuple of tokens, say) is
    checked by ``Sentence`` first.  ``edits`` must be an ``EditSet`` built for
    a source of this length (``check_source_len``); internal validity
    (ordering, no conflicts, spans in range) is guaranteed by ``EditSet``.
    """
    if type(source) is not Sentence:
        source = Sentence(source)
    if not isinstance(edits, EditSet):
        raise ValidationError(f"edits must be an EditSet, got {edits!r}")
    check_source_len(len(source), edits)
    out: list[str] = []
    cursor = 0
    for start, end, replacement in edits:
        out.extend(source[cursor:start])
        out.extend(replacement)
        cursor = end
    out.extend(source[cursor:])
    # Every token is the source's or a checked edit's.
    return Sentence._of(out)


# Pairs per packed batch, and the most bits (cores plus guard bits) a batch
# of more than one pair may hold.  16-32 lanes measured fastest; 64 was
# slower.  Without the bit budget, 64 pairs of 1,000-token sources with a
# fifth of their tokens substituted aligned in 140-146 ms against 66-73 ms,
# and 200 such pairs of 300 tokens in 53-56 ms against 43 ms (minimum of 5
# runs, 3 rounds).  The benchmark corpora never reach it: their lanes are at
# most 41 bits (``text-mbr-vote``) and 121 bits (``score-long``) wide.
_LANES = 32
_BATCH_BITS = 4096


def extract_edits(source: Sentence, hypothesis: Sentence) -> EditSet:
    """Extract the edit set that turns ``source`` into ``hypothesis``: a
    batch of one (see ``extract_batch``, which checks and aligns it)."""
    return extract_batch((source,), (hypothesis,))[0]


def extract_batch(sources: Sequence[Sentence], hypotheses: Sequence[Sentence]) -> list[EditSet]:
    """The edit set that turns each source into its hypothesis, in input order.

    Token-level Levenshtein alignment with unit insert/delete/substitute
    costs; backtrace ties resolve match > substitute > delete > insert, so
    extraction is canonical.  Each maximal run of adjacent non-match steps
    becomes one edit, read off the backtrace as the run closes: no list of
    operations is built.

    Every argument that is not a ``Sentence`` (a list or tuple of tokens,
    say) is checked by ``Sentence`` first, in input order and before any pair
    is aligned, so a bad token is refused even where the two agree, and the
    first bad pair is the one reported.  ``ValidationError`` when the two
    sequences differ in length.

    Per pair a common suffix is stripped first, then the longest common
    prefix ``p``; what is left of the source, ``src[p:n]``, is the pair's
    core.  The distances over the cores are Myers' bit-parallel edit distance
    (Myers 1999, JACM) in Hyyrö's column formulation, run for a whole batch
    of pairs at once (``_align_lanes``), and each pair is read back by its
    own backtrace (``_backtrace``).  The pairs are stable-sorted by
    hypothesis core length, so a batch's lanes need about as many columns as
    each other, and packed ``_LANES`` to a batch within ``_BATCH_BITS`` bits.
    """
    if len(sources) != len(hypotheses):
        raise ValidationError(f"{len(sources)} sources but {len(hypotheses)} hypotheses")
    pairs = []
    for source, hypothesis in zip(sources, hypotheses):
        if type(source) is not Sentence:
            source = Sentence(source)
        if type(hypothesis) is not Sentence:
            hypothesis = Sentence(hypothesis)
        n, m = len(source), len(hypothesis)
        while n and m and source[n - 1] == hypothesis[m - 1]:
            n -= 1
            m -= 1
        p = 0
        while p < n and p < m and source[p] == hypothesis[p]:
            p += 1
        pairs.append((source, hypothesis, n, m, p))
    results: list[EditSet | None] = [None] * len(pairs)
    lanes, bits = [], 0
    for k in sorted(range(len(pairs)), key=lambda k: pairs[k][3] - pairs[k][4]):
        width = pairs[k][2] - pairs[k][4] + 1
        if lanes and (len(lanes) == _LANES or bits + width > _BATCH_BITS):
            _align_lanes(pairs, lanes, results)
            lanes, bits = [], 0
        lanes.append(k)
        bits += width
    if lanes:
        _align_lanes(pairs, lanes, results)
    return results


def _align_lanes(pairs: list, lanes: list[int], results: list) -> None:
    """Align the pairs ``pairs[k]`` for each ``k`` in ``lanes`` in one column
    pass, and store each one's edit set as ``results[k]``.

    Each lane holds its pair's source core at bits ``offset`` to ``offset +
    n - p - 1``, and one guard bit above them, which no table holds.  Bit
    ``offset + i - p - 1`` of a column vector stands for row ``i`` (source
    token ``i``) of the pair's table ``D[i][j]``, counted from the core:
    ``D[p][j] = j - p`` and ``D[i][p] = i - p``.  Per hypothesis column the
    pass keeps ``vp`` (``D[i][j] - D[i-1][j] == +1``) and ``d0`` (``D[i][j]
    == D[i-1][j-1]``) of every lane at once.  Each lane's ``peq`` (the bits
    of each source token) is built at its offset; ``mask`` is every lane's
    bits with the guard bits clear, and ``low`` every lane's bottom bit,
    where the ``+1`` step of each core's top row (``D[p][j]``) enters all
    lanes at once.  The carry out of a lane's ``(x & vp) + vp``, and its top
    bit shifted up by ``<< 1``, land in its guard bit and are cleared by
    ``& mask``, so no lane reads another's bits.

    Column ``j`` gives each lane its own hypothesis token through
    ``zip_longest``; the lanes' bits are disjoint, so the sum of the lookups
    is their OR.  A lane past the end of its hypothesis core looks up
    ``None``, which no ``peq`` holds.  Its later columns are never read:
    column ``j`` depends only on earlier ones, so every lane's columns up to
    its own length are exact, and its backtrace starts there.
    """
    peqs, offsets = [], []
    mask = low = offset = 0
    for k in lanes:
        source, _, n, _, p = pairs[k]
        peq: dict[str, int] = {}
        for row, token in enumerate(source[p:n], offset):
            peq[token] = peq.get(token, 0) | 1 << row
        peqs.append(peq)
        offsets.append(offset)
        bottom = 1 << offset
        low |= bottom
        offset += n - p
        mask |= (1 << offset) - bottom
        offset += 1  # the guard bit
    vp, vn = mask, 0
    vps, d0s = [vp], [0]
    lookup, absent = dict.get, repeat(0)
    for column in zip_longest(*(pairs[k][1][pairs[k][4] : pairs[k][3]] for k in lanes)):
        x = sum(map(lookup, peqs, column, absent)) | vn
        d0 = ((((x & vp) + vp) ^ vp) | x) & mask
        hp = vn | (mask ^ (d0 | vp))
        hn = vp & d0
        # Shift the horizontal deltas down one row; each top row steps by +1.
        hp = ((hp << 1) | low) & mask
        hn = (hn << 1) & mask
        vp = hn | (mask ^ (d0 | hp))
        vn = hp & d0
        vps.append(vp)
        d0s.append(d0)
    for k, offset in zip(lanes, offsets):
        results[k] = _backtrace(*pairs[k], vps, d0s, offset)


def _backtrace(
    src: Sentence, hyp: Sentence, n: int, m: int, p: int, vps, d0s, offset: int
) -> EditSet:
    """The edit set of one pair, read off its lane's column vectors from
    ``D[n][m]``, the last cell before the stripped suffix.

    Every value of the table is exact, so the backtrace takes the same steps
    a full table would, reading one bit per step.  A stripped suffix is
    all matches: where the last tokens match, ``D[n][m] == D[n-1][m-1]`` and
    the backtrace takes the match anyway.  The backtrace may not match the
    stripped prefix token for token (``a`` -> ``a a`` inserts at 0), but in
    rows and columns up to ``p`` the table is ``D[i][j] == |i - j|``, so once
    the path leaves the core it follows a closed-form walk to the cells the
    full table would: above the diagonal it matches where the tokens agree
    and inserts otherwise, below it matches or deletes, and on the diagonal
    every remaining step is a match.  With ``p == 0`` this is the walk along
    row 0 or down column 0.  A pair whose source or hypothesis core is empty
    takes only that walk, and reads no bit of its lane.
    """
    base = offset - p - 1
    edits: list[Edit] = []
    run_end: tuple[int, int] | None = None  # (i, j) where the open run began
    i, j = n, m
    # Inside the core (i, j > p) the vectors decide each step; outside it the
    # walk ends on the diagonal, where only matches are left.
    while i != j or i > p:
        # Neighbouring cells differ by at most 1, so a match is always on an
        # optimal path; an insertion is what is left when no other step is.
        if i and j and src[i - 1] == hyp[j - 1]:
            if run_end is not None:
                # A run holds a non-match step, so it is no no-op; ``hyp``'s
                # slice is a tuple of checked tokens.
                edits.append(Edit._of((i, run_end[0], hyp[j : run_end[1]])))
                run_end = None
            i -= 1
            j -= 1
            continue
        if run_end is None:
            run_end = (i, j)
        if i <= p or j <= p:  # D[i][j] == |i - j|: close in on the diagonal
            if i < j:
                j -= 1
            else:
                i -= 1
            continue
        row = 1 << (base + i)
        if not d0s[j - p] & row:  # substitute
            i -= 1
            j -= 1
        elif vps[j - p] & row:  # delete
            i -= 1
        else:  # insert
            j -= 1
    if run_end is not None:
        # As above: a non-empty run, replacement sliced from ``hyp``.
        edits.append(Edit._of((i, run_end[0], hyp[j : run_end[1]])))
    # The runs came last first; a match step separates each from the next,
    # so reversed they are in range, sorted, disjoint and never touching.
    edits.reverse()
    return EditSet._of(len(src), tuple(edits))


class EditIndex:
    """One sentence's system edit sets, indexed in one pass.

    Every vote-set edit and every greedy pool edit is some system's edit, so
    this index is the sentence's one universe of edits, and the one place an
    edit gets a bit.  Walking the systems in order, and each system's edits
    in span order, gives each distinct edit a bit in first-proposal order
    (``bits``) and each system its mask (``masks``, the OR of its edits'
    bits); ``mask`` gives any other edit set of this source its mask the
    same way.  An edit's vote count is the number of masks that hold its
    bit; ``resolve`` reads the counts off the masks, so no edit is hashed
    again.
    """

    __slots__ = ("source_len", "bits", "masks")

    def __init__(self, sets: Sequence[EditSet]) -> None:
        if not sets:
            raise ValueError("need at least one edit set")
        for edit_set in sets:
            if not isinstance(edit_set, EditSet):
                raise ValidationError(f"indexed item is not an EditSet: {edit_set!r}")
        self.source_len = sets[0].source_len
        bits: dict[Edit, int] = {}
        self.bits, self.masks = bits, []
        for edit_set in sets:
            check_source_len(self.source_len, edit_set)
            mask = 0
            for edit in edit_set.edits:
                mask |= bits.setdefault(edit, 1 << len(bits))
            self.masks.append(mask)

    def mask(self, edit_set: EditSet) -> int:
        """The bits of the edits in ``edit_set`` that some indexed set holds."""
        check_source_len(self.source_len, edit_set)
        # Distinct edits have distinct bits, so the sum is the OR.
        return sum(map(self.bits.get, edit_set.edits, repeat(0)))

    def resolve(self) -> list[tuple[EditSet, int]]:
        """The vote set at every threshold m = 1..N with its mask, from one pass.

        ``support[m]`` holds the bits of the edits with at least m votes, a
        running count over the system masks.  Conflicts are resolved
        greedily over the union: higher vote count wins, ties go to the edit
        first proposed by the earliest system, then to span position, which
        is bit order within one count.  Edits with at least m votes form a
        prefix of that order, so each threshold's set is the resolved union
        restricted to them, and its mask the OR of their bits; a threshold
        that adds no edit reuses the set above it.  An edit every system
        holds has N votes, and all such edits lie in the conflict-free first
        set, so none is dropped: the set at m = N is the plain intersection.
        """
        n = len(self.masks)
        support = [-1] + [0] * (n + 1)
        for i, mask in enumerate(self.masks, start=1):
            for m in range(i, 0, -1):
                support[m] |= support[m - 1] & mask
        edits = list(self.bits)
        kept: list[Edit] = []
        occupied = kept_mask = 0
        by_threshold = [(EditSet(self.source_len), 0)]  # a threshold above N
        for m in range(n, 0, -1):
            group = support[m] & ~support[m + 1]
            while group:
                low = group & -group
                group ^= low
                edit = edits[low.bit_length() - 1]
                span = _mask(edit)
                if not occupied & span:
                    kept.append(edit)
                    occupied |= span
                    kept_mask |= low
            if kept_mask != by_threshold[-1][1]:
                # Distinct checked edits of this source; the occupancy mask
                # keeps them conflict-free.
                vote = EditSet._of(self.source_len, tuple(sorted(kept)))
                by_threshold.append((vote, kept_mask))
            else:
                by_threshold.append(by_threshold[-1])
        return by_threshold[:0:-1]


def intersect(sets: Sequence[EditSet]) -> EditSet:
    """Edits present in every set: the vote set at threshold N (see
    ``EditIndex.resolve``)."""
    return EditIndex(sets).resolve()[-1][0]


def vote_set(sets: Sequence[EditSet], min_votes: int) -> EditSet:
    """Conflict-resolved set of edits proposed by at least ``min_votes`` sets
    (see ``EditIndex.resolve``); empty when ``min_votes`` exceeds the number
    of sets; ``ValidationError`` unless ``min_votes`` is an ``int`` >= 1."""
    check_int(min_votes, "min_votes", 1)
    by_threshold = EditIndex(sets).resolve()
    return by_threshold[min_votes - 1][0] if min_votes <= len(sets) else EditSet(sets[0].source_len)
