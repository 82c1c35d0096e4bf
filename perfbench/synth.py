"""Seeded synthetic GEC corpora for the benchmark workloads.

The generator shares no code with the package under test: edits are plain
``(start, end, replacement)`` tuples over source token indices, conflicts are
checked here, and text and M2 bytes are written here.  A change under
``src/`` therefore cannot change the inputs a workload runs on.

Every workload draws from one ``random.Random`` seeded with a string made of
the workload name and the seed, so the same seed always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

FUNCTION_WORDS = (
    "the", ",", ".", "of", "and", "to", "a", "in", "is", "that", "for", "it",
    "was", "on", "with", "he", "as", "be", "at", "by", "this", "had", "not",
    "are", "but", "from", "or", "have", "an", "they", "which", "one", "you",
    "were", "her", "all", "she", "there", "would", "their",
)
_ONSETS = "b c d f g h j k l m n p r s t v w z br ch dr fl gr pl sh st th tr".split()
_VOWELS = "a e i o u ai ea ee oo ou".split()
_CODAS = ["", "", "n", "r", "s", "t", "l", "nd", "st", "ck"]


def _content_words(count: int) -> list[str]:
    # Deterministic two-syllable words, independent of any seed.
    words: list[str] = []
    seen: set[str] = set()
    for a in _ONSETS:
        for v in _VOWELS:
            for b in _ONSETS:
                for w in _VOWELS:
                    for c in _CODAS:
                        word = a + v + b + w + c
                        if word not in seen:
                            seen.add(word)
                            words.append(word)
                        if len(words) == count:
                            return words
    return words


VOCABULARY = FUNCTION_WORDS + tuple(_content_words(4000))
_ZIPF_CUM: list[float] = []
_total = 0.0
for _rank in range(len(VOCABULARY)):
    _total += 1.0 / (_rank + 1) ** 1.05
    _ZIPF_CUM.append(_total)
del _rank, _total

Edit = tuple  # (start, end, replacement tuple of tokens)


@dataclass(frozen=True)
class Shape:
    """The fixed shape of a workload's corpus."""

    sentences: int
    min_len: int
    max_len: int
    min_gold: int
    max_gold: int
    systems: int
    keep: float
    max_noise: int
    annotators: int = 0  # reference M2 annotators (score workloads only)


@dataclass
class Corpus:
    """Input files (name -> bytes) plus the properties recorded with results."""

    files: dict[str, bytes]
    sentences: int
    mean_tokens: float
    identical_share: float
    gold_per_sentence: float
    extra: dict = field(default_factory=dict)

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for name in sorted(self.files):
            digest.update(name.encode() + b"\0")
            digest.update(hashlib.sha256(self.files[name]).digest())
        return digest.hexdigest()

    def properties(self) -> dict:
        return {
            "input_sha256": self.sha256(),
            "sentences": self.sentences,
            "mean_tokens": round(self.mean_tokens, 4),
            "identical_share": round(self.identical_share, 4),
            "gold_per_sentence": round(self.gold_per_sentence, 4),
            **self.extra,
        }


def clash(a: Edit, b: Edit) -> bool:
    """Whether two edits cannot sit in one edit set: overlapping spans, or two
    insertions at one position (an edit always clashes with itself)."""
    if a[0] < b[1] and b[0] < a[1]:
        return True
    return a[0] == a[1] == b[0] == b[1]


def apply(tokens: tuple[str, ...], edits) -> tuple[str, ...]:
    """Apply non-clashing edits to a token sequence."""
    out: list[str] = []
    cursor = 0
    for start, end, replacement in sorted(edits, key=lambda e: (e[0], e[1])):
        out.extend(tokens[cursor:start])
        out.extend(replacement)
        cursor = end
    out.extend(tokens[cursor:])
    return tuple(out)


def _word(rng: random.Random) -> str:
    return rng.choices(VOCABULARY, cum_weights=_ZIPF_CUM)[0]


def _sentence(rng: random.Random, shape: Shape) -> tuple[str, ...]:
    length = rng.randint(shape.min_len, shape.max_len)
    return tuple(rng.choices(VOCABULARY, cum_weights=_ZIPF_CUM, k=length))


def _random_edit(rng: random.Random, tokens: tuple[str, ...]) -> Edit:
    """One correction: substitution, deletion, insertion or a two-token rewrite.

    The replacement always differs from the span it replaces."""
    n = len(tokens)
    kind = rng.random()
    if kind < 0.45:
        i = rng.randrange(n)
        word = _word(rng)
        while word == tokens[i]:
            word = _word(rng)
        return (i, i + 1, (word,))
    if kind < 0.6:
        i = rng.randrange(n)
        return (i, i + 1, ())
    if kind < 0.85:
        i = rng.randrange(n + 1)
        return (i, i, tuple(_word(rng) for _ in range(rng.randint(1, 2))))
    i = rng.randrange(n - 1)
    replacement = tuple(_word(rng) for _ in range(rng.randint(1, 2)))
    while replacement == tokens[i : i + 2]:
        replacement = (_word(rng),)
    return (i, i + 2, replacement)


def _add_edits(rng: random.Random, tokens, kept: list[Edit], count: int) -> list[Edit]:
    """Draw up to ``count`` edits that clash with nothing in ``kept``."""
    added: list[Edit] = []
    for _ in range(count * 20):
        if len(added) == count:
            break
        edit = _random_edit(rng, tokens)
        if not any(clash(edit, other) for other in kept + added):
            added.append(edit)
    return added


def _system_edits(rng: random.Random, tokens, gold: list[Edit], shape: Shape,
                  require_change: bool) -> list[Edit]:
    """A system's edit set: each gold edit kept with ``shape.keep``, plus noise.

    A non-empty edit set never reproduces the source; with ``require_change``
    the edit set is never empty either."""
    while True:
        kept = [edit for edit in gold if rng.random() < shape.keep]
        noise = rng.randint(0, shape.max_noise)
        if require_change and not kept and not noise:
            noise = 1
        edits = kept + _add_edits(rng, tokens, kept, noise)
        if edits and apply(tokens, edits) == tokens:
            continue
        if edits or not require_change:
            return sorted(edits)


def _line(tokens) -> bytes:
    return (" ".join(tokens) + "\n").encode("utf-8")


def _m2_type(edit: Edit) -> str:
    if edit[0] == edit[1]:
        return "M:OTHER"
    return "U:OTHER" if not edit[2] else "R:OTHER"


def m2_block(tokens, annotations) -> bytes:
    """One M2 entry: ``S`` line, one ``A`` line per edit per annotator, blank line."""
    lines = ["S " + " ".join(tokens)]
    for annotator, edits in enumerate(annotations):
        if not edits:
            lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
        for edit in edits:
            replacement = " ".join(edit[2]) if edit[2] else "-NONE-"
            lines.append(
                f"A {edit[0]} {edit[1]}|||{_m2_type(edit)}|||{replacement}"
                f"|||REQUIRED|||-NONE-|||{annotator}"
            )
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def _sentence_and_gold(rng: random.Random, shape: Shape):
    tokens = _sentence(rng, shape)
    gold = _add_edits(rng, tokens, [], rng.randint(shape.min_gold, shape.max_gold))
    return tokens, gold


def text_systems(seed: int, shape: Shape, name: str = "text-mbr-vote") -> Corpus:
    """Source plus ``shape.systems`` plain-text hypotheses (``sys<i>.txt``)."""
    rng = random.Random(f"{name}:{seed}")
    src = bytearray()
    outs = [bytearray() for _ in range(shape.systems)]
    tokens_total = gold_total = identical = 0
    for _ in range(shape.sentences):
        tokens, gold = _sentence_and_gold(rng, shape)
        tokens_total += len(tokens)
        gold_total += len(gold)
        src += _line(tokens)
        for out in outs:
            edits = _system_edits(rng, tokens, gold, shape, require_change=False)
            identical += not edits
            out += _line(apply(tokens, edits))
    files = {"src.txt": bytes(src)}
    files.update({f"sys{i}.txt": bytes(out) for i, out in enumerate(outs)})
    return Corpus(
        files,
        shape.sentences,
        tokens_total / shape.sentences,
        identical / (shape.sentences * shape.systems),
        gold_total / shape.sentences,
    )


def m2_systems(seed: int, shape: Shape, name: str = "m2-greedy") -> Corpus:
    """Source plus ``shape.systems`` pre-extracted single-annotator M2 systems."""
    rng = random.Random(f"{name}:{seed}")
    src = bytearray()
    outs = [bytearray() for _ in range(shape.systems)]
    tokens_total = gold_total = empty = edits_total = 0
    for _ in range(shape.sentences):
        tokens, gold = _sentence_and_gold(rng, shape)
        tokens_total += len(tokens)
        gold_total += len(gold)
        src += _line(tokens)
        for out in outs:
            edits = _system_edits(rng, tokens, gold, shape, require_change=False)
            empty += not edits
            edits_total += len(edits)
            out += m2_block(tokens, [edits])
    files = {"src.txt": bytes(src)}
    files.update({f"sys{i}.m2": bytes(out) for i, out in enumerate(outs)})
    return Corpus(
        files,
        shape.sentences,
        tokens_total / shape.sentences,
        empty / (shape.sentences * shape.systems),
        gold_total / shape.sentences,
        {"edits_per_system_sentence": round(edits_total / (shape.sentences * shape.systems), 4)},
    )


def scored_system(seed: int, shape: Shape, name: str = "score-long") -> Corpus:
    """Source, one text hypothesis (``hyp.txt``) and a multi-annotator reference M2.

    Each annotator keeps every gold edit with probability 0.8 and adds up to
    two edits of its own; the hypothesis follows ``shape`` and always differs
    from its source."""
    rng = random.Random(f"{name}:{seed}")
    annotator_shape = Shape(0, 0, 0, 0, 0, 1, 0.8, 2)
    src, hyp, ref = bytearray(), bytearray(), bytearray()
    tokens_total = gold_total = identical = 0
    for _ in range(shape.sentences):
        tokens, gold = _sentence_and_gold(rng, shape)
        tokens_total += len(tokens)
        gold_total += len(gold)
        src += _line(tokens)
        annotations = [
            _system_edits(rng, tokens, gold, annotator_shape, require_change=False)
            for _ in range(shape.annotators)
        ]
        ref += m2_block(tokens, annotations)
        edits = _system_edits(rng, tokens, gold, shape, require_change=True)
        hypothesis = apply(tokens, edits)
        identical += hypothesis == tokens
        hyp += _line(hypothesis)
    return Corpus(
        {"src.txt": bytes(src), "hyp.txt": bytes(hyp), "ref.m2": bytes(ref)},
        shape.sentences,
        tokens_total / shape.sentences,
        identical / shape.sentences,
        gold_total / shape.sentences,
    )
