"""Shared random generators and brute-force oracles for the test suite.

The brute-force reward functions below recompute every quantity from
explicit pairwise edit comparisons and the raw formulas; they deliberately
share no code with the package so they can serve as independent oracles.
``bf_align_ops`` is the full-table alignment the bit-parallel kernel in
``edit_core`` replaced, and ``bf_edits`` turns its operations into edits
with a run merger of its own, as an oracle for ``extract_edits`` (which
reads edits straight off its backtrace).  ``bf_intersect`` is the
edits-in-every-set loop that ``intersect`` kept before it became the top
vote set.  ``bf_greedy`` is the greedy loop that built and scored one
``EditSet`` per candidate before greedy scored bitmasks, on vote candidates
from ``bf_vote_set`` and scores from ``bf_expected``.  All are kept here as
oracles.  ``bf_conflicts`` and ``bf_first_conflict`` are the
pairwise conflict rule and the sorted ``EditSet`` scan that occupancy masks
replaced; every generator and oracle here uses them, not ``conflicts``.
``bf_parse_m2`` is the M2 parser from before annotation lines were memoized
per entry: it splits and checks every line in full, on lines from
``bf_lines``, the line splitter of that time.  The ``memo_seen`` fixture
records the memo each ``parse_m2`` call is handed.  ``bf_combine`` is the
whole ``combine`` command rebuilt from these oracles alone: it reads text
systems with ``bf_lines`` and ``bf_edits``, ``.m2`` systems with
``bf_parse_m2``, selects with ``bf_vote_set``, ``bf_expected`` and
``bf_greedy``, and writes the output, report and trace by hand.
``bf_score`` is the whole ``score`` command rebuilt the same way: it reads
the hypothesis as ``bf_combine`` reads a system and the reference with
``bf_parse_m2``, and picks each sentence's annotator from ``bf_prf``.
"""

import itertools
import json
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import settings

from edit_mbr import m2_io
from edit_mbr.combiner import CombineResult, GreedyStep
from edit_mbr.edit_core import Candidate, Edit, EditSet, Sentence, ValidationError
from edit_mbr.m2_io import _EMPTY_REPLACEMENT, Annotation, M2Entry, M2ParseError

# ``pytest --hypothesis-profile thorough`` gives every property test that
# leaves ``max_examples`` at its default ten times the examples; CI runs
# ``test_unchecked.py`` under it.
settings.register_profile("thorough", max_examples=1000)


@pytest.fixture
def memo_seen(monkeypatch) -> list:
    """The ``memo`` argument of each ``m2_io.parse_m2`` call in the test, in order."""
    seen = []
    parse = m2_io.parse_m2

    def spy(text, sources=None, memo=None):
        seen.append(memo)
        return parse(text, sources, memo)

    monkeypatch.setattr(m2_io, "parse_m2", spy)
    return seen


def bf_conflicts(first: Edit, second: Edit) -> bool:
    """Distinct edits conflict when their half-open spans intersect or both
    are insertions at one position."""
    if first == second:
        return False
    if first.start < second.end and second.start < first.end:
        return True
    return first.start == first.end == second.start == second.end


def bf_first_conflict(edits) -> tuple[Edit, Edit] | None:
    """The first conflicting pair of the deduplicated edits in span order,
    found by a pairwise scan that stops at the first edit starting past the
    current one's end; None when there is none."""
    ordered = sorted(set(edits), key=lambda e: (e.start, e.end, e.replacement))
    for i, first in enumerate(ordered):
        for second in ordered[i + 1 :]:
            if second.start > first.end:
                break
            if bf_conflicts(first, second):
                return first, second
    return None


def random_sentence(rng: random.Random, min_len=0, max_len=30, vocab=20) -> Sentence:
    length = rng.randint(min_len, max_len)
    return Sentence(tuple(f"t{rng.randrange(vocab)}" for _ in range(length)))


def random_edit(rng: random.Random, source_len: int, vocab=8) -> Edit:
    start = rng.randint(0, source_len)
    end = min(source_len, start + rng.randint(0, 3))
    n_repl = rng.randint(0, 3)
    if start == end and n_repl == 0:
        n_repl = 1
    replacement = tuple(f"w{rng.randrange(vocab)}" for _ in range(n_repl))
    return Edit(start, end, replacement)


def random_edit_set(rng: random.Random, source_len: int, max_edits=4, vocab=8) -> EditSet:
    kept: list[Edit] = []
    for _ in range(rng.randint(0, max_edits)):
        edit = random_edit(rng, source_len, vocab)
        if not any(edit == k or bf_conflicts(edit, k) for k in kept):
            kept.append(edit)
    return EditSet(source_len, tuple(kept))


def random_systems(
    rng: random.Random, source_len=10, n_systems=3, pool_size=8, vocab=6, take=0.45
) -> list[Candidate]:
    """Systems sampling from a shared edit pool, so shared votes and conflicts occur."""
    pool = [random_edit(rng, source_len, vocab) for _ in range(pool_size)]
    systems = []
    for index in range(n_systems):
        kept: list[Edit] = []
        for edit in pool:
            if rng.random() < take and not any(
                edit == k or bf_conflicts(edit, k) for k in kept
            ):
                kept.append(edit)
        systems.append(Candidate(EditSet(source_len, tuple(kept)), f"sys{index}"))
    return systems


def bf_vote_set(sets, min_votes) -> EditSet:
    """Vote set resolved from scratch at one threshold: only edits with at
    least ``min_votes`` votes are ranked (votes, first proposer's position,
    span) and kept greedily unless they conflict with an edit already kept."""
    edits = {edit for edit_set in sets for edit in edit_set}
    votes = {edit: sum(edit in s for s in sets) for edit in edits}
    first = {edit: min(i for i, s in enumerate(sets) if edit in s) for edit in edits}
    eligible = sorted(
        (e for e in edits if votes[e] >= min_votes),
        key=lambda e: (-votes[e], first[e], e.start, e.end, e.replacement),
    )
    kept: list[Edit] = []
    for edit in eligible:
        if not any(bf_conflicts(edit, k) for k in kept):
            kept.append(edit)
    return EditSet(sets[0].source_len, tuple(kept))


def bf_intersect(sets) -> EditSet:
    """Edits of the first set that every other set also holds."""
    first, rest = sets[0], sets[1:]
    return EditSet(first.source_len, tuple(e for e in first if all(e in s for s in rest)))


def bf_intersection_size(ref_edits, hyp_edits) -> int:
    return sum(1 for edit in ref_edits if any(edit == other for other in hyp_edits))


def bf_reward(kind: str, ref_edits, hyp_edits, beta: float = 0.5) -> float:
    """Reward recomputed from the raw formulas over plain edit sequences."""
    ref_edits = list(ref_edits)
    hyp_edits = list(hyp_edits)
    n_ref, n_hyp = len(ref_edits), len(hyp_edits)
    if n_ref == 0 and n_hyp == 0:
        return 1.0
    overlap = bf_intersection_size(ref_edits, hyp_edits)
    if kind == "recall":
        return overlap / n_ref if n_ref else 1.0
    if kind == "precision":
        return overlap / n_hyp if n_hyp else 1.0
    if kind == "f":
        return (1.0 + beta * beta) * overlap / (beta * beta * n_ref + n_hyp)
    if kind == "f-paper":
        return (1.0 + beta * beta) * overlap / (beta * n_ref + n_hyp)
    if kind == "jaccard":
        return overlap / (n_ref + n_hyp - overlap)
    raise AssertionError(f"unknown kind {kind}")


def bf_expected(kind: str, ref_sets, hyp_edits, beta: float = 0.5) -> float:
    totals = math.fsum(bf_reward(kind, ref, hyp_edits, beta) for ref in ref_sets)
    return totals / len(ref_sets)


def bf_levenshtein(a, b) -> int:
    """Plain iterative token Levenshtein distance."""
    previous = list(range(len(b) + 1))
    for i, tok_a in enumerate(a, start=1):
        current = [i]
        for j, tok_b in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (tok_a != tok_b),
                )
            )
        previous = current
    return previous[-1]


def bf_align_ops(src, hyp) -> list[str]:
    """Alignment ops from the full O(n·m) Levenshtein table, backtraced from
    ``dp[n][m]`` with ties resolved match > sub > del > ins."""
    n, m = len(src), len(hyp)
    dp = [list(range(m + 1))] + [[i] + [0] * m for i in range(1, n + 1)]
    for i in range(1, n + 1):
        row = dp[i]
        prev = dp[i - 1]
        s_tok = src[i - 1]
        for j in range(1, m + 1):
            best = prev[j - 1] + (s_tok != hyp[j - 1])
            if prev[j] + 1 < best:
                best = prev[j] + 1
            if row[j - 1] + 1 < best:
                best = row[j - 1] + 1
            row[j] = best
    ops: list[str] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dp[i][j]
        if i > 0 and j > 0 and src[i - 1] == hyp[j - 1] and here == dp[i - 1][j - 1]:
            ops.append("match")
            i -= 1
            j -= 1
        elif i > 0 and j > 0 and src[i - 1] != hyp[j - 1] and here == dp[i - 1][j - 1] + 1:
            ops.append("sub")
            i -= 1
            j -= 1
        elif i > 0 and here == dp[i - 1][j] + 1:
            ops.append("del")
            i -= 1
        else:
            ops.append("ins")
            j -= 1
    ops.reverse()
    return ops


def bf_edits(source: Sentence, hypothesis: Sentence) -> EditSet:
    """Edits from ``bf_align_ops``: each maximal group of non-match ops
    replaces the source tokens it consumes with the hypothesis tokens it
    consumes."""
    src, hyp = source.tokens, hypothesis.tokens
    edits = []
    i = j = 0
    for is_match, group in itertools.groupby(bf_align_ops(src, hyp), lambda op: op == "match"):
        ops = list(group)
        di = sum(op != "ins" for op in ops)
        dj = sum(op != "del" for op in ops)
        if not is_match:
            edits.append(Edit(i, i + di, hyp[j : j + dj]))
        i += di
        j += dj
    return EditSet(len(src), tuple(edits))


def bf_greedy(systems, config) -> CombineResult:
    """Greedy combination with a fresh ``EditSet`` per candidate insertion,
    scored against the reward set as a list of edit sets: systems, then vote
    candidates, then the grown set are selected by first maximum.  Vote
    candidates come from ``bf_vote_set`` and every score from ``bf_expected``.
    """
    systems = list(systems)
    sets = [candidate.edit_set for candidate in systems]
    votes = [Candidate(bf_vote_set(sets, m), f"vote-{m}") for m in range(1, len(sets) + 1)]
    reward_cands = systems + votes if config.reward_set == "base+votes" else systems
    references = [candidate.edit_set for candidate in reward_cands]

    def expected_reward(edit_set):
        return bf_expected(config.reward.kind, references, edit_set, config.reward.beta)

    working = votes[-1].edit_set
    threshold = min(config.greedy_pool_threshold, len(systems))
    pool = [edit for edit in votes[threshold - 1].edit_set if edit not in working]
    current = expected_reward(working)
    trace = []
    while pool:
        best_index = -1
        best_set = None
        best_score = current
        for index, edit in enumerate(pool):
            if any(bf_conflicts(edit, kept) for kept in working):
                continue
            candidate_set = EditSet(working.source_len, working.edits + (edit,))
            score = expected_reward(candidate_set)
            if score > best_score:
                best_index, best_set, best_score = index, candidate_set, score
        if best_index < 0:
            break
        trace.append(GreedyStep(pool[best_index], current, best_score))
        working, current = best_set, best_score
        del pool[best_index]
    selection = tuple(systems + votes + [Candidate(working, "greedy")])
    scores = tuple(expected_reward(candidate.edit_set) for candidate in selection)
    best = scores.index(max(scores))
    return CombineResult(selection[best], selection, scores, tuple(trace))


def bf_lines(text: str) -> list[str]:
    """Split on ``\n`` only (a final ``\n`` ends the last line); drop one trailing ``\r``."""
    lines = [line.removesuffix("\r") for line in text.split("\n")]
    return lines[:-1] if lines[-1] == "" else lines


def bf_m2_int(text: str) -> int:
    """An M2 integer field: ASCII digits after at most one leading ``-``;
    ``ValueError`` for anything else ``int`` would take (``+1``, ``1_0``,
    non-ASCII digits, surrounding spaces)."""
    digits = text[1:] if text.startswith("-") else text
    if not digits or any(ch not in "0123456789" for ch in digits):
        raise ValueError(f"not an M2 integer: {text!r}")
    return int(text)


def bf_parse_m2(text: str) -> list[M2Entry]:
    """Parse M2 file content into entries, checking every line in full.

    Raises ``M2ParseError`` (with a line number) for malformed lines,
    out-of-range edit spans, or overlapping edits within one annotator.
    """
    entries: list[M2Entry] = []
    source: Sentence | None = None
    # Per annotator, each distinct edit with the type of its first line.
    pending: dict[int, dict[Edit, str]] = {}
    entry_line = 0

    def close() -> None:
        nonlocal source, pending
        if source is None:
            return
        annotations = []
        for annotator in sorted(pending):
            first_type = pending[annotator]
            try:
                edit_set = EditSet(len(source), tuple(first_type))
            except ValidationError as exc:
                raise M2ParseError(
                    f"entry at line {entry_line}, annotator {annotator}: {exc}"
                ) from exc
            types = tuple(first_type[edit] for edit in edit_set.edits)
            annotations.append(Annotation(annotator, edit_set, types))
        entries.append(M2Entry(source, tuple(annotations)))
        source = None
        pending = {}

    for line_no, line in enumerate(bf_lines(text), start=1):
        if not line.strip():
            close()
            continue
        if line == "S" or line.startswith("S "):
            close()
            try:
                source = Sentence(tuple(line[2:].split()))
            except ValidationError as exc:
                raise M2ParseError(f"line {line_no}: {exc}") from exc
            pending = {}
            entry_line = line_no
        elif line.startswith("A "):
            if source is None:
                raise M2ParseError(f"line {line_no}: annotation line before any source line")
            fields = line[2:].split("|||")
            if len(fields) != 6:
                raise M2ParseError(
                    f"line {line_no}: expected 6 '|||'-separated fields, got {len(fields)}"
                )
            span = fields[0].split()
            if len(span) != 2:
                raise M2ParseError(f"line {line_no}: edit span must be two integers")
            try:
                start, end = bf_m2_int(span[0]), bf_m2_int(span[1])
            except ValueError as exc:
                raise M2ParseError(f"line {line_no}: non-integer edit span") from exc
            try:
                annotator = bf_m2_int(fields[5].strip())
            except ValueError as exc:
                raise M2ParseError(f"line {line_no}: non-integer annotator id") from exc
            if annotator < 0:
                raise M2ParseError(f"line {line_no}: negative annotator id {annotator}")
            if start == -1 and end == -1:
                pending.setdefault(annotator, {})
                continue
            if not 0 <= start <= end <= len(source):
                raise M2ParseError(
                    f"line {line_no}: edit span {start} {end} out of range for "
                    f"source of {len(source)} tokens"
                )
            replacement_field = fields[2]
            replacement = (
                ()
                if replacement_field in (_EMPTY_REPLACEMENT, "")
                else tuple(replacement_field.split())
            )
            try:
                edit = Edit(start, end, replacement)
            except ValidationError as exc:
                raise M2ParseError(f"line {line_no}: {exc}") from exc
            pending.setdefault(annotator, {}).setdefault(edit, fields[1])
        else:
            raise M2ParseError(f"line {line_no}: unrecognized line {line[:40]!r}")
    close()
    return entries


def bf_splice(tokens, edit_set) -> list[str]:
    """``tokens`` with each edit's span replaced, right to left."""
    out = list(tokens)
    for edit in sorted(edit_set, reverse=True):
        out[edit.start : edit.end] = edit.replacement
    return out


def bf_format_m2(entries) -> str:
    """M2 text for ``(tokens, {annotator: (edit_set, type)})`` entries, edits
    in span order, an empty edit set as a ``noop`` line."""
    blocks = []
    for tokens, annotations in entries:
        lines = [" ".join(["S", *tokens])]
        for annotator, (edit_set, type_str) in annotations.items():
            if not len(edit_set):
                lines.append(f"A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
            for edit in sorted(edit_set):
                replacement = " ".join(edit.replacement) or "-NONE-"
                lines.append(
                    f"A {edit.start} {edit.end}|||{type_str}|||{replacement}"
                    f"|||REQUIRED|||-NONE-|||{annotator}"
                )
        blocks.append("\n".join(lines) + "\n\n")
    return "".join(blocks)


def bf_sentences(text: str) -> list[Sentence]:
    """One sentence per ``bf_lines`` line, split on whitespace."""
    return [Sentence(tuple(line.split())) for line in bf_lines(text)]


def bf_hypothesis_sets(sources, is_m2: bool, text: str) -> list[EditSet]:
    """One edit set per source sentence from a hypothesis file's text: an
    ``.m2`` file gives each entry's lowest-id annotator (no annotator: no
    edits), a text file each line's ``bf_edits`` against its source."""
    if is_m2:
        return [
            e.annotations[0].edits if e.annotations else EditSet(len(e.source))
            for e in bf_parse_m2(text)
        ]
    return [bf_edits(src, hyp) for src, hyp in zip(sources, bf_sentences(text))]


def bf_prf(tp: int, fp: int, fn: int, beta: float) -> tuple[float, float, float]:
    """Precision, recall and F-beta from edit counts.

    A zero denominator scores 1.0: an empty hypothesis has nothing to get
    wrong, an empty reference nothing to miss, and with no edits on either
    side F is 1.0.  F is taken from P and R in the scorer's operation order,
    so the floats, and the order of two annotators whose F ties exactly but
    rounds apart, are the scorer's own; with P = R = 0 it is 0.0.
    """
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    b2 = beta * beta
    f = (1.0 + b2) * precision * recall / (b2 * precision + recall) if precision or recall else 0.0
    return precision, recall, f


def bf_score(source_text, hypothesis, reference_text, beta, per_sentence) -> str:
    """The standard output of ``score`` (with ``--per-sentence`` when asked).

    ``hypothesis`` is ``(is_m2, text)``, read by ``bf_hypothesis_sets``; the
    reference is read by ``bf_parse_m2``.  Per sentence the annotator with
    the highest F wins, then the one with more true positives, then the
    earlier (lower-id) one.  The corpus line scores the summed counts of the
    winners.
    """
    hyps = bf_hypothesis_sets(bf_sentences(source_text), *hypothesis)

    def line(tp, fp, fn):
        precision, recall, f = bf_prf(tp, fp, fn, beta)
        return f"P {precision:.4f} R {recall:.4f} F{beta:g} {f:.4f}\n"

    out, totals = [], [0, 0, 0]
    for index, (hyp, entry) in enumerate(zip(hyps, bf_parse_m2(reference_text))):
        best = None
        for annotation in entry.annotations:
            tp = bf_intersection_size(annotation.edits, hyp)
            counts = (tp, len(hyp) - tp, len(annotation.edits) - tp)
            key = (bf_prf(*counts, beta)[2], tp)
            if best is None or key > best[0]:
                best = key, counts
        totals = [total + count for total, count in zip(totals, best[1])]
        if per_sentence:
            out.append(f"{index} " + line(*best[1]))
    return "".join(out) + line(*totals)


def bf_combine(source_text, systems, method, kind, reward_set, beta, pool_votes, out_format):
    """The output, ``--report`` lines and ``--trace`` JSONL of ``combine``.

    ``systems`` holds ``(label, is_m2, text)`` per hypothesis file.  A text
    system is aligned sentence by sentence with ``bf_edits``; an ``.m2``
    system gives each entry's lowest-id annotator (no annotator: no edits).
    ``mbr`` selects among the systems and ``mbr-vote`` adds ``bf_vote_set``'s
    candidates, both by first maximum of ``bf_expected``; ``greedy`` is
    ``bf_greedy``.
    """
    sources = bf_sentences(source_text)
    columns = [
        [Candidate(edit_set, label) for edit_set in bf_hypothesis_sets(sources, is_m2, text)]
        for label, is_m2, text in systems
    ]
    config = SimpleNamespace(
        reward=SimpleNamespace(kind=kind, beta=beta),
        reward_set=reward_set,
        greedy_pool_threshold=pool_votes,
    )
    results = []
    for cands in zip(*columns):
        cands = list(cands)
        if method == "greedy":
            results.append(bf_greedy(cands, config))
            continue
        sets = [c.edit_set for c in cands]
        votes = [Candidate(bf_vote_set(sets, m), f"vote-{m}") for m in range(1, len(sets) + 1)]
        refs = sets + [v.edit_set for v in votes] if reward_set == "base+votes" else sets
        selection = tuple(cands if method == "mbr" else cands + votes)
        scores = tuple(bf_expected(kind, refs, c.edit_set, beta) for c in selection)
        results.append(CombineResult(selection[scores.index(max(scores))], selection, scores))
    chosen = [result.chosen.edit_set for result in results]
    if out_format == "m2":
        output = bf_format_m2(
            (src.tokens, {0: (edit_set, "UNK")}) for src, edit_set in zip(sources, chosen)
        )
    else:
        output = "".join(
            " ".join(bf_splice(src.tokens, edits)) + "\n" for src, edits in zip(sources, chosen)
        )
    report = "".join(
        f"sent {index} chosen={result.chosen.label} "
        + " ".join(f"{c.label}={s:.6f}" for c, s in zip(result.selection, result.expected_rewards))
        + "\n"
        for index, result in enumerate(results)
    )
    trace = "".join(
        json.dumps(
            {
                "edit": {
                    "end": step.edit.end,
                    "replacement": list(step.edit.replacement),
                    "start": step.edit.start,
                },
                "reward_after": f"{step.reward_after:.6f}",
                "reward_before": f"{step.reward_before:.6f}",
                "sentence": index,
            }
        )
        + "\n"
        for index, result in enumerate(results)
        for step in result.trace
    )
    return output, report, trace
