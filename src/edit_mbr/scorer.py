"""Edit-level precision/recall/F scoring against reference annotations.

Matching is exact edit identity (span plus replacement).  Multi-annotator
references are handled per sentence: the annotator giving the hypothesis the
best sentence-level F is the one scored against.  Corpus scores micro-average
the per-sentence counts.  Zero denominators score 1.0 (nothing to get wrong),
matching the reward conventions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .edit_core import EditSet, check_source_len
from .rewards import check_beta


class ScoreReport(
    namedtuple("ScoreReport", "tp fp fn precision recall f beta per_sentence", defaults=(None,))
):
    """Edit counts with derived precision, recall, and F-beta; a corpus score
    holds its per-sentence reports in ``per_sentence``."""

    __slots__ = ()


def _from_counts(
    tp: int, fp: int, fn: int, beta: float, per_sentence=None
) -> ScoreReport:
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    denominator = beta * beta * precision + recall
    f = (1.0 + beta * beta) * precision * recall / denominator if denominator else 0.0
    return ScoreReport(tp, fp, fn, precision, recall, f, beta, per_sentence)


def score_sentence(hyp: EditSet, refs: Sequence[EditSet], beta: float = 0.5) -> ScoreReport:
    """Score one sentence against every annotator and keep the best one.

    The annotator maximizing sentence F wins; ties prefer more true
    positives, then the earlier annotator.  Every reference must be built
    for the hypothesis's source length (``ValidationError`` otherwise), and
    ``beta`` must pass ``rewards.check_beta`` (``ValueError`` otherwise).
    """
    check_beta(beta)
    if not refs:
        raise ValueError("need at least one reference annotator")
    hyp_edits = frozenset(hyp.edits)
    best: ScoreReport | None = None
    for ref in refs:
        check_source_len(hyp.source_len, ref)
        tp = len(hyp_edits.intersection(ref.edits))
        report = _from_counts(tp, len(hyp) - tp, len(ref) - tp, beta)
        if best is None or (report.f, report.tp) > (best.f, best.tp):
            best = report
    return best


def score_corpus(
    hyps: Sequence[EditSet], refs: Sequence[Sequence[EditSet]], beta: float = 0.5
) -> ScoreReport:
    """Micro-averaged corpus score: per-sentence best-annotator counts, summed.

    ``beta`` is checked as ``score_sentence`` checks it, also for an empty corpus.
    """
    check_beta(beta)
    if len(hyps) != len(refs):
        raise ValueError(
            f"hypothesis/reference length mismatch: {len(hyps)} vs {len(refs)}"
        )
    sentences = tuple(score_sentence(hyp, ref, beta) for hyp, ref in zip(hyps, refs))
    tp = sum(s.tp for s in sentences)
    fp = sum(s.fp for s in sentences)
    fn = sum(s.fn for s in sentences)
    return _from_counts(tp, fp, fn, beta, per_sentence=sentences)
