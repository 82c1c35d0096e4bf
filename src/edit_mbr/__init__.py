"""Combine grammatical-error-correction system outputs in edit space.

Hypotheses for the same source sentence are represented as edit sets; a
single best correction is chosen by minimum Bayes' risk decoding with
edit-overlap rewards (recall, precision, F-beta, Jaccard), optionally over a
selection set enriched with max-voting combinations and a greedily grown
edit set.  Includes M2 and plain-text corpus I/O and an edit-level P/R/F
scorer.
"""

__version__ = "0.1.0"

from .combiner import (
    CombineConfig,
    CombineResult,
    GreedyStep,
    combine_corpus,
    combine_sentence,
    mbr_select,
    vote_candidates,
)
from .edit_core import (
    Candidate,
    CorpusEntry,
    Edit,
    EditSet,
    Sentence,
    ValidationError,
    apply_edits,
    conflicts,
    extract_batch,
    extract_edits,
    intersect,
    tokenize,
    vote_set,
)
from .m2_io import (
    Annotation,
    M2Entry,
    M2ParseError,
    emit_m2,
    load_parallel,
    load_sentences,
    parse_m2,
    primary_edit_set,
)
from .rewards import REWARD_KINDS, RewardConfig, expected_reward, reward
from .scorer import ScoreReport, score_corpus, score_sentence

__all__ = [
    "Annotation",
    "Candidate",
    "CombineConfig",
    "CombineResult",
    "CorpusEntry",
    "Edit",
    "EditSet",
    "GreedyStep",
    "M2Entry",
    "M2ParseError",
    "REWARD_KINDS",
    "RewardConfig",
    "ScoreReport",
    "Sentence",
    "ValidationError",
    "__version__",
    "apply_edits",
    "combine_corpus",
    "combine_sentence",
    "conflicts",
    "emit_m2",
    "expected_reward",
    "extract_batch",
    "extract_edits",
    "intersect",
    "load_parallel",
    "load_sentences",
    "mbr_select",
    "parse_m2",
    "primary_edit_set",
    "reward",
    "score_corpus",
    "score_sentence",
    "tokenize",
    "vote_candidates",
    "vote_set",
]
