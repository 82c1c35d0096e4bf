"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line when its criterion holds (visible with -s);
pytest -v shows the same one-line-per-criterion outcome.  Criterion 11 needs
external system-output data and is skipped unless the EDIT_MBR_ACCEPT_*
environment variables point at it (see README).
"""

import hashlib
import os
import random
import time
from pathlib import Path

import pytest

from conftest import (
    bf_expected,
    bf_intersect,
    bf_vote_set,
    random_edit,
    random_edit_set,
    random_sentence,
    random_systems,
)
from edit_mbr.cli import main
from edit_mbr.combiner import (
    CombineConfig,
    combine_corpus,
    combine_sentence,
    mbr_select,
    vote_candidates,
)
from edit_mbr.edit_core import (
    Candidate,
    Edit,
    EditSet,
    apply_edits,
    conflicts,
    extract_edits,
)
from edit_mbr.m2_io import CorpusEntry, emit_m2, parse_m2, load_parallel
from edit_mbr.m2_io import Annotation, M2Entry
from edit_mbr.rewards import REWARD_KINDS, RewardConfig, expected_reward, reward
from edit_mbr.scorer import score_corpus

GOLDEN = Path(__file__).parent / "data" / "golden.m2"


def ok(line: str) -> None:
    print(f"ACCEPTANCE {line}: PASS")


def test_c01_extract_apply_round_trip():
    """1000 random sentence pairs survive extract -> apply exactly, in < 10 s."""
    rng = random.Random(101)
    started = time.monotonic()
    for _ in range(1000):
        source = random_sentence(rng, 0, 30, vocab=20)
        hypothesis = random_sentence(rng, 0, 30, vocab=20)
        assert apply_edits(source, extract_edits(source, hypothesis)) == hypothesis
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"round-trip suite took {elapsed:.1f}s"
    ok("C1 extract/apply round trip (1000 pairs)")


def test_c02_reward_oracle():
    """Rewards match a brute-force oracle to 1e-12; duality and symmetry are exact."""
    rng = random.Random(202)
    for _ in range(1000):
        source_len = rng.randint(0, 14)
        ref = random_edit_set(rng, source_len)
        hyp = random_edit_set(rng, source_len)
        for kind in REWARD_KINDS:
            for beta in (0.5, 1.0, 2.0):
                got = reward(ref, hyp, RewardConfig(kind=kind, beta=beta))
                want = bf_expected(kind, [ref.edits], hyp.edits, beta)
                assert abs(got - want) <= 1e-12
        precision = reward(ref, hyp, RewardConfig(kind="precision"))
        recall_swapped = reward(hyp, ref, RewardConfig(kind="recall"))
        assert precision == recall_swapped
        dice = reward(ref, hyp, RewardConfig(kind="f", beta=1.0))
        dice_swapped = reward(hyp, ref, RewardConfig(kind="f", beta=1.0))
        assert dice == dice_swapped
    ok("C2 reward brute-force oracle (1000 pairs)")


def test_c03_mbr_fixture():
    """The three-system fixture selects h2/h3/h1 with the hand-computed rewards."""
    B = Edit(1, 2, ("B",))
    D = Edit(3, 3, ("d",))
    systems = [
        Candidate(EditSet(3, (B,)), "h1"),
        Candidate(EditSet(3, (B, D)), "h2"),
        Candidate(EditSet(3), "h3"),
    ]
    expectations = {
        "recall": ("h2", (0.8333, 1.0, 0.3333)),
        "precision": ("h3", (0.6667, 0.5, 1.0)),
        "f": ("h1", (0.6111, 0.5185, 0.3333)),
    }
    for kind, (label, rewards) in expectations.items():
        config = CombineConfig(reward=RewardConfig(kind=kind, beta=0.5))
        result = mbr_select(systems, systems, config)
        assert result.chosen.label == label
        assert result.expected_rewards == pytest.approx(rewards, abs=1e-4)
    ok("C3 MBR selection fixture")


def test_c04_voting_correctness():
    """On 500 random triples: vote-1 = union, vote-N = intersection, votes >= m."""
    rng = random.Random(404)
    for _ in range(500):
        systems = random_systems(rng, source_len=rng.randint(4, 10))
        sets = [c.edit_set for c in systems]
        votes = vote_candidates(systems)
        assert votes[0].edit_set == bf_vote_set(sets, 1)
        assert votes[-1].edit_set == bf_intersect(sets)
        for m, candidate in enumerate(votes, start=1):
            for edit in candidate.edit_set:
                assert sum(edit in s for s in sets) >= m
    ok("C4 voting correctness (500 triples)")


def test_c05_greedy_vs_exhaustive():
    """Greedy never beats exhaustive subset search and never falls below the intersection."""
    rng = random.Random(505)
    started = time.monotonic()
    commits = 0
    for _ in range(200):
        systems = random_systems(
            rng,
            source_len=rng.randint(8, 14),
            pool_size=rng.choice([6, 8, 10, 12]),
            take=rng.uniform(0.4, 0.7),
        )
        sets = [c.edit_set for c in systems]
        kind = rng.choice(["f", "recall", "precision", "jaccard"])
        beta = rng.choice([0.5, 1.0])
        threshold = rng.choice([1, 2])
        config = CombineConfig(
            strategy="greedy",
            reward=RewardConfig(kind=kind, beta=beta),
            greedy_pool_threshold=threshold,
        )
        result = combine_sentence(systems, config)
        greedy_score = result.expected_rewards[-1]  # greedy candidate is last

        base = bf_intersect(sets)
        pool = [e for e in bf_vote_set(sets, min(threshold, len(sets))) if e not in base]
        assert len(pool) <= 12
        references = [s.edits for s in sets]
        base_edits = list(base.edits)
        best = -1.0
        for mask in range(1 << len(pool)):
            subset = base_edits + [pool[i] for i in range(len(pool)) if mask >> i & 1]
            clash = any(
                conflicts(a, b) for i, a in enumerate(subset) for b in subset[i + 1 :]
            )
            if clash:
                continue
            best = max(best, bf_expected(kind, references, subset, beta))
        intersection_score = expected_reward(base, sets, config.reward)
        assert greedy_score <= best + 1e-12
        assert greedy_score >= intersection_score
        previous = None
        for step in result.trace:
            assert step.reward_after > step.reward_before
            if previous is not None:
                assert step.reward_before == previous.reward_after
            previous = step
        if result.trace:
            commits += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"greedy-vs-exhaustive suite took {elapsed:.1f}s"
    assert commits > 0, "suite never exercised a greedy insertion"
    ok(f"C5 greedy vs exhaustive oracle (200 instances, {commits} with insertions)")


def test_c06_selection_set_monotonicity():
    """Richer selection sets never lower the attainable expected reward (exact)."""
    rng = random.Random(606)
    for _ in range(500):
        systems = random_systems(rng, source_len=rng.randint(4, 10))
        kind = rng.choice(["f", "recall", "precision", "jaccard"])
        base = mbr_select(
            systems, systems, CombineConfig(reward=RewardConfig(kind=kind, beta=0.5))
        )
        voted = combine_sentence(
            systems,
            CombineConfig(strategy="mbr-vote", reward=RewardConfig(kind=kind, beta=0.5)),
        )
        greedy = combine_sentence(
            systems,
            CombineConfig(strategy="greedy", reward=RewardConfig(kind=kind, beta=0.5)),
        )
        assert max(voted.expected_rewards) >= max(base.expected_rewards)
        assert max(greedy.expected_rewards) >= max(voted.expected_rewards)
    ok("C6 selection-set monotonicity (500 instances)")


def _spurious_edit(rng, source_len, taken, vocab=12):
    for _ in range(50):
        edit = random_edit(rng, source_len, vocab=vocab)
        if not any(edit == t or conflicts(edit, t) for t in taken):
            return edit
    return None


def _corruption_corpus(rng, n_sentences=20):
    """Reference plus (high-precision, balanced, high-recall) corruptions of it."""
    entries = []
    references = []
    for _ in range(n_sentences):
        source = random_sentence(rng, 8, 14, vocab=12)
        ref = random_edit_set(rng, len(source), max_edits=4)
        while len(ref) < 3:
            ref = random_edit_set(rng, len(source), max_edits=4)
        ref_edits = list(ref.edits)

        hp_edits = rng.sample(ref_edits, 1)

        bal_edits = rng.sample(ref_edits, 2)
        extra = _spurious_edit(rng, len(source), ref_edits + bal_edits)
        if extra is not None:
            bal_edits.append(extra)

        hr_edits = list(ref_edits)
        for _ in range(2):
            extra = _spurious_edit(rng, len(source), hr_edits)
            if extra is not None:
                hr_edits.append(extra)

        systems = (
            Candidate(EditSet(len(source), tuple(hp_edits)), "high-precision"),
            Candidate(EditSet(len(source), tuple(bal_edits)), "balanced"),
            Candidate(EditSet(len(source), tuple(hr_edits)), "high-recall"),
        )
        entries.append(CorpusEntry(source, systems))
        references.append([ref])
    return entries, references


def test_c07_reward_choice_controls_precision_recall_tradeoff():
    """Precision-reward MBR scores higher precision, recall-reward higher recall."""
    rng = random.Random(707)
    precision_violations = 0
    recall_violations = 0
    for _ in range(100):
        corpus, references = _corruption_corpus(rng)
        scores = {}
        for kind in ("precision", "recall"):
            config = CombineConfig(reward=RewardConfig(kind=kind, beta=0.5))
            results = combine_corpus(corpus, config)
            chosen = [r.chosen.edit_set for r in results]
            scores[kind] = score_corpus(chosen, references, beta=0.5)
        if scores["precision"].precision < scores["recall"].precision:
            precision_violations += 1
        if scores["recall"].recall < scores["precision"].recall:
            recall_violations += 1
    assert precision_violations <= 5, f"{precision_violations} precision violations"
    assert recall_violations <= 5, f"{recall_violations} recall violations"
    ok(
        "C7 precision/recall trade-off direction "
        f"({precision_violations}/{recall_violations} violations over 100 corpora)"
    )


def test_c08_scorer_fixture_and_self_scoring():
    """Micro-average fixture gives exactly 2/3; self-scoring is exactly perfect."""
    B = Edit(1, 2, ("B",))
    D = Edit(3, 3, ("d",))
    X = Edit(0, 1, ("X",))
    hyps = [EditSet(4, (B,)), EditSet(4, (B, X))]
    refs = [[EditSet(4, (B, D))], [EditSet(4, (B,))]]
    report = score_corpus(hyps, refs, beta=0.5)
    assert (report.tp, report.fp, report.fn) == (2, 1, 1)
    for value in (report.precision, report.recall, report.f):
        assert value == pytest.approx(2 / 3, abs=1e-9)

    rng = random.Random(808)
    for _ in range(50):
        corpus = [random_edit_set(rng, 8) for _ in range(10)]
        self_report = score_corpus(corpus, [[c] for c in corpus], beta=0.5)
        assert self_report.f == 1.0
        assert self_report.fp == 0 and self_report.fn == 0
    ok("C8 scorer fixture and self-scoring")


def test_c09_m2_round_trip():
    """parse(emit(x)) == x on 100 random entries; golden file re-emits byte-exact."""
    rng = random.Random(909)
    types = ["UNK", "R:VERB", "M:DET", "U:PREP"]
    for _ in range(100):
        source = random_sentence(rng, 0, 12, vocab=9)
        annotations = []
        for annotator in sorted(rng.sample(range(4), rng.randint(0, 3))):
            edits = random_edit_set(rng, len(source))
            annotations.append(
                Annotation(
                    annotator, edits, tuple(rng.choice(types) for _ in range(len(edits)))
                )
            )
        entry = M2Entry(source, tuple(annotations))
        assert parse_m2(emit_m2([entry])) == [entry]

    raw_bytes = GOLDEN.read_bytes()
    re_emitted = emit_m2(parse_m2(raw_bytes.decode("utf-8"))).encode("utf-8")
    assert re_emitted == raw_bytes
    ok("C9 M2 round trip (100 entries + golden file)")


def test_c10_combine_determinism(tmp_path):
    """combine output digests are identical across 3 runs and threads 1/4/8."""
    rng = random.Random(1010)
    n_lines = 12
    sources = [random_sentence(rng, 3, 12, vocab=10) for _ in range(n_lines)]
    src_path = tmp_path / "src.txt"
    src_path.write_text("".join(s.text() + "\n" for s in sources), encoding="utf-8")
    hyp_paths = []
    for h in range(3):
        lines = []
        for source in sources:
            edit_set = random_edit_set(rng, len(source), vocab=10)
            lines.append(apply_edits(source, edit_set).text())
        path = tmp_path / f"hyp{h}.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        hyp_paths.append(path)

    digests = set()
    for threads in (1, 4, 8):
        for run in range(3):
            out = tmp_path / f"out-{threads}-{run}.txt"
            argv = [
                "combine", str(src_path), *[str(p) for p in hyp_paths],
                "-o", str(out), "--method", "greedy", "--reward", "f",
                "--threads", str(threads),
            ]
            assert main(argv) == 0
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1
    ok("C10 combine determinism across runs and thread counts")


def test_c11_external_data_direction_check(tmp_path):
    """Optional: on user-supplied system outputs, combined F0.5 beats every system.

    Set EDIT_MBR_ACCEPT_SRC (source text), EDIT_MBR_ACCEPT_HYPS
    (path-separator-joined hypothesis files), and EDIT_MBR_ACCEPT_REF
    (reference M2) to enable.
    """
    src = os.environ.get("EDIT_MBR_ACCEPT_SRC")
    hyps = os.environ.get("EDIT_MBR_ACCEPT_HYPS")
    ref = os.environ.get("EDIT_MBR_ACCEPT_REF")
    if not (src and hyps and ref):
        pytest.skip("external system outputs not configured")
    hyp_paths = hyps.split(os.pathsep)

    corpus = load_parallel(src, hyp_paths)
    ref_entries = parse_m2(Path(ref).read_text(encoding="utf-8"))
    references = [[ann.edits for ann in entry.annotations] for entry in ref_entries]

    config = CombineConfig(strategy="mbr", reward=RewardConfig(kind="f", beta=0.5))
    results = combine_corpus(corpus, config)
    combined = score_corpus([r.chosen.edit_set for r in results], references, beta=0.5)
    for index in range(len(hyp_paths)):
        single = score_corpus(
            [entry.systems[index].edit_set for entry in corpus],
            references,
            beta=0.5,
        )
        assert combined.f >= single.f, (
            f"combined F0.5 {combined.f:.4f} below system {index} ({single.f:.4f})"
        )
    ok("C11 external-data direction check")
