"""``combine`` and ``score`` end to end against ``bf_combine`` and
``bf_score``, the brute-force oracles.

The corpora are small and drawn to hold empty lines, identical systems,
clashing insertions at one point, and text and ``.m2`` systems side by side;
``.m2`` systems may carry several annotators, or none.  Every method, reward
kind, reward set, beta and output format is drawn, and the output file, the
``--report`` lines and the ``--trace`` JSONL must equal the oracle's bytes.
``score`` is drawn the same way against references of one to three
annotators, with copied and no-op annotators among them, so annotators tie
on F; its standard output, with and without ``--per-sentence``, must equal
the oracle's bytes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bf_combine, bf_conflicts, bf_format_m2, bf_score, bf_splice, random_edit
from edit_mbr.cli import main
from edit_mbr.combiner import REWARD_SET_SPECS, STRATEGIES
from edit_mbr.edit_core import Edit, EditSet
from edit_mbr.rewards import REWARD_KINDS

# Annotator ids of an ``.m2`` entry; the first is the system's own edits.
_ANNOTATORS = [(0,), (3, 1), (2, 5), ()]


def _edit_pool(rng, source_len):
    """Edits to draw a sentence's edit sets from: two clashing insertions at
    one point and up to six random edits."""
    point = rng.randint(0, source_len)
    pool = [Edit(point, point, ("x",)), Edit(point, point, ("y",))]
    return pool + [random_edit(rng, source_len, vocab=3) for _ in range(rng.randint(0, 6))]


def _subset(rng, pool, source_len):
    """A conflict-free random subset of ``pool`` (shuffled in place)."""
    rng.shuffle(pool)
    kept, take = [], rng.uniform(0.2, 0.9)
    for edit in pool:
        if rng.random() < take and not any(edit == k or bf_conflicts(edit, k) for k in kept):
            kept.append(edit)
    return EditSet(source_len, tuple(kept))


@st.composite
def _corpora(draw):
    """Source text and ``(name, is_m2, text)`` per system file."""
    rng = draw(st.randoms(use_true_random=False))
    lengths = draw(st.lists(st.sampled_from([4, 0, 1, 7, 10]), min_size=1, max_size=4))
    n_systems = draw(st.sampled_from([4, 5, 3, 2, 1]))
    is_m2 = [draw(st.booleans()) for _ in range(n_systems)]
    # One in four later systems repeats an earlier one's file, format and all.
    copy_of = [
        draw(st.integers(0, i - 1)) if i and draw(st.integers(0, 3)) == 0 else None
        for i in range(n_systems)
    ]
    sources = [tuple(f"t{rng.randrange(4)}" for _ in range(n)) for n in lengths]
    rows = []  # per sentence, one edit set per system
    for tokens in sources:
        pool = _edit_pool(rng, len(tokens))
        rows.append([_subset(rng, pool, len(tokens)) for _ in range(n_systems)])
    texts = []
    for index in range(n_systems):
        if copy_of[index] is not None:
            texts.append(texts[copy_of[index]])
            is_m2[index] = is_m2[copy_of[index]]
        elif is_m2[index]:
            entries = []
            for tokens, row in zip(sources, rows):
                ids = rng.choice(_ANNOTATORS)
                others = [EditSet(len(tokens))] + [EditSet(len(tokens), (e,)) for e in row[0]]
                annotations = {
                    annotator: (row[index] if n == 0 else rng.choice(others), "R:X")
                    for n, annotator in enumerate(ids)
                }
                entries.append((tokens, annotations))
            texts.append(bf_format_m2(entries))
        else:
            texts.append(
                "".join(
                    " ".join(bf_splice(tokens, row[index])) + "\n"
                    for tokens, row in zip(sources, rows)
                )
            )
    source_text = "".join(" ".join(tokens) + "\n" for tokens in sources)
    names = [f"h{i}.m2" if m2 else f"h{i}.txt" for i, m2 in enumerate(is_m2)]
    return source_text, list(zip(names, is_m2, texts))


def _greedy_wins():
    """One sentence and four ``.m2`` systems on which ``greedy`` (``f``, beta
    0.5, pool votes 1) grows a set that no system or vote set equals, and
    selects it: drawn corpora this small rarely give the grown set the win."""
    tokens = ("t0", "t1", "t2", "t3", "t4", "t5")
    cut, a, b, c = Edit(0, 3, ()), Edit(2, 2, ("w0",)), Edit(4, 4, ("w0",)), Edit(6, 6, ("w1",))
    sets = [(a, b, c), (cut, b, c), (cut, b), (a,)]
    return " ".join(tokens) + "\n", [
        (f"h{i}.m2", True, bf_format_m2([(tokens, {0: (EditSet(6, edits), "R:X")})]))
        for i, edits in enumerate(sets)
    ]


class TestCombineMatchesOracle:
    @pytest.mark.parametrize("method", STRATEGIES)
    @settings(max_examples=100, deadline=None)
    @example(
        corpus=_greedy_wins(), kind="f", reward_set="base", beta=0.5, pool_votes=1, out_format="text"
    )
    @given(
        corpus=_corpora(),
        kind=st.sampled_from(REWARD_KINDS),
        reward_set=st.sampled_from(REWARD_SET_SPECS),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
        pool_votes=st.integers(1, 3),
        out_format=st.sampled_from(["text", "m2"]),
    )
    def test_output_report_and_trace_bytes(
        self, corpus, method, kind, reward_set, beta, pool_votes, out_format
    ):
        source_text, systems = corpus
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src.txt").write_text(source_text, encoding="utf-8")
            for name, _, text in systems:
                (root / name).write_text(text, encoding="utf-8")
            out, trace = root / "out", root / "trace.jsonl"
            argv = ["combine", str(root / "src.txt"), *(str(root / n) for n, _, _ in systems)]
            argv += ["-o", str(out), "--trace", str(trace), "--report", "--method", method]
            argv += ["--reward", kind, "--reward-set", reward_set, "--beta", str(beta)]
            argv += ["--pool-votes", str(pool_votes), "--out-format", out_format]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert main(argv) == 0
            expected = bf_combine(
                source_text,
                [(name.split(".")[0], m2, text) for name, m2, text in systems],
                method, kind, reward_set, beta, pool_votes, out_format,
            )
            assert out.read_bytes() == expected[0].encode("utf-8")
            assert stdout.getvalue() == expected[1]
            assert trace.read_bytes() == expected[2].encode("utf-8")


@st.composite
def _scored_corpora(draw):
    """Source text, the hypothesis as ``(name, is_m2, text)``, and the
    reference's M2 text.

    Each reference entry has one to three annotators, written in a drawn id
    order: a drawn edit set, a no-op, or a copy of an earlier annotator.
    Copies tie on F and true positives, and a no-op ties an annotator that
    shares no edit with the hypothesis on both, so the lower id must win."""
    rng = draw(st.randoms(use_true_random=False))
    lengths = draw(st.lists(st.sampled_from([4, 0, 1, 7, 10]), min_size=1, max_size=4))
    is_m2 = draw(st.booleans())
    sources = [tuple(f"t{rng.randrange(4)}" for _ in range(n)) for n in lengths]
    hyp_entries, ref_entries, lines = [], [], []
    for tokens in sources:
        pool = _edit_pool(rng, len(tokens))
        hyp = _subset(rng, pool, len(tokens))
        others = [EditSet(len(tokens)), _subset(rng, pool, len(tokens))]
        # The hypothesis is its entry's lowest-id annotator, as in ``_corpora``.
        ids = rng.choice(_ANNOTATORS)
        annotations = {a: (hyp if n == 0 else rng.choice(others), "R:X") for n, a in enumerate(ids)}
        hyp_entries.append((tokens, annotations))
        lines.append(" ".join(bf_splice(tokens, hyp)) + "\n")
        annotators = []
        for _ in range(rng.randint(1, 3)):
            choice = rng.randrange(4)
            if choice == 0 and annotators:
                annotators.append(rng.choice(annotators))
            elif choice == 1:
                annotators.append(EditSet(len(tokens)))
            else:
                annotators.append(_subset(rng, pool, len(tokens)))
        ids = rng.sample(range(6), len(annotators))
        ref_entries.append((tokens, {a: (edits, "R:X") for a, edits in zip(ids, annotators)}))
    source_text = "".join(" ".join(tokens) + "\n" for tokens in sources)
    hypothesis = ("hyp.m2", True, bf_format_m2(hyp_entries)) if is_m2 else (
        "hyp.txt", False, "".join(lines)
    )
    return source_text, hypothesis, bf_format_m2(ref_entries)


def _tied_f():
    """One sentence whose two annotators tie on F1 exactly (2/3 each): id 0
    shares one of the hypothesis's two edits and misses none, id 1 shares
    both and misses two.  More true positives win, so id 1 is scored."""
    tokens = tuple(f"t{i}" for i in range(8))
    a, b, c, d = (Edit(i, i + 1, ("x",)) for i in (0, 2, 4, 6))  # apart, so none merge
    hyp_text = " ".join(bf_splice(tokens, EditSet(8, (a, b)))) + "\n"
    reference = {0: (EditSet(8, (a,)), "R:X"), 1: (EditSet(8, (a, b, c, d)), "R:X")}
    source_text = " ".join(tokens) + "\n"
    return source_text, ("hyp.txt", False, hyp_text), bf_format_m2([(tokens, reference)])


class TestScoreMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @example(corpus=_tied_f(), beta=1.0)
    @given(corpus=_scored_corpora(), beta=st.sampled_from([0.5, 1.0, 2.0]))
    def test_standard_output_bytes(self, corpus, beta):
        source_text, (name, is_m2, hyp_text), reference_text = corpus
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "src.txt").write_text(source_text, encoding="utf-8")
            (root / name).write_text(hyp_text, encoding="utf-8")
            (root / "ref.m2").write_text(reference_text, encoding="utf-8")
            argv = ["score", str(root / "src.txt"), str(root / name), str(root / "ref.m2")]
            argv += ["--beta", str(beta)]
            for per_sentence in (False, True):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    assert main(argv + ["--per-sentence"] * per_sentence) == 0
                expected = bf_score(
                    source_text, (is_m2, hyp_text), reference_text, beta, per_sentence
                )
                assert stdout.getvalue() == expected
