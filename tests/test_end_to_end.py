"""``combine`` end to end against ``bf_combine``, the brute-force oracle.

The corpora are small and drawn to hold empty lines, identical systems,
clashing insertions at one point, and text and ``.m2`` systems side by side;
``.m2`` systems may carry several annotators, or none.  Every method, reward
kind, reward set, beta and output format is drawn, and the output file, the
``--report`` lines and the ``--trace`` JSONL must equal the oracle's bytes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bf_combine, bf_conflicts, bf_format_m2, bf_splice, random_edit
from edit_mbr.cli import main
from edit_mbr.combiner import REWARD_SET_SPECS, STRATEGIES
from edit_mbr.edit_core import Edit, EditSet
from edit_mbr.rewards import REWARD_KINDS

# Annotator ids of an ``.m2`` entry; the first is the system's own edits.
_ANNOTATORS = [(0,), (3, 1), (2, 5), ()]


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
        point = rng.randint(0, len(tokens))
        pool = [Edit(point, point, ("x",)), Edit(point, point, ("y",))]
        pool += [random_edit(rng, len(tokens), vocab=3) for _ in range(rng.randint(0, 6))]
        row = []
        for _ in range(n_systems):
            rng.shuffle(pool)
            kept, take = [], rng.uniform(0.2, 0.9)
            for edit in pool:
                if rng.random() < take and not any(edit == k or bf_conflicts(edit, k) for k in kept):
                    kept.append(edit)
            row.append(EditSet(len(tokens), tuple(kept)))
        rows.append(row)
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
