"""The package attributes the traced benchmark run (``perfbench/child.py``)
replaces by name must exist and keep working under its wrappers.

The benchmark is only read from here: its ``perfbench/`` directory is put on
``sys.path`` and its wrapper list is built against the package.
"""

import random
import sys
from pathlib import Path

import pytest

from conftest import random_systems
from edit_mbr import cli, combiner, m2_io, rewards, scorer
from edit_mbr.combiner import CombineConfig, combine_corpus
from edit_mbr.edit_core import Sentence, tokenize
from edit_mbr.m2_io import CorpusEntry
from edit_mbr.rewards import RewardConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("child", "spans"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import child
    import spans

    return child, spans


def corpus(seed=0, sentences=20):
    rng = random.Random(seed)
    entries = []
    for _ in range(sentences):
        systems = random_systems(rng, n_systems=4)
        source = Sentence(tuple(f"s{i}" for i in range(systems[0].edit_set.source_len)))
        entries.append(CorpusEntry(source, tuple(systems)))
    return tuple(entries)


def test_wrappers_resolve_and_trace_combine_corpus(bench_modules):
    child, spans = bench_modules
    config = CombineConfig(
        strategy="greedy", reward=RewardConfig(kind="f"), reward_set="base+votes"
    )
    data = corpus()
    want = combine_corpus(data, config, threads=1)
    tracer = spans.Tracer()
    replacements = child._wrappers(tracer, cli, m2_io, combiner, rewards, scorer)
    with spans.patched(replacements):
        got = combine_corpus(data, config, threads=2)
    assert got == want
    counts = tracer.counts()
    wins = sum(counts.get(f"combiner.wins.{kind}", 0) for kind in ("system", "vote", "greedy"))
    assert wins == len(data)
    assert counts["combiner.greedy.rounds"] == sum(len(r.trace) for r in want)
    assert counts["combiner.selection_size.total"] == sum(len(r.selection) for r in want)
    names = [span.name for span in tracer.spans()]
    assert names.count("combiner.combine_sentence") == len(data)
    assert "rewards.expected_reward" not in names


@pytest.mark.parametrize("strategy", ["mbr", "mbr-vote", "greedy"])
def test_combine_corpus_reaches_neither_expected_reward_nor_mbr_select(bench_modules, strategy):
    # ``combine_sentence`` scores each candidate from the mask it already
    # holds, and picks through the selection rule ``mbr_select`` shares, so
    # neither traced name sees a call; both stay patchable by name.
    child, spans = bench_modules
    config = CombineConfig(
        strategy=strategy, reward=RewardConfig(kind="f"), reward_set="base+votes"
    )
    data = corpus(seed=1)
    tracer = spans.Tracer()
    replacements = child._wrappers(tracer, cli, m2_io, combiner, rewards, scorer)
    with spans.patched(replacements):
        results = combine_corpus(data, config)
    names = [span.name for span in tracer.spans()]
    assert names.count("combiner.combine_sentence") == len(results) == len(data)
    assert "rewards.expected_reward" not in names
    assert "combiner.mbr_select" not in names


def test_text_hypotheses_are_extracted_through_the_traced_name(bench_modules, tmp_path):
    child, spans = bench_modules
    sources = [tokenize(line) for line in ("a b c", "x y z w", "", "p q")]
    hyp_lines = ["a B c", "x y z w", "n", "q p q r"]
    hyp_path = tmp_path / "hyp.txt"
    hyp_path.write_text("".join(line + "\n" for line in hyp_lines), encoding="utf-8")
    want = m2_io.load_hypothesis_sets(hyp_path, sources, "src.txt")
    tracer = spans.Tracer()
    replacements = child._wrappers(tracer, cli, m2_io, combiner, rewards, scorer)
    with spans.patched(replacements):
        got = m2_io.load_hypothesis_sets(hyp_path, sources, "src.txt")
    assert got == want
    extract_spans = [span for span in tracer.spans() if span.name == "edit_core.extract_edits"]
    assert len(extract_spans) == len(hyp_lines)
    counts = tracer.counts()
    assert counts["edit_core.extract_edits.dp_cells"] == sum(
        (len(source) + 1) * (len(line.split()) + 1) for source, line in zip(sources, hyp_lines)
    )
    assert counts["edit_core.extract_edits.edits"] == sum(len(edit_set) for edit_set in want)
    assert counts["edit_core.extract_edits.identical"] == 1


REFERENCE_M2 = """\
S a b c
A 1 2|||R:NOUN|||B|||REQUIRED|||-NONE-|||0
A 1 2|||R:NOUN|||B|||REQUIRED|||-NONE-|||1

S x y
A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0

S p q r s
A 0 1|||U:DET|||-NONE-|||REQUIRED|||-NONE-|||1

"""


@pytest.mark.parametrize(
    "argv, m2_files",
    [
        (["score", "src.txt", "sys0.txt", "ref.m2"], 1),
        (["score", "src.txt", "sys0.m2", "ref.m2"], 2),
        (["combine", "src.txt", "sys0.m2", "sys1.m2", "--method", "greedy", "-o", "out.txt"], 2),
    ],
)
def test_each_m2_file_is_one_parse_span_counting_its_entries(
    bench_modules, tmp_path, monkeypatch, argv, m2_files
):
    child, spans = bench_modules
    monkeypatch.chdir(tmp_path)
    sources = ["a b c", "x y", "p q r s"]
    hypotheses = {"sys0": ["a B c", "x y", "q r s"], "sys1": ["a b c", "x", "p q r s"]}
    for name, lines in {"src": sources, **hypotheses}.items():
        Path(f"{name}.txt").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    for name in hypotheses:
        assert cli.main(["extract", "src.txt", f"{name}.txt", f"{name}.m2"]) == 0
    Path("ref.m2").write_text(REFERENCE_M2, encoding="utf-8")
    tracer = spans.Tracer()
    with spans.patched(child._wrappers(tracer, cli, m2_io, combiner, rewards, scorer)):
        assert cli.main(argv) == 0
    assert sum(span.name == "m2_io.parse_m2" for span in tracer.spans()) == m2_files
    assert tracer.counts()["m2_io.parse_m2.entries"] == m2_files * len(sources)


@pytest.mark.parametrize("out_format", ["text", "m2"])
def test_combine_output_is_one_emit_span_or_one_apply_call_per_sentence(
    bench_modules, tmp_path, monkeypatch, out_format
):
    # ``m2_io.emit_m2.s`` times the one M2 join of the output, and
    # ``edit_core.apply_edits.calls`` counts one applied edit set per line.
    child, spans = bench_modules
    monkeypatch.chdir(tmp_path)
    sources = ["a b c", "x y", "p q r s", ""]
    hypotheses = {"sys0": ["a B c", "x y", "q r s", "n"], "sys1": ["a b c", "x", "p q r s", ""]}
    for name, lines in {"src": sources, **hypotheses}.items():
        Path(f"{name}.txt").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    argv = ["combine", "src.txt", "sys0.txt", "sys1.txt", "--method", "greedy", "--trace", "t.jsonl"]
    tracer = spans.Tracer()
    with spans.patched(child._wrappers(tracer, cli, m2_io, combiner, rewards, scorer)):
        assert cli.main([*argv, "--out-format", out_format, "-o", "out"]) == 0
    names = [span.name for span in tracer.spans()]
    want = {"m2": (1, 0), "text": (0, len(sources))}[out_format]
    assert (names.count("m2_io.emit_m2"), names.count("edit_core.apply_edits")) == want
