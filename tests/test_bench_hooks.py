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
from edit_mbr.edit_core import Sentence
from edit_mbr.m2_io import Corpus, CorpusEntry
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
    return Corpus(tuple(entries))


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
    names = {span.name for span in tracer.spans()}
    assert {"combiner.combine_sentence", "rewards.expected_reward"} <= names
