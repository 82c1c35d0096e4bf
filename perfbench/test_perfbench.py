"""Tests of the benchmark's own machinery: the corpus generator, the span
arithmetic and the output check.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import run
import spans
import synth

sys.path.insert(0, str(run.ROOT / "src"))
from edit_mbr.m2_io import parse_m2  # noqa: E402  (only to validate generated M2)


def _small(name: str, sentences: int = 150) -> run.Workload:
    workload = run.WORKLOADS[name]
    return dataclasses.replace(workload, shape=dataclasses.replace(workload.shape, sentences=sentences))


def _lines(data: bytes) -> list[tuple[str, ...]]:
    return [tuple(line.split()) for line in data.decode("utf-8").split("\n")[:-1]]


def _m2_entries(data: bytes) -> list[tuple[tuple[str, ...], dict[int, list]]]:
    entries = []
    for block in data.decode("utf-8").split("\n\n")[:-1]:
        head, *annotations = block.split("\n")
        by_annotator: dict[int, list] = {}
        for line in annotations:
            span, _type, replacement, _req, _none, annotator = line[2:].split("|||")
            start, end = map(int, span.split())
            edits = by_annotator.setdefault(int(annotator), [])
            if start >= 0:
                edits.append((start, end, tuple(replacement.split()) if replacement != "-NONE-" else ()))
        entries.append((tuple(head[2:].split()), by_annotator))
    return entries


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    workload = _small(name)
    first, again, other = workload.corpus(3), workload.corpus(3), workload.corpus(4)
    assert first.files == again.files
    assert first.sha256() == again.sha256()
    assert other.sha256() != first.sha256()


def test_text_mbr_vote_shape():
    workload = run.WORKLOADS["text-mbr-vote"]
    corpus = workload.corpus(0)
    sources = _lines(corpus.files["src.txt"])
    assert len(sources) == workload.shape.sentences
    assert all(10 <= len(tokens) <= 40 for tokens in sources)
    identical = total = 0
    for index in range(5):
        hyps = _lines(corpus.files[f"sys{index}.txt"])
        assert len(hyps) == len(sources)
        identical += sum(h == s for h, s in zip(hyps, sources))
        total += len(hyps)
    assert 0.06 <= identical / total <= 0.12
    assert identical / total == pytest.approx(corpus.identical_share)
    assert 0 <= corpus.gold_per_sentence <= 6


def test_m2_greedy_shape():
    workload = _small("m2-greedy", 300)
    corpus = workload.corpus(0)
    sources = _lines(corpus.files["src.txt"])
    assert all(15 <= len(tokens) <= 50 for tokens in sources)
    assert 3 <= corpus.gold_per_sentence <= 12
    for index in range(8):
        data = corpus.files[f"sys{index}.m2"]
        entries = _m2_entries(data)
        assert [tokens for tokens, _ in entries] == sources
        for tokens, by_annotator in entries:
            edits = by_annotator[0]
            assert all(0 <= s <= e <= len(tokens) for s, e, _ in edits)
            assert not any(
                synth.clash(a, b) for i, a in enumerate(edits) for b in edits[i + 1:]
            )
        assert len(parse_m2(data.decode("utf-8"))) == len(sources)


def test_score_long_shape():
    workload = _small("score-long", 300)
    corpus = workload.corpus(0)
    sources = _lines(corpus.files["src.txt"])
    hyps = _lines(corpus.files["hyp.txt"])
    assert all(60 <= len(tokens) <= 120 for tokens in sources)
    assert not any(h == s for h, s in zip(hyps, sources))
    assert corpus.identical_share == 0
    assert 8 <= corpus.gold_per_sentence <= 20
    entries = _m2_entries(corpus.files["ref.m2"])
    assert [tokens for tokens, _ in entries] == sources
    assert all(sorted(by_annotator) == [0, 1, 2] for _, by_annotator in entries)
    parsed = parse_m2(corpus.files["ref.m2"].decode("utf-8"))
    assert all(len(entry.annotations) == 3 for entry in parsed)


def test_apply_and_clash():
    tokens = ("a", "b", "c")
    assert synth.apply(tokens, [(1, 2, ("x",)), (3, 3, ("d",)), (0, 0, ("z",))]) == (
        "z", "a", "x", "c", "d")
    assert synth.clash((0, 2, ()), (1, 1, ("x",)))
    assert synth.clash((1, 1, ("x",)), (1, 1, ("y",)))
    assert not synth.clash((1, 1, ("x",)), (1, 2, ("y",)))
    assert not synth.clash((0, 1, ()), (1, 2, ()))


def test_self_time_of_nested_spans():
    trace = [
        spans.Span(0, None, "outer", 0.0, 10.0),
        spans.Span(1, 0, "mid", 1.0, 4.0),
        spans.Span(2, 1, "leaf", 2.0, 3.0),
        spans.Span(3, 0, "leaf", 5.0, 6.0),
    ]
    own = spans.self_times(trace)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    totals = spans.layer_totals(trace)
    assert totals["leaf"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert totals["outer"]["self_s"] == 6.0


def test_self_time_counts_overlapping_children_once():
    # Two worker threads under one parent: [1, 6] and [3, 8] cover 7 of 10 s.
    trace = [
        spans.Span(0, None, "fanout", 0.0, 10.0),
        spans.Span(1, 0, "work", 1.0, 6.0),
        spans.Span(2, 0, "work", 3.0, 8.0),
        spans.Span(3, 0, "work", 9.5, 11.0),  # clipped to the parent's end
    ]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(10.0 - 7.0 - 0.5)
    assert spans.covered_length([(1, 6), (3, 8), (9.5, 11)], 0, 10) == pytest.approx(7.5)
    assert spans.covered_length([], 0, 10) == 0.0


def test_tracer_links_worker_threads_to_the_fanout_span():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=5)

    def leaf():
        time.sleep(0.01)

    traced_leaf = tracer.span("leaf", leaf)

    def work(_):
        barrier.wait()  # both workers run at once
        traced_leaf()

    traced_work = tracer.span("work", work)

    def fanout():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(traced_work, range(2)))

    tracer.span("fanout", fanout)()
    trace = tracer.spans()
    by_name = {}
    for span in trace:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["fanout"]
    assert root.parent is None
    assert [s.parent for s in by_name["work"]] == [root.id, root.id]
    work_ids = {s.id for s in by_name["work"]}
    assert {s.parent for s in by_name["leaf"]} == work_ids
    own = spans.self_times(trace)
    covered = spans.covered_length([(s.start, s.end) for s in by_name["work"]], root.start, root.end)
    assert own[root.id] == pytest.approx(root.end - root.start - covered)
    # The workers overlap, so the union is shorter than the summed durations.
    assert covered < sum(s.end - s.start for s in by_name["work"])
    counted = tracer.count("hot", lambda: None)
    for _ in range(3):
        counted()
    assert tracer.counts() == {"hot.calls": 3}


def test_patched_restores_attributes():
    module = type(sys)("fake")
    module.f = original = lambda: 1
    with spans.patched([(module, "f", lambda: 2)]):
        assert module.f() == 2
    assert module.f is original


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_one_byte_change_is_caught(name):
    workload = run.WORKLOADS[name]
    output = {
        None: b"P 0.5000 R 0.2500 F0.5 0.4167\n",
        "out.txt": b"a b c\n" * 5,
        "out.m2": b"S a b\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n" * 5,
    }[workload.output]
    expected = run.digest(output)
    assert run.output_matches(output, expected)
    assert run.output_shape_ok(workload, output, 1 if workload.output is None else 5)
    for position in (0, len(output) // 2, len(output) - 1):
        changed = bytearray(output)
        changed[position] ^= 0x01
        assert not run.output_matches(bytes(changed), expected)


def test_changed_output_fails_every_sentence_of_the_run(monkeypatch):
    workload = _small("score-long", 40)
    good = run.measure(workload, 0, 1, trace=False)
    assert good["correct"] and good["failed"] == 0 and good["attempted"] >= 40
    (recorded,) = good["output_sha256"]
    monkeypatch.setattr(run, "recorded_digest", lambda *args: recorded)
    child = run.Session.child

    def one_byte_off(self, mode):
        result = child(self, mode)
        if result and "output" in result:
            changed = bytearray(result["output"])
            changed[0] ^= 0x01
            result["output"] = bytes(changed)
        return result

    monkeypatch.setattr(run.Session, "child", one_byte_off)
    bad = run.measure(workload, 0, 1, trace=False)
    assert not bad["correct"]
    assert bad["failed"] == bad["attempted"] >= 40


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "score-long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
