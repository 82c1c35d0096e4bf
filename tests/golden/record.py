"""Record the golden-output digests that ``tests/test_golden.py`` replays.

    python3 tests/golden/record.py             # re-record expected.json
    python3 tests/golden/record.py --corpus    # rewrite tests/data/matrix too

Each case runs one CLI call in-process (``edit_mbr.cli.main``) in a fresh
directory holding copies of the corpus files its arguments name, and hashes
its exit code, standard output, standard error and every file it wrote.
Run it only on code whose outputs are known to be right: outputs must stay
byte-identical, so a digest recorded once holds for every later version
until a deliberate semantic fix, which re-records and names each changed
case in CHANGES.md.

The corpus under ``tests/data/matrix`` was written once by ``--corpus`` from
the benchmark's generator (``perfbench/synth.py``, seed 0) and is committed
as files, so a change to that generator cannot move it.  Over 50 sources it
holds five text systems (``hyp<i>.txt``), eight single-annotator M2 systems
(``sys<i>.m2``; ``sys7.m2`` has a byte-order mark and CRLF line ends), a
three-annotator reference (``ref.m2``) and the broken files the failing
cases read.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
CORPUS = ROOT / "tests" / "data" / "matrix"
EXPECTED = HERE / "expected.json"

TEXT_SYSTEMS = tuple(f"hyp{i}.txt" for i in range(5))
M2_SYSTEMS = tuple(f"sys{i}.m2" for i in range(8))
SYSTEMS = {"text": TEXT_SYSTEMS, "m2": M2_SYSTEMS}

# The core count of the host the digests were recorded on.
RECORDED_THREADS = "2"


def _cases() -> dict[str, tuple[int, tuple[str, ...]]]:
    """Case name -> (expected exit code, argv)."""
    cases: dict[str, tuple[int, tuple[str, ...]]] = {}

    def add(name: str, rc: int, *argv: str) -> None:
        cases[name] = (rc, argv)

    for method in ("mbr", "mbr-vote", "greedy"):
        for kind, systems in SYSTEMS.items():
            for out_format in ("text", "m2"):
                add(
                    f"combine-{method}-{kind}-to-{out_format}", 0,
                    "combine", "src.txt", *systems, "--method", method,
                    "--out-format", out_format, "--report", "--trace", "trace.jsonl",
                    "-o", f"out.{'txt' if out_format == 'text' else 'm2'}",
                )
    mixed = ("hyp0.txt", "sys1.m2", "hyp2.txt", "sys3.m2", "sys7.m2")
    add("combine-greedy-mixed-votes", 0, "combine", "src.txt", *mixed, "--method", "greedy",
        "--reward-set", "base+votes", "--report", "-o", "out.txt")
    add("combine-greedy-m2-jaccard", 0, "combine", "src.txt", *M2_SYSTEMS, "--method", "greedy",
        "--reward", "jaccard", "--pool-votes", "3", "--trace", "trace.jsonl", "-o", "out.txt")
    add("combine-mbr-vote-text-f-paper-2", 0, "combine", "src.txt", *TEXT_SYSTEMS,
        "--method", "mbr-vote", "--reward", "f-paper", "--beta", "2", "--report", "-o", "out.txt")
    add("combine-greedy-text-recall-votes", 0, "combine", "src.txt", *TEXT_SYSTEMS,
        "--method", "greedy", "--reward", "recall", "--reward-set", "base+votes",
        "--trace", "trace.jsonl", "-o", "out.m2", "--out-format", "m2")
    add("combine-mbr-vote-m2-precision-0.3", 0, "combine", "src.txt", *M2_SYSTEMS,
        "--method", "mbr-vote", "--reward", "precision", "--beta", "0.3", "--report",
        "-o", "out.txt")
    add("combine-greedy-m2-f1-votes", 0, "combine", "src.txt", *M2_SYSTEMS, "--method", "greedy",
        "--reward-set", "base+votes", "--beta", "1", "--report", "-o", "out.m2",
        "--out-format", "m2")
    add("combine-mbr-text-stdout", 0, "combine", "src.txt", *TEXT_SYSTEMS)
    # The reward sweep: every reward set x reward kind, each F kind at four betas.
    for reward_set in ("base", "base+votes"):
        for reward in ("recall", "precision", "f", "f-paper", "jaccard"):
            for beta in ("0.3", "0.5", "1", "2") if reward.startswith("f") else ("0.5",):
                for kind, systems in SYSTEMS.items():
                    add(
                        f"sweep-{reward_set}-{reward}-{beta}-{kind}", 0,
                        "combine", "src.txt", *systems, "--method", "greedy",
                        "--reward", reward, "--beta", beta, "--reward-set", reward_set,
                        "--report", "-o", "out.txt",
                    )

    add("score-text", 0, "score", "src.txt", "hyp0.txt", "ref.m2", "--per-sentence")
    add("score-m2", 0, "score", "src.txt", "sys0.m2", "ref.m2", "--per-sentence")
    add("score-m2-bom-crlf", 0, "score", "src.txt", "sys7.m2", "ref.m2", "--per-sentence",
        "--beta", "1", "--manifest", "score.json")
    add("apply-m2", 0, "apply", "src.txt", "sys0.m2", "out.txt")
    add("apply-bom-crlf", 0, "apply", "src.txt", "sys7.m2", "out.txt")
    add("apply-reference", 0, "apply", "src.txt", "ref.m2", "out.txt")
    add("apply-annotator-1-only", 0, "apply", "src.txt", "ann1.m2", "out.txt")
    add("extract-hyp0", 0, "extract", "src.txt", "hyp0.txt", "out.m2")
    add("extract-hyp3", 0, "extract", "src.txt", "hyp3.txt", "out.m2")

    later = ("combine", "src.txt", "sys0.m2")
    add("fail-later-source-differs", 2, *later, "bad_source.m2", "-o", "out.txt")
    add("fail-later-repeat-annotator-x", 2, *later, "bad_annotator.m2", "-o", "out.txt")
    add("fail-later-short-source-range", 2, *later, "bad_range.m2", "-o", "out.txt")
    add("fail-more-entries-than-sources", 2, *later, "extra_entry.m2", "-o", "out.txt")
    add("fail-five-fields", 2, *later, "bad_fields.m2", "-o", "out.txt")
    add("fail-conflicting-edits", 2, *later, "conflict.m2", "-o", "out.txt")
    add("fail-short-text-system", 2, "combine", "src.txt", "hyp0.txt", "short.txt", "-o", "out.txt")
    add("fail-score-reference-without-annotators", 2,
        "score", "src.txt", "sys0.m2", "noann_ref.m2")
    add("fail-score-m2-hypothesis-source-differs", 2,
        "score", "src.txt", "bad_source.m2", "ref.m2")
    add("fail-apply-more-entries", 2, "apply", "src.txt", "extra_entry.m2", "out.txt")
    add("fail-extract-short", 2, "extract", "src.txt", "short.txt", "out.m2")
    add("fail-report-without-out", 1, "combine", "src.txt", *TEXT_SYSTEMS, "--report")
    add("fail-bad-beta", 1, "combine", "src.txt", *M2_SYSTEMS, "--beta", "0", "-o", "out.txt")

    # File-argument plumbing: manifests beside every kind of output, the
    # recorded thread count, and each argument's name in a collision message.
    add("combine-greedy-stdout-manifest-trace", 0, "combine", "src.txt", *TEXT_SYSTEMS,
        "--method", "greedy", "--manifest", "m.json", "--trace", "t.jsonl")
    add("extract-manifest", 0, "extract", "src.txt", "hyp0.txt", "out.m2", "--manifest", "x.json")
    add("apply-manifest", 0, "apply", "src.txt", "sys0.m2", "out.txt", "--manifest", "x.json")
    add("combine-threads-3", 0, "combine", "src.txt", *M2_SYSTEMS, "--threads", "3",
        "-o", "out.txt")
    # EDIT_MBR_THREADS, set for every case, overrides even a negative flag.
    add("combine-threads-negative-env-overrides", 0, "combine", "src.txt", *M2_SYSTEMS,
        "--threads", "-1", "-o", "out.txt")
    add("fail-extract-out-is-manifest", 1, "extract", "src.txt", "hyp0.txt", "out.m2",
        "--manifest", "out.m2")
    add("fail-combine-out-is-trace", 1, "combine", "src.txt", *TEXT_SYSTEMS, "-o", "o.txt",
        "--trace", "o.txt")
    add("fail-combine-manifest-is-hypothesis", 1, "combine", "src.txt", *TEXT_SYSTEMS,
        "-o", "out.txt", "--manifest", "hyp1.txt")
    add("fail-score-manifest-is-reference", 1, "score", "src.txt", "sys0.m2", "ref.m2",
        "--manifest", "ref.m2")
    add("fail-apply-manifest-is-m2", 1, "apply", "src.txt", "sys0.m2", "out.txt",
        "--manifest", "sys0.m2")
    add("fail-apply-manifest-is-source", 1, "apply", "src.txt", "sys0.m2", "out.txt",
        "--manifest", "src.txt")
    add("fail-report-without-out-before-collision", 1, "combine", "src.txt", *TEXT_SYSTEMS,
        "--report", "--trace", "x", "--manifest", "x")
    return cases


CASES = _cases()


def run_case(argv, workdir: Path) -> dict:
    """Run one CLI call in ``workdir``, with the corpus files ``argv`` names
    copied in; return its exit code, output streams and written files."""
    from edit_mbr.cli import THREADS_ENV_VAR, main

    inputs = {arg for arg in argv if (CORPUS / arg).is_file()}
    for name in inputs:
        shutil.copyfile(CORPUS / name, workdir / name)
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        # A manifest records the resolved thread count, which defaults to the
        # host's cores; the count the digests were recorded with is pinned.
        with mock.patch.dict(os.environ, {THREADS_ENV_VAR: RECORDED_THREADS}), \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(list(argv))
            except SystemExit as exc:  # argparse's own usage errors
                rc = exc.code
    finally:
        os.chdir(cwd)
    files = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(workdir.iterdir())
        if path.name not in inputs
    }
    return {"rc": rc, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "files": files}


def digest(outcome: dict) -> str:
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode("utf-8")).hexdigest()


def write_corpus(directory: Path, seed: int = 0) -> None:
    """Write the fixture corpus from ``perfbench/synth.py``'s generators."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import synth

    rng = random.Random(f"golden-matrix:{seed}")
    shape = synth.Shape(50, 4, 25, 1, 6, 1, 0.6, 2)
    annotator_shape = synth.Shape(0, 0, 0, 0, 0, 1, 0.8, 2)
    src = bytearray()
    texts = {name: bytearray() for name in TEXT_SYSTEMS}
    m2s = {name: bytearray() for name in M2_SYSTEMS}
    ref = bytearray()
    for _ in range(shape.sentences):
        tokens, gold = synth._sentence_and_gold(rng, shape)
        src += synth._line(tokens)
        for out in texts.values():
            edits = synth._system_edits(rng, tokens, gold, shape, require_change=False)
            out += synth._line(synth.apply(tokens, edits))
        for out in m2s.values():
            edits = synth._system_edits(rng, tokens, gold, shape, require_change=False)
            out += synth.m2_block(tokens, [edits])
        annotations = [
            synth._system_edits(rng, tokens, gold, annotator_shape, require_change=False)
            for _ in range(3)
        ]
        ref += synth.m2_block(tokens, annotations)
    m2s["sys7.m2"] = b"\xef\xbb\xbf" + bytes(m2s["sys7.m2"]).replace(b"\n", b"\r\n")
    files = {"src.txt": bytes(src), "ref.m2": bytes(ref)}
    files.update((name, bytes(out)) for name, out in texts.items())
    files.update((name, bytes(out)) for name, out in m2s.items())
    files.update(_broken_files(files))
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in sorted(files.items()):
        (directory / name).write_bytes(data)


def _blocks(data: bytes) -> list[list[str]]:
    """An LF M2 file as entries, each a list of lines."""
    return [block.split("\n") for block in data.decode("utf-8").split("\n\n") if block]


def _join(blocks) -> bytes:
    return "".join("\n".join(lines) + "\n\n" for lines in blocks).encode("utf-8")


def _broken_files(files: dict[str, bytes]) -> dict[str, bytes]:
    """Later system files that fail in one way each, made from good ones.

    Each break sits in an entry whose edit lines ``sys1.m2`` shares with
    ``sys0.m2``, so a parser that carries lines between files must still
    check them against the later file's own entry."""
    first, second = _blocks(files["sys0.m2"]), _blocks(files["sys1.m2"])
    shared = [
        (k, [line for line in lines[1:] if line in first[k][1:] and not line.startswith("A -1")])
        for k, lines in enumerate(second)
    ]
    shared = [(k, lines) for k, lines in shared if lines]
    broken = {}

    blocks = [list(lines) for lines in second]
    k = shared[0][0]
    blocks[k][0] = blocks[k][0] + " extra"
    broken["bad_source.m2"] = _join(blocks)

    blocks = [list(lines) for lines in second]
    k, lines = shared[1]
    index = blocks[k].index(lines[0])
    blocks[k][index] = lines[0].rpartition("|||")[0] + "|||x"
    broken["bad_annotator.m2"] = _join(blocks)

    # Cut entry k's source so that only its widest shared edit falls outside.
    blocks = [list(lines) for lines in second]
    k, lines = max(shared[2:], key=lambda item: len(item[1]))
    ends = {line: int(line[2:].split("|||")[0].split()[1]) for line in blocks[k][1:]}
    widest = max(lines, key=ends.get)
    tokens = blocks[k][0][2:].split()
    blocks[k][0] = "S " + " ".join(tokens[: ends[widest] - 1])
    broken["bad_range.m2"] = _join(blocks)

    broken["extra_entry.m2"] = _join(second + second[-1:])

    blocks = [list(lines) for lines in second]
    k, lines = shared[3]
    index = blocks[k].index(lines[0])
    blocks[k][index] = lines[0].rpartition("|||")[0]
    broken["bad_fields.m2"] = _join(blocks)

    blocks = [list(lines) for lines in second]
    k, lines = shared[4]
    span = lines[0][2:].split("|||")[0]
    blocks[k].append(f"A {span}|||R:OTHER|||zz|||REQUIRED|||-NONE-|||0")
    broken["conflict.m2"] = _join(blocks)

    blocks = _blocks(files["ref.m2"])
    blocks[7] = blocks[7][:1]
    broken["noann_ref.m2"] = _join(blocks)

    broken["ann1.m2"] = files["sys0.m2"].replace(b"|||0\n", b"|||1\n")
    broken["short.txt"] = b"".join(files["hyp1.txt"].splitlines(keepends=True)[:-1])
    return broken


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", action="store_true",
                        help=f"first rewrite the fixture corpus in {CORPUS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.corpus:
        write_corpus(CORPUS)
    table = {}
    for name, (rc, case_argv) in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            outcome = run_case(case_argv, Path(workdir))
        if outcome["rc"] != rc:
            raise SystemExit(f"{name}: exit {outcome['rc']}, expected {rc}: {outcome['stderr']}")
        table[name] = {"rc": rc, "sha256": digest(outcome)}
        print(name, rc, outcome["stderr"].strip()[:100], file=sys.stderr)
    EXPECTED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
