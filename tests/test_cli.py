"""End-to-end CLI behavior: subcommands, exit codes, manifests, determinism."""

import ast
import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edit_mbr
from edit_mbr import cli
from edit_mbr.cli import main
from edit_mbr.combiner import CombineConfig, combine_corpus
from edit_mbr.m2_io import load_parallel, load_sentences, parse_m2

MATRIX = Path(__file__).parent / "data" / "matrix"
SRC = Path(__file__).resolve().parent.parent / "src"

SRC_LINES = ["a b c", "x y z", "p q"]
HYP1_LINES = ["a B c", "x y z w", "p q"]
HYP2_LINES = ["a B c d", "x y z", "p q"]
HYP3_LINES = ["a b c", "x y z w", "p Q"]


def write(path: Path, lines) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


@pytest.fixture
def corpus(tmp_path):
    return {
        "src": write(tmp_path / "src.txt", SRC_LINES),
        "hyps": [
            write(tmp_path / "hyp1.txt", HYP1_LINES),
            write(tmp_path / "hyp2.txt", HYP2_LINES),
            write(tmp_path / "hyp3.txt", HYP3_LINES),
        ],
        "dir": tmp_path,
    }


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestExtractApply:
    def test_round_trip(self, corpus):
        out_m2 = corpus["dir"] / "edits.m2"
        assert main(["extract", str(corpus["src"]), str(corpus["hyps"][0]), str(out_m2)]) == 0
        restored = corpus["dir"] / "restored.txt"
        assert main(["apply", str(corpus["src"]), str(out_m2), str(restored)]) == 0
        assert restored.read_text() == corpus["hyps"][0].read_text()

    def test_identical_corpus_gives_noop_entries(self, corpus, tmp_path):
        out_m2 = tmp_path / "noop.m2"
        assert main(["extract", str(corpus["src"]), str(corpus["src"]), str(out_m2)]) == 0
        assert out_m2.read_text().count("noop") == len(SRC_LINES)
        restored = tmp_path / "same.txt"
        assert main(["apply", str(corpus["src"]), str(out_m2), str(restored)]) == 0
        assert restored.read_text() == corpus["src"].read_text()

    def test_missing_file_is_data_error(self, corpus, tmp_path, capsys):
        missing = str(tmp_path / "nope.txt")
        code = main(["extract", str(corpus["src"]), missing, str(tmp_path / "o.m2")])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_length_mismatch_is_data_error(self, corpus, tmp_path):
        short = write(tmp_path / "short.txt", SRC_LINES[:2])
        code = main(["extract", str(corpus["src"]), str(short), str(tmp_path / "o.m2")])
        assert code == 2

    def test_apply_rejects_out_of_range_edit(self, corpus, tmp_path):
        bad = tmp_path / "bad.m2"
        bad.write_text("S a b c\nA 9 9|||UNK|||x|||REQUIRED|||-NONE-|||0\n\n")
        src = write(tmp_path / "one.txt", ["a b c"])
        assert main(["apply", str(src), str(bad), str(tmp_path / "o.txt")]) == 2

    def test_apply_rejects_zero_width_edit_with_empty_replacement(self, tmp_path, capsys):
        bad = tmp_path / "bad.m2"
        bad.write_text("S a b c\nA 2 2|||M|||-NONE-|||REQUIRED|||-NONE-|||0\n\n")
        src = write(tmp_path / "one.txt", ["a b c"])
        assert main(["apply", str(src), str(bad), str(tmp_path / "o.txt")]) == 2
        assert capsys.readouterr().err == (
            "edit-mbr: error: line 2: zero-width edit with empty replacement is a no-op\n"
        )
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["extract", "s.txt", "h1.txt", "o.m2"],
            ["combine", "s.txt", "h1.txt", "h2.txt", "--out-format", "m2", "-o", "o.m2",
             "--trace", "t.jsonl"],
        ],
        ids=["extract", "combine"],
    )
    @pytest.mark.parametrize("token", ["|||", "x|||y", "-NONE-", "x|"])
    def test_replacement_m2_cannot_hold_is_data_error(
        self, tmp_path, monkeypatch, capsys, token, argv
    ):
        # Every system holds the token in the last line, so the lines before
        # it encode and only the final M2 join can refuse the output.
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "s.txt", ["p q", "a b c"])
        for name in ("h1.txt", "h2.txt"):
            write(tmp_path / name, ["p Q", f"a {token} c"])
        assert main(argv) == 2
        assert "entry 2: replacement" in capsys.readouterr().err
        for name in ("o.m2", "t.jsonl", "o.m2.manifest.json"):
            assert not (tmp_path / name).exists()

    def test_manifest_written(self, corpus, tmp_path):
        out_m2 = tmp_path / "edits.m2"
        main(["extract", str(corpus["src"]), str(corpus["hyps"][0]), str(out_m2)])
        manifest = json.loads((tmp_path / "edits.m2.manifest.json").read_text())
        assert manifest["command"] == "extract"
        assert manifest["outputs"][str(out_m2)] == digest(out_m2)

    def test_manifest_input_digest_is_taken_before_an_output_overwrites_it(self, corpus, tmp_path):
        edits = tmp_path / "edits.m2"
        assert main(["extract", str(corpus["src"]), str(corpus["hyps"][0]), str(edits)]) == 0
        src = corpus["src"]
        before = digest(src)
        assert main(["apply", str(src), str(edits), str(src)]) == 0
        assert src.read_text() == corpus["hyps"][0].read_text()
        manifest = json.loads((tmp_path / "src.txt.manifest.json").read_text())
        assert manifest["inputs"][str(src)] == before
        assert manifest["outputs"][str(src)] == digest(src) != before



class TestLowestIdAnnotator:
    """``apply`` and an ``.m2`` system of ``combine`` take each entry's
    lowest-id annotator, whatever its id, not annotator 0."""

    M2 = (
        "S a b c\n"
        "A 2 3|||UNK|||C|||REQUIRED|||-NONE-|||3\n"
        "A 1 2|||UNK|||B|||REQUIRED|||-NONE-|||1\n\n"
        "S x y\n"
        "A 0 1|||UNK|||X|||REQUIRED|||-NONE-|||2\n\n"
    )

    def test_apply(self, tmp_path):
        src = write(tmp_path / "src.txt", ["a b c", "x y"])
        m2 = tmp_path / "ann.m2"
        m2.write_text(self.M2, encoding="utf-8")
        assert main(["apply", str(src), str(m2), str(tmp_path / "out.txt")]) == 0
        assert (tmp_path / "out.txt").read_text() == "a B c\nX y\n"

    def test_combine_m2_system(self, tmp_path):
        src = write(tmp_path / "src.txt", ["a b c", "x y"])
        m2 = tmp_path / "ann.m2"
        m2.write_text(self.M2, encoding="utf-8")
        assert main(["combine", str(src), str(m2), "-o", str(tmp_path / "out.txt")]) == 0
        assert (tmp_path / "out.txt").read_text() == "a B c\nX y\n"

class TestCombine:
    def run_combine(self, corpus, out, *extra):
        argv = [
            "combine",
            str(corpus["src"]),
            *[str(h) for h in corpus["hyps"]],
            "-o",
            str(out),
            *extra,
        ]
        return main(argv)

    def test_mbr_vote_fixture(self, tmp_path):
        src = write(tmp_path / "s.txt", ["a b c"])
        hyps = [
            write(tmp_path / "h1.txt", ["a B c"]),
            write(tmp_path / "h2.txt", ["a B c d"]),
            write(tmp_path / "h3.txt", ["a b c"]),
        ]
        out = tmp_path / "out.txt"
        argv = ["combine", str(src), *[str(h) for h in hyps], "-o", str(out), "--method", "mbr-vote"]
        assert main(argv) == 0
        assert out.read_text() == "a B c\n"

    def test_one_line_per_source_line(self, corpus, tmp_path):
        out = tmp_path / "out.txt"
        assert self.run_combine(corpus, out, "--method", "mbr", "--reward", "f", "--beta", "0.5") == 0
        assert len(out.read_text().splitlines()) == len(SRC_LINES)

    def test_single_hypothesis_passthrough(self, corpus, tmp_path):
        for method in ("mbr", "mbr-vote", "greedy"):
            out = tmp_path / f"single-{method}.txt"
            argv = [
                "combine", str(corpus["src"]), str(corpus["hyps"][0]),
                "-o", str(out), "--method", method,
            ]
            assert main(argv) == 0
            assert out.read_text() == corpus["hyps"][0].read_text()

    def test_m2_output_format(self, corpus, tmp_path):
        out = tmp_path / "out.m2"
        assert self.run_combine(corpus, out, "--out-format", "m2") == 0
        entries = parse_m2(out.read_text())
        assert len(entries) == len(SRC_LINES)

    def test_m2_hypothesis_input(self, corpus, tmp_path):
        extracted = tmp_path / "h1.m2"
        main(["extract", str(corpus["src"]), str(corpus["hyps"][0]), str(extracted)])
        out_from_m2 = tmp_path / "a.txt"
        out_from_text = tmp_path / "b.txt"
        argv = ["combine", str(corpus["src"]), str(extracted), "-o", str(out_from_m2)]
        assert main(argv) == 0
        argv = ["combine", str(corpus["src"]), str(corpus["hyps"][0]), "-o", str(out_from_text)]
        assert main(argv) == 0
        assert out_from_m2.read_text() == out_from_text.read_text()

    def test_stdout_when_no_out(self, corpus, capsys):
        argv = ["combine", str(corpus["src"]), *[str(h) for h in corpus["hyps"]]]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == len(SRC_LINES)

    def test_stdout_with_a_trace_and_a_manifest(self, corpus, tmp_path, capsys):
        # The manifest records the trace file and nothing for standard output.
        trace, manifest = tmp_path / "trace.jsonl", tmp_path / "m.json"
        argv = ["combine", str(corpus["src"]), *[str(h) for h in corpus["hyps"]]]
        argv += ["--method", "greedy", "--trace", str(trace), "--manifest", str(manifest)]
        assert main(argv) == 0
        assert capsys.readouterr().out == "a B c\nx y z w\np q\n"
        assert json.loads(manifest.read_text())["outputs"] == {str(trace): digest(trace)}

    def test_report_prints_expected_rewards(self, corpus, tmp_path, capsys):
        out = tmp_path / "out.txt"
        assert self.run_combine(corpus, out, "--report") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(SRC_LINES)
        assert lines[0].startswith("sent 0 chosen=")
        assert "hyp1=" in lines[0]

    def test_trace_records_greedy_steps(self, corpus, tmp_path):
        out = tmp_path / "out.txt"
        trace = tmp_path / "trace.jsonl"
        assert self.run_combine(
            corpus, out, "--method", "greedy", "--trace", str(trace), "--pool-votes", "1"
        ) == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        assert records, "expected at least one greedy insertion on this fixture"
        for record in records:
            assert set(record) == {"sentence", "edit", "reward_before", "reward_after"}
            # six-decimal reward strings keep traces diffable
            assert len(record["reward_before"].split(".")[1]) == 6
            assert float(record["reward_after"]) > float(record["reward_before"])

    def test_reward_set_and_f_paper_flags(self, corpus, tmp_path):
        out = tmp_path / "out.txt"
        code = self.run_combine(
            corpus, out, "--reward", "f-paper", "--reward-set", "base+votes",
            "--method", "greedy",
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == len(SRC_LINES)

    def test_unknown_flag_is_usage_error(self, corpus):
        with pytest.raises(SystemExit) as info:
            main(["combine", str(corpus["src"]), str(corpus["hyps"][0]), "--frobnicate"])
        assert info.value.code == 1

    def test_bad_beta_is_usage_error(self, corpus, tmp_path, capsys):
        code = self.run_combine(corpus, tmp_path / "o.txt", "--beta", "-1")
        assert code == 1
        assert "beta" in capsys.readouterr().err

    def test_infinite_beta_is_usage_error(self, corpus, tmp_path, capsys):
        out = tmp_path / "o.txt"
        code = self.run_combine(corpus, out, "--beta", "inf", "--report")
        assert code == 1
        assert "beta" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("beta", ["1e200", "1e-200"])
    def test_beta_whose_square_leaves_floats_is_usage_error(self, corpus, tmp_path, capsys, beta):
        out = tmp_path / "o.txt"
        code = self.run_combine(corpus, out, "--beta", beta, "--method", "greedy", "--report")
        assert code == 1
        captured = capsys.readouterr()
        assert "beta" in captured.err and captured.out == ""
        assert sorted(tmp_path.iterdir()) == sorted([corpus["src"], *corpus["hyps"]])

    def test_unicode_line_separator_stays_inside_its_line(self, tmp_path):
        src = write(tmp_path / "src.txt", ["a b", "c\u2028d"])
        hyp = write(tmp_path / "hyp.txt", ["a B", "c\u2028d e"])
        out = tmp_path / "out.txt"
        assert main(["combine", str(src), str(hyp), "-o", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "a B\nc d e\n"

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_manifest_replay_reproduces_output(self, corpus, tmp_path):
        out = tmp_path / "out.txt"
        assert self.run_combine(corpus, out, "--method", "greedy", "--reward", "f") == 0
        manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
        config = manifest["config"]
        replay_out = tmp_path / "replay.txt"
        argv = [
            "combine",
            config["source"],
            *config["hypotheses"],
            "-o",
            str(replay_out),
            "--method", config["method"],
            "--reward", config["reward"],
            "--beta", str(config["beta"]),
            "--pool-votes", str(config["pool_votes"]),
            "--reward-set", config["reward_set"],
            "--out-format", config["out_format"],
            "--threads", str(config["threads"]),
        ]
        assert main(argv) == 0
        assert digest(replay_out) == manifest["outputs"][str(out)]

    def test_env_var_overrides_threads_flag(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("EDIT_MBR_THREADS", "3")
        out = tmp_path / "out.txt"
        assert self.run_combine(corpus, out, "--threads", "1") == 0
        manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
        assert manifest["config"]["threads"] == 3

    def test_default_threads_records_all_cores(self, corpus, tmp_path, monkeypatch):
        monkeypatch.delenv("EDIT_MBR_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        out = tmp_path / "out.txt"
        assert self.run_combine(corpus, out, "--threads", "0") == 0
        manifest = json.loads((tmp_path / "out.txt.manifest.json").read_text())
        assert manifest["config"]["threads"] == 5

    def test_invalid_threads_env_is_usage_error(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("EDIT_MBR_THREADS", "many")
        assert self.run_combine(corpus, tmp_path / "o.txt") == 1

    @pytest.mark.parametrize("flag, env", [("-3", ""), ("1", "-3")], ids=["flag", "env"])
    def test_negative_threads_is_usage_error(
        self, corpus, tmp_path, monkeypatch, capsys, flag, env
    ):
        monkeypatch.setenv("EDIT_MBR_THREADS", env)
        out = tmp_path / "o.txt"
        assert self.run_combine(corpus, out, "--threads", flag) == 1
        assert "thread" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_replace_leaves_old_output(self, corpus, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out.txt"
        out.write_text("old\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(os, "replace", fail)
        assert self.run_combine(corpus, out) == 2
        assert "replace failed" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "old\n"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_symlink_and_fifo_outputs_are_written_through(self, corpus, tmp_path):
        real = tmp_path / "real.txt"
        real.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.txt"
        link.symlink_to(real)
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code = self.run_combine(
            corpus, link, "--method", "greedy", "--pool-votes", "1", "--trace", str(fifo)
        )
        reader.join(timeout=10)
        assert code == 0
        assert not reader.is_alive() and fifo.is_fifo()
        assert link.is_symlink() and real.read_text(encoding="utf-8") != "old\n"
        manifest = json.loads((tmp_path / "link.txt.manifest.json").read_text())
        assert manifest["outputs"][str(fifo)] == hashlib.sha256(got[0]).hexdigest()

    @pytest.mark.parametrize("trace", ["nodir/t.jsonl", "dir"])
    def test_failed_publish_leaves_no_manifest_of_other_bytes(self, tmp_path, capsys, trace):
        # The output is replaced, then the trace cannot be written: the
        # manifest of the first run would describe the old output.
        out, manifest = tmp_path / "out.txt", tmp_path / "out.txt.manifest.json"
        argv = ["combine", *(str(MATRIX / n) for n in ("src.txt", "hyp0.txt", "hyp1.txt"))]
        argv += ["-o", str(out)]
        assert main(argv) == 0
        first = digest(out)
        assert json.loads(manifest.read_text())["outputs"] == {str(out): first}
        (tmp_path / "dir").mkdir()
        assert main(argv + ["--method", "mbr-vote", "--trace", str(tmp_path / trace)]) == 2
        assert capsys.readouterr().err.startswith("edit-mbr: error: ")
        assert digest(out) != first
        assert not manifest.exists()

    def test_failed_publish_removes_a_symlinked_manifest_and_leaves_a_fifo(self, corpus, tmp_path):
        out = tmp_path / "out.txt"
        real, link, fifo = tmp_path / "real.json", tmp_path / "link.json", tmp_path / "m.fifo"
        real.write_text("{}\n", encoding="utf-8")
        link.symlink_to(real)
        os.mkfifo(fifo)
        trace = str(tmp_path / "nodir" / "t.jsonl")
        for manifest in (link, fifo):
            assert self.run_combine(corpus, out, "--trace", trace, "--manifest", str(manifest)) == 2
        assert link.is_symlink() and not real.exists()
        assert fifo.is_fifo()


class TestScoreCommand:
    def setup_scoring(self, tmp_path):
        # sentence 1: hyp edits {B}, ref {B, d} -> tp 1 fp 0 fn 1
        # sentence 2: hyp edits {B, +X}, ref {B} -> tp 1 fp 1 fn 0
        src = write(tmp_path / "src.txt", ["a b c", "a b c"])
        hyp = write(tmp_path / "hyp.txt", ["a B c", "a B c X"])
        ref = tmp_path / "ref.m2"
        ref.write_text(
            "S a b c\n"
            "A 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n"
            "A 3 3|||UNK|||d|||REQUIRED|||-NONE-|||0\n\n"
            "S a b c\n"
            "A 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n"
        )
        return src, hyp, ref

    def test_micro_average_fixture(self, tmp_path, capsys):
        src, hyp, ref = self.setup_scoring(tmp_path)
        assert main(["score", str(src), str(hyp), str(ref)]) == 0
        assert capsys.readouterr().out.strip() == "P 0.6667 R 0.6667 F0.5 0.6667"

    def test_perfect_hypothesis(self, tmp_path, capsys):
        src = write(tmp_path / "src.txt", ["a b c"])
        hyp = write(tmp_path / "hyp.txt", ["a B c"])
        ref = tmp_path / "ref.m2"
        ref.write_text("S a b c\nA 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n")
        assert main(["score", str(src), str(hyp), str(ref)]) == 0
        assert capsys.readouterr().out.strip() == "P 1.0000 R 1.0000 F0.5 1.0000"

    def test_beta_flag_changes_label(self, tmp_path, capsys):
        src, hyp, ref = self.setup_scoring(tmp_path)
        assert main(["score", str(src), str(hyp), str(ref), "--beta", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "F1 " in out and "F0.5" not in out

    # 1e200 squared overflows and 1e-200 squared underflows to 0.
    @pytest.mark.parametrize("beta", ["nan", "inf", "0", "-1", "1e200", "1e-200"])
    def test_bad_beta_is_usage_error(self, tmp_path, capsys, beta):
        src, hyp, ref = self.setup_scoring(tmp_path)
        manifest = tmp_path / "score.json"
        argv = ["score", str(src), str(hyp), str(ref), "--beta", beta, "--manifest", str(manifest)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "beta" in captured.err
        assert captured.out == ""
        assert not manifest.exists()

    def test_per_sentence_lines(self, tmp_path, capsys):
        src, hyp, ref = self.setup_scoring(tmp_path)
        assert main(["score", str(src), str(hyp), str(ref), "--per-sentence"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("0 P ")
        assert lines[1].startswith("1 P ")

    def test_per_sentence_lines_with_a_manifest(self, tmp_path, capsys):
        src, hyp, ref = self.setup_scoring(tmp_path)
        manifest = tmp_path / "m.json"
        argv = ["score", str(src), str(hyp), str(ref), "--per-sentence", "--manifest", str(manifest)]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            "0 P 1.0000 R 0.5000 F0.5 0.8333\n"
            "1 P 0.5000 R 1.0000 F0.5 0.5556\n"
            "P 0.6667 R 0.6667 F0.5 0.6667\n"
        )
        assert json.loads(manifest.read_text())["outputs"] == {}

    def test_m2_hypothesis_input(self, tmp_path, capsys):
        src, hyp, ref = self.setup_scoring(tmp_path)
        hyp_m2 = tmp_path / "hyp.m2"
        assert main(["extract", str(src), str(hyp), str(hyp_m2)]) == 0
        capsys.readouterr()
        assert main(["score", str(src), str(hyp_m2), str(ref)]) == 0
        assert capsys.readouterr().out.strip() == "P 0.6667 R 0.6667 F0.5 0.6667"

    @pytest.mark.parametrize("hyp, calls", [("hyp0.txt", 1), ("sys0.m2", 2)])
    def test_each_m2_file_is_parsed_with_memos_of_its_own(self, memo_seen, capsys, hyp, calls):
        argv = ["score", str(MATRIX / "src.txt"), str(MATRIX / hyp), str(MATRIX / "ref.m2")]
        assert main(argv) == 0
        assert memo_seen == [None] * calls

    def test_fifo_hypothesis_is_read_once_without_a_manifest(self, tmp_path, capsys):
        argv = ["score", str(MATRIX / "src.txt"), str(MATRIX / "hyp0.txt"), str(MATRIX / "ref.m2")]
        assert main(argv) == 0
        want = capsys.readouterr().out
        fifo = tmp_path / "hyp.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(
            target=fifo.write_bytes, args=((MATRIX / "hyp0.txt").read_bytes(),), daemon=True
        )
        writer.start()
        argv[2] = str(fifo)
        assert main(argv) == 0
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert capsys.readouterr().out == want

    def test_reference_source_mismatch(self, tmp_path):
        src = write(tmp_path / "src.txt", ["z z z"])
        hyp = write(tmp_path / "hyp.txt", ["z z q"])
        ref = tmp_path / "ref.m2"
        ref.write_text("S a b c\nA 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n")
        assert main(["score", str(src), str(hyp), str(ref)]) == 2

    def test_malformed_reference(self, tmp_path):
        src = write(tmp_path / "src.txt", ["a b c"])
        hyp = write(tmp_path / "hyp.txt", ["a B c"])
        ref = tmp_path / "ref.m2"
        ref.write_text("S a b c\nA 1|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n")
        assert main(["score", str(src), str(hyp), str(ref)]) == 2

    @pytest.mark.parametrize(
        "span, annotator",
        [("1_0 1_1", "0"), ("\u0661 \u0662", "0"), ("+1 2", "0"), ("1 2", "0_0"), ("1 2", "+0")],
    )
    def test_reference_integer_fields_hold_ascii_digits_only(
        self, tmp_path, capsys, span, annotator
    ):
        src = write(tmp_path / "src.txt", ["a b c"])
        hyp = write(tmp_path / "hyp.txt", ["a B c"])
        ref = tmp_path / "ref.m2"
        ref.write_text(
            f"S a b c\nA {span}|||UNK|||B|||REQUIRED|||-NONE-|||{annotator}\n\n", encoding="utf-8"
        )
        assert main(["score", str(src), str(hyp), str(ref)]) == 2
        assert "line 2: non-integer" in capsys.readouterr().err


def stdout_writes(text: str) -> list[tuple[int, str]]:
    """(line, what) of each write to standard output that bypasses ``_publish``.

    Only ``_stdout`` may name ``sys.stdout``, only ``_publish`` may call
    ``_stdout``, and ``print`` appears only in ``_run``, with
    ``file=sys.stderr`` (its error lines)."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                callee = child.func.id
                to_stderr = any(
                    keyword.arg == "file" and ast.unparse(keyword.value) == "sys.stderr"
                    for keyword in child.keywords
                )
                if (callee == "print" and not (function == "_run" and to_stderr)) or (
                    callee == "_stdout" and function != "_publish"
                ):
                    found.append((child.lineno, f"{callee} in {function}"))
            elif isinstance(child, ast.Attribute) and ast.unparse(child) == "sys.stdout":
                if function != "_stdout":
                    found.append((child.lineno, f"sys.stdout in {function}"))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function else function)

    visit(ast.parse(text), None)
    return found


class TestOneWriter:
    """``_publish`` writes every output: standard output, then files, then the manifest."""

    def test_nothing_under_src_writes_standard_output_but_publish(self):
        files = sorted(SRC.rglob("*.py"))
        assert files
        found = [
            f"{path.relative_to(SRC)}:{line}: {what}"
            for path in files
            for line, what in stdout_writes(path.read_text(encoding="utf-8"))
        ]
        assert found == []

    def test_scan_finds_each_write_that_bypasses_publish(self):
        text = (
            "import sys\n"
            "def _stdout(text):\n"
            "    sys.stdout.write(text)\n"
            "def _publish(outputs):\n"
            "    _stdout(outputs[None])\n"
            "def _run(exc):\n"
            "    print(exc, file=sys.stderr)\n"
            "def cmd_score(args):\n"
            "    print('P')\n"
            "    _stdout('P')\n"
            "    sys.stdout.write('P')\n"
            "    print('P', file=sys.stderr)\n"
            "print('P', file=sys.stderr)\n"
        )
        assert stdout_writes(text) == [
            (9, "print in cmd_score"),
            (10, "_stdout in cmd_score"),
            (11, "sys.stdout in cmd_score"),
            (12, "print in cmd_score"),
            (13, "print in None"),
        ]


class TestRender:
    """``_render`` makes every output of ``extract``, ``apply`` and ``combine``
    in one pass over the per-sentence records."""

    @pytest.fixture(scope="class")
    def records(self):
        corpus = load_parallel(MATRIX / "src.txt", [MATRIX / f"hyp{i}.txt" for i in range(5)])
        results = combine_corpus(corpus, CombineConfig(strategy="greedy"))
        records = [(e.source, r.chosen.edit_set, r) for e, r in zip(corpus, results)]
        assert any(result.trace for _, _, result in records)
        return records

    @pytest.mark.parametrize("out_format", ["text", "m2"])
    def test_one_pass_gives_each_output_what_its_format_gives_alone(self, records, out_format):
        outputs = {
            "out": cli._FORMATS[out_format],
            "trace": (cli._trace_lines, "".join),
            None: (cli._report_line, "".join),
        }
        drawn = []

        def once():
            for record in records:
                drawn.append(record)
                yield record

        got = cli._render(once(), outputs)
        assert drawn == records
        assert list(got) == list(outputs)
        for path, (encode, join) in outputs.items():
            alone = join([encode(index, *record) for index, record in enumerate(records)])
            assert got[path] == alone != ""


class TestBadEncoding:
    @pytest.mark.parametrize("bad", ["hypothesis", "source", "m2"])
    def test_non_utf8_input_is_data_error(self, corpus, tmp_path, capsys, bad):
        src, hyp = corpus["src"], corpus["hyps"][0]
        ref = tmp_path / "ref.m2"
        assert main(["extract", str(src), str(hyp), str(ref)]) == 0
        target = {"hypothesis": hyp, "source": src, "m2": ref}[bad]
        target.write_bytes(target.read_bytes().replace(b"a", b"\xff", 1))
        capsys.readouterr()
        if bad == "hypothesis":
            code = main(["combine", str(src), str(corpus["hyps"][1]), str(hyp)])
        else:
            code = main(["score", str(src), str(hyp), str(ref)])
        assert code == 2
        captured = capsys.readouterr()
        assert str(target) in captured.err
        assert "UTF-8" in captured.err
        assert captured.out == ""


class TestByteOrderMark:
    BOM = b"\xef\xbb\xbf"

    def test_bom_source_gives_no_spurious_edit(self, tmp_path):
        src = tmp_path / "s.txt"
        src.write_bytes(self.BOM + b"a b c\n")
        hyp = write(tmp_path / "h.txt", ["a b c"])
        out = tmp_path / "e.m2"
        assert main(["extract", str(src), str(hyp), str(out)]) == 0
        assert out.read_text() == "S a b c\nA -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n\n"
        manifest = json.loads((tmp_path / "e.m2.manifest.json").read_text())
        assert manifest["inputs"][str(src)] == digest(src)

    def test_bom_m2_applies(self, tmp_path):
        src = write(tmp_path / "s.txt", ["a b c"])
        edits = tmp_path / "e.m2"
        edits.write_bytes(self.BOM + b"S a b c\nA 1 2|||UNK|||B|||REQUIRED|||-NONE-|||0\n\n")
        out = tmp_path / "o.txt"
        assert main(["apply", str(src), str(edits), str(out)]) == 0
        assert out.read_text() == "a B c\n"


class TestCollidingPaths:
    """Two outputs naming one file, a manifest naming an input, or a report
    sharing standard output with the output, exit 1 before anything is read,
    printed or written."""

    def check_refused(self, argv, flags, capsys, tmp_path):
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert main([str(arg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("edit-mbr: error: ")
        assert all(flag in captured.err for flag in flags)
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_extract_out_is_manifest(self, corpus, tmp_path, capsys):
        out = tmp_path / "e.m2"
        argv = ["extract", corpus["src"], corpus["hyps"][0], out, "--manifest", out]
        self.check_refused(argv, ["OUT", "--manifest"], capsys, tmp_path)

    def test_combine_out_is_trace(self, corpus, tmp_path, capsys):
        out = tmp_path / "o.txt"
        argv = ["combine", corpus["src"], *corpus["hyps"], "--method", "greedy"]
        argv += ["-o", out, "--trace", out]
        self.check_refused(argv, ["--out", "--trace"], capsys, tmp_path)

    def test_combine_trace_is_default_manifest(self, corpus, tmp_path, capsys):
        argv = ["combine", corpus["src"], *corpus["hyps"], "-o", tmp_path / "o.txt"]
        argv += ["--trace", tmp_path / "o.txt.manifest.json"]
        self.check_refused(argv, ["--trace", "--manifest"], capsys, tmp_path)

    def test_combine_manifest_through_symlink_and_hard_link(self, corpus, tmp_path, capsys):
        out = tmp_path / "o.txt"
        out.write_text("old\n", encoding="utf-8")
        (tmp_path / "soft.txt").symlink_to(out)
        os.link(out, tmp_path / "hard.txt")
        for alias in ("soft.txt", "hard.txt"):
            argv = ["combine", corpus["src"], *corpus["hyps"], "-o", out]
            argv += ["--manifest", tmp_path / alias]
            self.check_refused(argv, ["--out", "--manifest"], capsys, tmp_path)

    def test_score_manifest_is_reference(self, corpus, tmp_path, capsys):
        ref = tmp_path / "ref.m2"
        assert main(["extract", str(corpus["src"]), str(corpus["hyps"][0]), str(ref)]) == 0
        argv = ["score", corpus["src"], corpus["hyps"][1], ref, "--manifest", ref]
        self.check_refused(argv, ["--manifest", "REFERENCE"], capsys, tmp_path)

    def test_apply_out_is_manifest(self, corpus, tmp_path, capsys):
        edits = tmp_path / "e.m2"
        assert main(["extract", str(corpus["src"]), str(corpus["hyps"][0]), str(edits)]) == 0
        out = tmp_path / "o.txt"
        argv = ["apply", corpus["src"], edits, out, "--manifest", out]
        self.check_refused(argv, ["OUT", "--manifest"], capsys, tmp_path)

    def test_combine_report_without_out(self, corpus, tmp_path, capsys):
        (tmp_path / "src.txt").write_bytes(b"\xff")  # refused before any input is read
        argv = ["combine", corpus["src"], *corpus["hyps"], "--report"]
        self.check_refused(argv, ["--report", "--out"], capsys, tmp_path)

    def test_device_outputs_are_not_compared(self, corpus, tmp_path):
        argv = ["combine", str(corpus["src"]), *map(str, corpus["hyps"]), "--method", "greedy"]
        argv += ["-o", os.devnull, "--trace", os.devnull]
        assert main(argv + ["--manifest", str(tmp_path / "m.json")]) == 0

    def test_fifo_input_with_a_manifest_is_refused_unread(self, corpus, tmp_path, capsys):
        # A manifest would record the digest of a second read of the pipe,
        # which sees nothing.
        fifo = tmp_path / "hyp.fifo"
        os.mkfifo(fifo)
        opened, stop = threading.Event(), threading.Event()

        def write():
            # Serve every open of the read end, so a command that does read
            # the FIFO (once, or twice for a digest) returns instead of hanging.
            while True:
                with open(fifo, "wb") as handle:  # blocks until a reader opens
                    if stop.is_set():
                        return
                    opened.set()
                    handle.write(corpus["hyps"][0].read_bytes())

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        out = tmp_path / "out.txt"
        argv = ["combine", str(corpus["src"]), str(fifo), str(corpus["hyps"][1]), "-o", str(out)]
        code = main(argv)
        unread = not opened.is_set()
        stop.set()
        with open(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK), "rb"):
            writer.join(timeout=10)
        assert code == 1 and unread and not writer.is_alive()
        assert capsys.readouterr().err == (
            "edit-mbr: error: HYPOTHESIS is not a regular file, so the manifest "
            f"cannot record its digest: {fifo}\n"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            ["src.txt", "hyp1.txt", "hyp2.txt", "hyp3.txt", "hyp.fifo"]
        )

    def test_output_may_still_overwrite_an_input(self, corpus, tmp_path):
        hyp = corpus["hyps"][0]
        assert main(["combine", str(corpus["src"]), str(hyp), "-o", str(hyp)]) == 0
        assert main(["combine", str(corpus["src"]), str(hyp), "--trace", str(hyp)]) == 0


_PIECES = ["a", "b", "c", "B", "é", "", "  ", "\t", "\r", "\ufeff", "\u2028", "S", "A", "|||"]
_text_line = st.lists(st.sampled_from(_PIECES), max_size=5).map(" ".join)
_span = st.sampled_from(["0", "1", "2", "3", "-1", "-2", "9", "x", "1.5", "9" * 40, ""])
_a_line = st.builds(
    "A {} {}|||{}|||{}|||REQUIRED|||-NONE-|||{}".format,
    _span,
    _span,
    st.sampled_from(["UNK", "noop", ""]),
    st.sampled_from(["x", "-NONE-", "", "a b", "x\ty", "é"]),
    st.sampled_from(["0", "1", "-1", "x", ""]),
)
_m2_line = st.one_of(
    st.just("S a b c"),
    _text_line.map("S {}".format),
    _a_line,
    st.sampled_from(["A", "A 1|||broken", "", "\r", "S"]),
    _text_line,
)


def _encode(draw, lines) -> bytes:
    data = "\n".join(lines).encode() + draw(st.sampled_from([b"", b"\n", b"\r\n"]))
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 9)) == 0:
        data += b"\xff"
    return data


@st.composite
def _corpus(draw):
    """Source, hypothesis and M2 bytes.  The hypothesis usually has the
    source's line count, and the M2 file usually follows the source entry by
    entry, so that malformed lines get past the line-count and source checks."""
    source = draw(st.lists(_text_line, max_size=3))
    same_count = st.lists(_text_line, min_size=len(source), max_size=len(source))
    hypothesis = draw(st.one_of(same_count, same_count, st.lists(_text_line, max_size=3)))
    if draw(st.booleans()):
        m2 = draw(st.lists(_m2_line, max_size=6))
    else:
        m2 = []
        for line in source:
            m2 += [f"S {line}", *draw(st.lists(_a_line, max_size=2)), ""]
    return _encode(draw, source), _encode(draw, hypothesis), _encode(draw, m2)


_SCORE_LINE = re.compile(r"P \d\.\d{4} R \d\.\d{4} F0\.5 \d\.\d{4}")


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["extract", "combine", "combine-m2", "score", "apply"]),
        method=st.sampled_from(["mbr", "mbr-vote", "greedy"]),
        corpus=_corpus(),
    )
    def test_malformed_input_exits_cleanly(self, command, method, corpus):
        """Exit 0 with output that reads back, or exit 1 or 2 with a message."""
        source, hypothesis, m2 = corpus
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            src, hyp, ref, out = (root / n for n in ("src.txt", "hyp.txt", "sys.m2", "out"))
            src.write_bytes(source)
            hyp.write_bytes(hypothesis)
            ref.write_bytes(m2)
            argv = {
                "extract": ["extract", src, hyp, out],
                "combine": ["combine", src, hyp, ref, "-o", out, "--method", method],
                "combine-m2": ["combine", src, hyp, "--out-format", "m2", "-o", out],
                "score": ["score", src, hyp, ref],
                "apply": ["apply", src, ref, out],
            }[command]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([str(arg) for arg in argv])
            if code != 0:
                assert code in (1, 2)
                assert stderr.getvalue().startswith("edit-mbr: error: ")
                return
            if command == "score":
                assert _SCORE_LINE.fullmatch(stdout.getvalue().splitlines()[-1])
            elif command in ("extract", "combine-m2"):
                assert len(parse_m2(out.read_text(encoding="utf-8"))) == len(load_sentences(src))
            else:
                assert len(load_sentences(out)) == len(load_sentences(src))


class TestModuleEntryPoint:
    def test_python_dash_m_version(self):
        proc = subprocess.run(
            [sys.executable, "-m", "edit_mbr", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "edit-mbr" in proc.stdout

    @pytest.mark.parametrize("report", [False, True])
    def test_standard_output_that_cannot_hold_a_token_is_a_data_error(self, tmp_path, report):
        # Without -o the output goes to standard output; with --report (and
        # -o) the report does, and here a label holds the token.
        src = write(tmp_path / "src.txt", ["le café est"])
        first = write(tmp_path / ("café.txt" if report else "h1.txt"), ["le café est bon"])
        second = write(tmp_path / "h2.txt", ["le café"])
        out = tmp_path / "out.txt"
        extra = ["-o", str(out), "--report"] if report else []
        proc = subprocess.run(
            [sys.executable, "-m", "edit_mbr", "combine", str(src), str(first), str(second), *extra],
            capture_output=True,
            text=True,
            encoding="utf-8",
            env={
                **os.environ,
                "PYTHONPATH": str(Path(edit_mbr.__file__).resolve().parent.parent),
                "PYTHONIOENCODING": "ascii",
            },
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("edit-mbr: error: cannot write to standard output: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_import_does_not_load_concurrent_futures(self):
        src = str(Path(edit_mbr.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, edit_mbr.cli; print('concurrent.futures' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_and_parser_load_no_dataclasses_inspect_or_json(self):
        # The value types are namedtuples and a hand-written EditSet: importing
        # dataclasses would pull in inspect, ast, dis and tokenize.  json is
        # imported only when a manifest or a trace is written.  Only the
        # modules the import adds count, since site may load some itself.
        src = str(Path(edit_mbr.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from edit_mbr.cli import build_parser\n"
            "build_parser()\n"
            "added = set(sys.modules) - before\n"
            "print('edit_mbr.cli' in added, sorted({'dataclasses', 'inspect', 'json'} & added))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True []"

    def test_score_without_a_manifest_does_not_load_openssl(self, tmp_path):
        # hashlib loads OpenSSL through _hashlib; only a digest needs it.  json
        # is needed only to write a manifest or a trace.  Only the modules the
        # call adds count, since site may load some itself.
        src = str(Path(edit_mbr.__file__).resolve().parent.parent)
        m = str(MATRIX)
        score = ["score", f"{m}/src.txt", f"{m}/hyp0.txt", f"{m}/ref.m2"]
        combine = ["combine", f"{m}/src.txt", f"{m}/hyp0.txt", f"{m}/hyp1.txt",
                   f"{m}/sys0.m2", f"{m}/sys1.m2", f"{m}/sys2.m2", "--method", "greedy"]
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from edit_mbr.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "added = set(sys.modules) - before\n"
            "print(rc, sorted({'hashlib', '_hashlib', 'json'} & added))\n"
        )
        argvs = [
            score,
            [*score, "--manifest", str(tmp_path / "score.json")],
            combine,
            [*combine, "--trace", str(tmp_path / "trace.jsonl")],
        ]
        got = []
        for argv in argvs:
            proc = subprocess.run(
                [sys.executable, "-c", code, *argv],
                capture_output=True,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            assert proc.returncode == 0, proc.stderr
            got.append(proc.stdout.splitlines()[-1])
        assert got == ["0 []", "0 ['_hashlib', 'hashlib', 'json']", "0 []", "0 ['json']"]
        assert (tmp_path / "trace.jsonl").stat().st_size > 0


class TestCollectorPause:
    """``main`` pauses the cyclic collector for the command and restores it."""

    @staticmethod
    def argvs(out: Path) -> dict[str, list[str]]:
        m = str(MATRIX)
        return {
            "greedy": ["combine", f"{m}/src.txt", f"{m}/hyp0.txt", f"{m}/hyp1.txt",
                       f"{m}/sys0.m2", f"{m}/sys1.m2", f"{m}/sys2.m2", "--method", "greedy",
                       "--report", "--trace", str(out.with_suffix(".jsonl")), "-o", str(out)],
            "score": ["score", f"{m}/src.txt", f"{m}/sys0.m2", f"{m}/ref.m2", "--per-sentence"],
            "usage": ["combine", f"{m}/src.txt", f"{m}/hyp0.txt", "--report"],
            "data": ["apply", f"{m}/src.txt", f"{m}/bad_range.m2", str(out)],
        }

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("case, code", [("score", 0), ("usage", 1), ("data", 2)])
    def test_state_after_each_exit_is_the_state_before(self, tmp_path, capsys, case, code, enabled):
        argv = self.argvs(tmp_path / "out.txt")[case]
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_state_after_a_parser_exit_is_the_state_before(self, capsys):
        assert gc.isenabled()
        with pytest.raises(SystemExit) as info:
            main(["combine", "--no-such-option"])
        assert info.value.code == 1
        assert gc.isenabled()

    def test_collector_is_off_while_the_command_runs(self, monkeypatch, capsys):
        import edit_mbr.cli as cli

        seen = []
        real = cli.load_sentences

        def spy(path):
            seen.append(gc.isenabled())
            return real(path)

        monkeypatch.setattr(cli, "load_sentences", spy)
        assert gc.isenabled()
        assert main(self.argvs(Path("unused"))["score"]) == 0
        assert seen == [False] and gc.isenabled()

    @staticmethod
    def cyclic_garbage(argv) -> int:
        """The objects ``gc.collect`` frees after ``main(argv)`` exits 0."""
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            return gc.collect()
        finally:
            gc.enable()

    @pytest.mark.parametrize("case", ["greedy", "score"])
    def test_a_command_leaves_little_cyclic_garbage(self, tmp_path, capsys, case):
        # While the collector is paused, a reference cycle made per sentence
        # would hold its memory to the end of the run.  Parsing the arguments
        # leaves a few hundred cyclic objects; the corpus must add none, so a
        # corpus four times as long leaves no more.
        argv = self.argvs(tmp_path / "out.txt")[case]
        left = self.cyclic_garbage(argv)
        longer = tmp_path / "longer"
        longer.mkdir()
        for name in ("src.txt", "hyp0.txt", "hyp1.txt", "sys0.m2", "sys1.m2", "sys2.m2", "ref.m2"):
            (longer / name).write_bytes((MATRIX / name).read_bytes() * 4)
        argv = [arg.replace(str(MATRIX), str(longer)) for arg in argv]
        assert left < 1_000
        assert self.cyclic_garbage(argv) <= left
