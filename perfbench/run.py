"""edit-mbr benchmark: seeded synthetic GEC corpora through the real CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` there.
The corpus is generated in-process from the seed (``synth.py``), written to a
scratch directory under ``.perfbench_work/``, and each CLI call runs in a
fresh child interpreter (``child.py``) through ``edit_mbr.cli.main(argv)``.

With ``--trace 0`` the run repeats untraced children for ``--seconds`` and
reports the end-to-end metrics: throughput, peak memory of the child, and
set-up time (import plus ``build_parser()``), each a median over the
children, with timings scaled to a reference machine speed that every child
measures next to its work (``child.calibrate``).  With ``--trace 1`` it
alternates untraced and traced children and reports the per-layer split.
Every child's output is checked against the digest recorded in
``expected.json`` for that workload and seed; a seed with no recorded digest
is checked for the output's shape and for agreement between children.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in turn; ``--out PATH`` also writes the full records
(input properties, environment, metrics) as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import spans
import synth

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
# Timings are reported at the machine speed at which child.calibrate() takes
# this long; see child.calibrate for why.
CALIBRATION_REF_S = 0.04


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    shape: synth.Shape
    make: Callable[[int, synth.Shape], synth.Corpus]
    argv: tuple[str, ...]
    output: str | None  # output file, or None for the CLI's standard output
    speedup: bool = False  # also time combine_corpus serial vs threaded

    def corpus(self, seed: int) -> synth.Corpus:
        return self.make(seed, self.shape)


def _systems(count: int, suffix: str) -> tuple[str, ...]:
    return tuple(f"sys{i}{suffix}" for i in range(count))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "text-mbr-vote",
            "the paper's main setting: text systems are aligned on load, then "
            "mbr-vote over the thread pool; extraction dominates",
            synth.Shape(1000, 10, 40, 0, 6, 5, 0.6, 2),
            synth.text_systems,
            ("combine", "src.txt", *_systems(5, ".txt"), "--method", "mbr-vote",
             "--reward", "f", "--beta", "0.5", "-o", "out.txt"),
            "out.txt",
            speedup=True,
        ),
        Workload(
            "m2-greedy",
            "pre-extracted M2 systems bypass extraction; greedy growth, rewards "
            "and vote sets dominate, and M2 is both read and written",
            synth.Shape(600, 15, 50, 3, 12, 8, 0.6, 3),
            synth.m2_systems,
            ("combine", "src.txt", *_systems(8, ".m2"), "--method", "greedy",
             "--reward-set", "base+votes", "--out-format", "m2", "--threads", "1",
             "-o", "out.m2"),
            "out.m2",
        ),
        Workload(
            "score-long",
            "scoring long, heavily edited sentences against 3 annotators: "
            "extraction in its high-distance regime, no combiner",
            synth.Shape(800, 60, 120, 8, 20, 1, 0.6, 6, annotators=3),
            synth.scored_system,
            ("score", "src.txt", "hyp.txt", "ref.m2"),
            None,
        ),
    )
}

END_TO_END_UNITS = {"sents_per_s": "1/s", "peak_rss_mib": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "edit_core.extract_edits.s": "s",
    "edit_core.extract_edits.calls": "count",
    "edit_core.extract_edits.edits": "count",
    "edit_core.extract_edits.dp_cells": "count",
    "edit_core.extract_edits.identical_share": "ratio",
    "m2_io.load_sentences.s": "s",
    "m2_io.parse_m2.s": "s",
    "m2_io.parse_m2.entries": "count",
    "m2_io.load_parallel.self_s": "s",
    "m2_io.load_hypothesis_sets.self_s": "s",
    "m2_io.emit_m2.s": "s",
    "edit_core.apply_edits.s": "s",
    "edit_core.apply_edits.calls": "count",
    "edit_core.vote_set.s": "s",
    "edit_core.vote_set.calls": "count",
    "edit_core.intersect.s": "s",
    "edit_core.intersect.calls": "count",
    "rewards.expected_reward.s": "s",
    "rewards.expected_reward.calls": "count",
    "rewards.reward.calls": "count",
    "combiner.combine_corpus.s": "s",
    "combiner.combine_sentence.self_s": "s",
    "combiner.mbr_select.self_s": "s",
    "combiner.selection_size": "count",
    "combiner.greedy.rounds": "count",
    "combiner.greedy.pool_edits": "count",
    "combiner.greedy.commit_ratio": "ratio",
    "combiner.combine_corpus.thread_speedup": "ratio",
    "combiner.wins.system": "count",
    "combiner.wins.vote": "count",
    "combiner.wins.greedy": "count",
    "scorer.score_corpus.s": "s",
    "scorer.score_sentence.calls": "count",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_share": "ratio",
}
_SCORE_LINE = re.compile(rb"P [01]\.\d{4} R [01]\.\d{4} F0\.5 [01]\.\d{4}\n")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_matches(output: bytes, expected_sha256: str) -> bool:
    """Whether an output is byte-identical to the recorded one."""
    return digest(output) == expected_sha256


def output_shape_ok(workload: Workload, output: bytes, sentences: int) -> bool:
    """A check that needs no recorded digest: one result per source sentence."""
    if workload.output is None:
        return _SCORE_LINE.fullmatch(output) is not None
    if workload.output.endswith(".m2"):
        return output.count(b"\nS ") + output.startswith(b"S ") == sentences
    return output.count(b"\n") == sentences and output.endswith(b"\n")


def recorded_digest(name: str, seed: int, input_sha256: str) -> str | None:
    """The output digest recorded for this workload and seed, when the recorded
    input digest matches the generated input."""
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    entry = table.get(name, {}).get(str(seed))
    if entry and entry["input_sha256"] == input_sha256:
        return entry["output_sha256"]
    return None


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Session:
    """A workload's corpus written to a scratch directory, and its child runs."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.workload = workload
        self.deadline = deadline
        self.corpus = workload.corpus(seed)
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"

    def __enter__(self) -> Session:
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, data in self.corpus.files.items():
            (self.dir / name).write_bytes(data)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def child(self, mode: str) -> dict | None:
        """Run one child; its JSON result, or None when it failed."""
        if self.workload.output:
            (self.dir / self.workload.output).unlink(missing_ok=True)
        env = {k: v for k, v in os.environ.items() if k not in ("EDIT_MBR_THREADS", "PYTHONPATH")}
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), mode, str(ROOT), str(self.dir), *self.workload.argv],
                capture_output=True, text=True, timeout=timeout, env=env, cwd=self.dir,
            )
        except subprocess.TimeoutExpired:
            print(f"# {self.workload.name}: {mode} child timed out", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"# {self.workload.name}: {mode} child exited {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        result = json.loads(lines[-1])
        if mode in ("plain", "traced"):
            if self.workload.output:
                path = self.dir / self.workload.output
                result["output"] = path.read_bytes() if path.exists() else b""
                manifest = self.dir / f"{self.workload.output}.manifest.json"
                if manifest.exists():
                    config = json.loads(manifest.read_text(encoding="utf-8"))["config"]
                    result["threads"] = config.get("threads")
            else:
                result["output"] = result["stdout"].encode("utf-8")
        return result

    def trace(self) -> dict:
        raw = json.loads((self.dir / "trace.json").read_text(encoding="utf-8"))
        return {"spans": [spans.Span(*s) for s in raw["spans"]], "counts": raw["counts"]}


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child (thread speed-up and tracing
    overhead are filled in by the caller)."""
    totals = spans.layer_totals(trace["spans"])
    counts = trace["counts"]

    def span(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    def count(name: str) -> float:
        return counts.get(name, 0)

    extracts = span("edit_core.extract_edits", "calls")
    sentences = span("combiner.combine_sentence", "calls")
    rewards_calls = span("rewards.expected_reward", "calls")
    metrics = {}
    for name in PER_LAYER_UNITS:
        layer, _, key = name.rpartition(".")
        if key in ("s", "self_s", "calls") and layer in totals:
            metrics[name] = span(layer, key)
        else:
            metrics[name] = count(name)
    metrics.update({
        "edit_core.extract_edits.identical_share":
            count("edit_core.extract_edits.identical") / extracts if extracts else 0.0,
        "combiner.selection_size":
            count("combiner.selection_size.total") / sentences if sentences else 0.0,
        "combiner.greedy.commit_ratio":
            count("combiner.greedy.rounds") / rewards_calls if rewards_calls else 0.0,
        "cli.self_s": span("cli.main", "self_s"),
    })
    return metrics


def self_time_ranking(trace: dict) -> list[tuple[str, float]]:
    totals = spans.layer_totals(trace["spans"])
    return sorted(((name, t["self_s"]) for name, t in totals.items()), key=lambda p: -p[1])


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run of one workload; returns its full record."""
    deadline = time.monotonic() + RUN_LIMIT_S
    with Session(workload, seed, deadline) as session:
        sentences = session.corpus.sentences
        expected = recorded_digest(workload.name, seed, session.corpus.sha256())
        reference = expected
        attempted = failed = 0
        plains, traces, speedups = [], [], []

        def checked(mode: str) -> dict | None:
            nonlocal attempted, failed, reference
            result = session.child(mode)
            attempted += sentences
            ok = result is not None
            if ok and mode in ("plain", "traced"):
                output = result["output"]
                if reference is None and output_shape_ok(workload, output, sentences):
                    reference = digest(output)
                ok = result["rc"] == 0 and reference is not None and output_matches(output, reference)
            elif ok and mode == "speedup":
                ok = result["same"]
            if not ok:
                failed += sentences
                return None
            return result

        session.child("setup")  # warm-up: bytecode cache and page cache
        start = time.monotonic()
        while not attempted or time.monotonic() - start < seconds:
            if time.monotonic() > deadline - 30:
                break
            if result := checked("plain"):
                plains.append(result)
            if trace:
                if result := checked("traced"):
                    traces.append((result, session.trace()))
                if workload.speedup and (result := checked("speedup")):
                    speedups.append(result)

        if trace:
            per_child = [layer_metrics(t) for _, t in traces]
            metrics = {name: median(m[name] for m in per_child) for name in PER_LAYER_UNITS}
            metrics["combiner.combine_corpus.thread_speedup"] = median(
                s["serial_s"] / s["threaded_s"] for s in speedups
            )
            # Both sides in calibration units, so a change of machine speed
            # between the two children does not read as tracing cost.
            plain_main = median(p["main_s"] / p["calibration_s"] for p in plains)
            traced_main = median(r["main_s"] / r["calibration_s"] for r, _ in traces)
            metrics["trace.overhead_share"] = (
                traced_main / plain_main - 1 if plain_main and traces else 0.0
            )
            units = PER_LAYER_UNITS
        else:
            metrics = {
                "sents_per_s": median(
                    sentences / p["main_s"] * p["calibration_s"] / CALIBRATION_REF_S
                    for p in plains
                ),
                "peak_rss_mib": median(p["maxrss_kib"] / 1024 for p in plains),
                "setup_s": median(
                    p["setup_s"] * CALIBRATION_REF_S / p["calibration_s"] for p in plains
                ),
            }
            units = END_TO_END_UNITS
        outputs = {digest(p["output"]) for p in plains + [r for r, _ in traces]}
        record = {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "children": len(plains) + len(traces) + len(speedups),
            "inputs": session.corpus.properties(),
            "output_sha256": sorted(outputs),
            "output_check": "recorded digest" if expected else "shape and agreement",
            "env": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "threads": next((p.get("threads") for p in plains), None),
            },
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted if attempted else 1.0,
            "sents_per_s_samples": [
                sentences / p["main_s"] * p["calibration_s"] / CALIBRATION_REF_S for p in plains
            ],
            "unscaled": {
                "samples": len(plains),
                "sents_per_s": median(sentences / p["main_s"] for p in plains),
                "setup_s": median(p["setup_s"] for p in plains),
                "calibration_s": median(p["calibration_s"] for p in plains),
            },
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        if trace and traces:
            record["self_time_ranking"] = self_time_ranking(traces[-1][1])
        return record


def report(record: dict) -> None:
    """Human-readable lines for one record."""
    info = {k: record[k] for k in ("workload", "seed", "trace", "children", "inputs",
                                   "output_check", "env")}
    print("# " + json.dumps(info, sort_keys=True))
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:14} {name:42} {metric['value']:.6g} {metric['unit']}")
    print(f"{record['workload']:14} {'failed_share':42} {record['failed_share']:.6g} ratio")
    for name, self_s in record.get("self_time_ranking", [])[:8]:
        print(f"{record['workload']:14} self {name:37} {self_s:.4f} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full records to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # Stopped from outside: unwind, so the running child is killed and
    # waited for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "edit_mbr" / "cli.py").is_file():
        print(f"perfbench: no edit_mbr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(record)
        records.append(record)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
