"""Command-line front end: extract, combine, score, apply.

Exit codes: 0 success, 1 usage error, 2 data/validation error (bad corpora,
malformed M2, missing files), so scripts can tell operator mistakes from
corpus problems.  Commands that write an output file also write a JSON run
manifest beside it (resolved configuration plus input/output SHA-256
digests); re-running with the same inputs and configuration reproduces the
outputs byte for byte.  Every file is written through ``_publish``: outputs
replace their targets atomically and the manifest is written last.  Two
outputs (output, trace, manifest) that name one file, or a manifest that names
an input, are a usage error, found before any input is read; so is
``combine --report`` without ``-o``, which would mix the report into the
output on standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from . import __version__
from .combiner import (
    REWARD_SET_SPECS,
    STRATEGIES,
    CombineConfig,
    combine_corpus,
)
from .edit_core import ValidationError, apply_edits, extract_edits
from .m2_io import (
    Annotation,
    M2Entry,
    emit_m2,
    load_hypothesis_sets,
    load_matching_m2,
    load_parallel,
    load_sentences,
    parse_m2,  # traced by perfbench/child.py
    primary_edit_set,
)
from .rewards import REWARD_KINDS, RewardConfig
from .scorer import ScoreReport, score_corpus

OK = 0
USAGE_ERROR = 1
DATA_ERROR = 2

THREADS_ENV_VAR = "EDIT_MBR_THREADS"


class UsageError(Exception):
    """Operator error detected after argument parsing (exit status 1)."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits usage errors with status 2 by default; 2 is reserved
    # for data errors here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _replace(path, data: bytes) -> str:
    """Write ``data`` onto ``path`` through a temporary file beside it; return its SHA-256.

    A failed write leaves ``path`` as it was.  A symlink's target is replaced,
    not the link; a device or FIFO (say ``/dev/stderr``) is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "wb") as handle:
            handle.write(data)
        return hashlib.sha256(data).hexdigest()
    path = os.path.realpath(path)
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as handle:
            handle.write(data)
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
    return hashlib.sha256(data).hexdigest()


def _publish(command: str, config: dict, inputs, outputs: dict, manifest_path) -> None:
    """Write ``outputs`` (path -> text) and then, if ``manifest_path`` is set, the run manifest.

    Input digests are taken before any output is written, so an output that
    overwrites an input leaves the input's recorded digest as it was read.
    """
    manifest = manifest_path and {
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs},
    }
    digests = {str(path): _replace(path, text.encode("utf-8")) for path, text in outputs.items()}
    if manifest:
        manifest["outputs"] = digests
        _replace(manifest_path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one regular file (after symlinks; hard links by inode)."""
    if any(os.path.exists(p) and not os.path.isfile(p) for p in (first, second)):
        return False  # a device or FIFO is written in place, not replaced
    if os.path.realpath(first) == os.path.realpath(second):
        return True
    try:
        return os.path.samefile(first, second)
    except OSError:
        return False


def _check_paths(
    inputs: Sequence[tuple[str, str]], outputs: Sequence[tuple[str, str | None]]
) -> None:
    """Raise ``UsageError`` when two outputs name one file, or the manifest names an input.

    Both arguments pair an argument name (``"--trace"``, ``"OUT"``) with its
    path; an unset output is ``None``.  An output that overwrites an input is
    allowed: input digests are taken before anything is written.
    """
    named = [(flag, path) for flag, path in outputs if path]
    pairs = [(a, b) for i, a in enumerate(named) for b in named[i + 1 :]]
    pairs += [(a, b) for a in named if a[0] == "--manifest" for b in inputs]
    for (first_flag, first), (second_flag, second) in pairs:
        if _same_file(first, second):
            raise UsageError(f"{first_flag} and {second_flag} name the same file: {first}")


def _resolve_threads(flag: int) -> int:
    """The recorded thread count: the environment variable overrides the flag; 0 = all cores.

    Combination is serial whatever the count."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            flag = int(env)
        except ValueError:
            raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
    if flag < 0:
        raise UsageError(f"thread count must be >= 0, got {flag}")
    return flag or os.cpu_count() or 1


def cmd_extract(args) -> int:
    manifest = args.manifest or f"{args.out}.manifest.json"
    _check_paths(
        [("SOURCE", args.source), ("HYPOTHESIS", args.hypothesis)],
        [("OUT", args.out), ("--manifest", manifest)],
    )
    sources = load_sentences(args.source)
    hyps = load_sentences(args.hypothesis)
    if len(sources) != len(hyps):
        raise ValidationError(
            f"{args.source} has {len(sources)} lines but {args.hypothesis} has {len(hyps)}"
        )
    entries = [
        M2Entry(src, (Annotation(0, extract_edits(src, hyp)),))
        for src, hyp in zip(sources, hyps)
    ]
    config = {"source": args.source, "hypothesis": args.hypothesis, "out": args.out}
    _publish(
        "extract",
        config,
        [args.source, args.hypothesis],
        {args.out: emit_m2(entries)},
        manifest,
    )
    return OK


def cmd_combine(args) -> int:
    if args.report and not args.out:
        raise UsageError(
            "--report needs -o/--out: without it the report and the output share stdout"
        )
    manifest = args.manifest or (f"{args.out}.manifest.json" if args.out else None)
    _check_paths(
        [("SOURCE", args.source), *(("HYPOTHESIS", path) for path in args.hypotheses)],
        [("--out", args.out), ("--trace", args.trace), ("--manifest", manifest)],
    )
    try:
        config = CombineConfig(
            strategy=args.method,
            reward=RewardConfig(kind=args.reward, beta=args.beta),
            reward_set=args.reward_set,
            greedy_pool_threshold=args.pool_votes,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    threads = _resolve_threads(args.threads)
    corpus = load_parallel(args.source, args.hypotheses)
    results = combine_corpus(corpus, config, threads=threads)

    if args.out_format == "m2":
        entries = [
            M2Entry(entry.source, (Annotation(0, result.chosen.edit_set),))
            for entry, result in zip(corpus, results)
        ]
        payload = emit_m2(entries)
    else:
        lines = [
            apply_edits(entry.source, result.chosen.edit_set).text()
            for entry, result in zip(corpus, results)
        ]
        payload = "".join(line + "\n" for line in lines)
    outputs = {}
    if args.out:
        outputs[args.out] = payload
    else:
        sys.stdout.write(payload)
    if args.trace:
        outputs[args.trace] = "".join(
            json.dumps(
                {
                    "sentence": index,
                    "edit": {
                        "start": step.edit.start,
                        "end": step.edit.end,
                        "replacement": list(step.edit.replacement),
                    },
                    "reward_before": f"{step.reward_before:.6f}",
                    "reward_after": f"{step.reward_after:.6f}",
                },
                sort_keys=True,
            )
            + "\n"
            for index, result in enumerate(results)
            for step in result.trace
        )
    if args.report:
        for index, result in enumerate(results):
            cells = " ".join(
                f"{candidate.label}={score:.6f}"
                for candidate, score in zip(result.selection, result.expected_rewards)
            )
            print(f"sent {index} chosen={result.chosen.label} {cells}")

    resolved = {
        "source": args.source,
        "hypotheses": list(args.hypotheses),
        "out": args.out,
        "out_format": args.out_format,
        "method": args.method,
        "reward": args.reward,
        "beta": args.beta,
        "pool_votes": args.pool_votes,
        "reward_set": args.reward_set,
        "threads": threads,
        "trace": args.trace,
    }
    _publish(
        "combine",
        resolved,
        [args.source, *args.hypotheses],
        outputs,
        manifest,
    )
    return OK


def _format_prf(report: ScoreReport) -> str:
    return (
        f"P {report.precision:.4f} R {report.recall:.4f} "
        f"F{report.beta:g} {report.f:.4f}"
    )


def cmd_score(args) -> int:
    _check_paths(
        [("SOURCE", args.source), ("HYPOTHESIS", args.hypothesis), ("REFERENCE", args.reference)],
        [("--manifest", args.manifest)],
    )
    try:
        RewardConfig(beta=args.beta)  # the same beta check as combine
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sources = load_sentences(args.source)
    memos = [{} for _ in sources]
    hyp_sets = load_hypothesis_sets(args.hypothesis, sources, args.source, memos)
    ref_entries = load_matching_m2(args.reference, sources, args.source, memos)
    ref_sets = []
    for index, entry in enumerate(ref_entries):
        if not entry.annotations:
            raise ValidationError(f"{args.reference}: entry {index + 1} has no annotators")
        ref_sets.append([ann.edits for ann in entry.annotations])
    report = score_corpus(hyp_sets, ref_sets, beta=args.beta)
    if args.per_sentence:
        for index, sentence in enumerate(report.per_sentence):
            print(f"{index} {_format_prf(sentence)}")
    print(_format_prf(report))
    config = {
        "source": args.source,
        "hypothesis": args.hypothesis,
        "reference": args.reference,
        "beta": args.beta,
        "per_sentence": args.per_sentence,
    }
    _publish("score", config, [args.source, args.hypothesis, args.reference], {}, args.manifest)
    return OK


def cmd_apply(args) -> int:
    manifest = args.manifest or f"{args.out}.manifest.json"
    _check_paths(
        [("SOURCE", args.source), ("M2", args.m2)],
        [("OUT", args.out), ("--manifest", manifest)],
    )
    sources = load_sentences(args.source)
    entries = load_matching_m2(args.m2, sources, args.source)
    lines = [apply_edits(src, primary_edit_set(entry)).text() for src, entry in zip(sources, entries)]
    config = {"source": args.source, "m2": args.m2, "out": args.out}
    _publish(
        "apply",
        config,
        [args.source, args.m2],
        {args.out: "".join(line + "\n" for line in lines)},
        manifest,
    )
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="edit-mbr",
        description="Combine and evaluate grammatical-error-correction system outputs in edit space.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("extract", help="align a hypothesis corpus against its sources and write M2")
    p.add_argument("source", help="source corpus, one tokenized sentence per line")
    p.add_argument("hypothesis", help="hypothesis corpus, parallel to the source")
    p.add_argument("out", help="output M2 path")
    p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("combine", help="combine hypothesis corpora into a single output")
    p.add_argument("source", help="source corpus")
    p.add_argument(
        "hypotheses",
        nargs="+",
        metavar="hypothesis",
        help="hypothesis files; .m2 files are parsed, anything else is aligned text",
    )
    p.add_argument("-o", "--out", help="output path (default: stdout)")
    p.add_argument("--method", choices=STRATEGIES, default="mbr")
    p.add_argument("--reward", choices=REWARD_KINDS, default="f")
    p.add_argument("--beta", type=float, default=0.5, help="beta for the F rewards")
    p.add_argument(
        "--pool-votes",
        type=int,
        default=2,
        help="vote threshold for the greedy insertion pool",
    )
    p.add_argument("--reward-set", choices=REWARD_SET_SPECS, default="base")
    p.add_argument("--out-format", choices=("text", "m2"), default="text")
    p.add_argument(
        "--report", action="store_true", help="print per-candidate expected rewards (needs -o)"
    )
    p.add_argument("--trace", help="write one JSONL record per greedy insertion to this path")
    p.add_argument(
        "--threads",
        type=int,
        default=0,
        help=f"thread count recorded in the manifest (0 = all cores); combination is "
        f"serial; {THREADS_ENV_VAR} overrides",
    )
    p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json when -o is given)")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("score", help="edit-level P/R/F of a hypothesis corpus against reference M2")
    p.add_argument("source", help="source corpus")
    p.add_argument("hypothesis", help="hypothesis file (text or .m2)")
    p.add_argument("reference", help="reference M2 file (multi-annotator supported)")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--per-sentence", action="store_true", help="also print one line per sentence")
    p.add_argument("--manifest", help="write a manifest to this path")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser(
        "apply", help="apply each entry's lowest-id annotator's edits from an M2 file to source text"
    )
    p.add_argument("source", help="source corpus")
    p.add_argument("m2", help="M2 file with the edits to apply")
    p.add_argument("out", help="output text path")
    p.add_argument("--manifest", help="manifest path (default: OUT.manifest.json)")
    p.set_defaults(func=cmd_apply)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"edit-mbr: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValidationError, OSError) as exc:
        print(f"edit-mbr: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
