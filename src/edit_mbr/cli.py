"""Command-line front end: extract, combine, score, apply.

Exit codes: 0 success, 1 usage error, 2 data/validation error (bad corpora,
malformed M2, missing files), so scripts can tell operator mistakes from
corpus problems.

``main`` is the one driver of every command.  It refuses ``combine
--report`` without ``-o`` (the report would mix into the output on standard
output), names the default manifest ``OUT.manifest.json``, checks the file
arguments (``_check_paths``), runs the command, and writes what the command
returns through ``_publish``.  A command only reads, computes and returns
its outputs as ``{path: text}``, standard output under the path ``None`` (as
an omitted ``-o`` names it); ``_publish`` is the one writer of every output.

``extract``, ``apply`` and ``combine`` build one record per sentence,
``(source, edits, result)`` (``result`` is ``combine``'s ``CombineResult``,
else ``None``).  Each output kind has one per-sentence encoder: a text line,
an ``M2Entry`` (joined by ``emit_m2``, which holds the M2 syntax), the trace
lines, the report line.  ``_render`` draws the records once, hands each
record to every output's encoder, and joins each output's pieces into the
``{path: text}`` that ``_publish`` writes.

Two outputs (output, trace, manifest) that name one file, a manifest that
names an input, or a manifest beside an input that is not a regular file (a
pipe can be read only once, so its digest cannot be taken) are usage
errors, found before any input is read.  Standard output is written first;
file outputs then replace their targets atomically, and the manifest is
written last: the parsed arguments (with ``combine``'s resolved thread
count) plus input and output-file SHA-256 digests, so re-running with the
same inputs and configuration reproduces the outputs byte for byte.
Digests are taken only for a manifest, and ``hashlib``, which loads
OpenSSL, is imported only then.  ``json``, like ``hashlib``, is imported
only when a manifest or a trace is written, so start-up skips it.

``main`` pauses the cyclic garbage collector while a command runs and
restores the state it found when the command ends, however it ends.  A
command's data (sentences, edits, edit sets, results) hold no reference
cycles, so the collector's passes, each triggered by allocations and each
walking the growing corpus, would find nothing to free; the few hundred
cyclic objects one call leaves are argparse's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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
from .edit_core import ValidationError, apply_edits, extract_batch
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
from .rewards import REWARD_KINDS, RewardConfig, check_beta
from .scorer import ScoreReport, score_corpus

OK = 0
USAGE_ERROR = 1
DATA_ERROR = 2

THREADS_ENV_VAR = "EDIT_MBR_THREADS"

# Every command's file arguments by ``dest``, in the order they are compared.
INPUTS = ("source", "hypothesis", "hypotheses", "reference", "m2")
OUTPUTS = ("out", "trace", "manifest")
# Parsed arguments the manifest's config leaves out: parser and driver
# bookkeeping, the manifest itself, and what only changes standard output.
NOT_CONFIG = frozenset({"command", "func", "labels", "manifest", "report"})


class UsageError(Exception):
    """Operator error detected after argument parsing (exit status 1)."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits usage errors with status 2 by default; 2 is reserved
    # for data errors here, so remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _sha256(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``.

    ``hashlib`` is imported here, on the first digest, because it loads
    OpenSSL (about 3.6 MiB) and only a manifest needs a digest.
    """
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _special(path) -> bool:
    """Whether ``path`` exists and is not a regular file (a device, FIFO or directory)."""
    return os.path.exists(path) and not os.path.isfile(path)


def _replace(path, data: bytes) -> None:
    """Write ``data`` onto ``path`` through a temporary file beside it.

    A failed write leaves ``path`` as it was.  A symlink's target is replaced,
    not the link; a device or FIFO (say ``/dev/stderr``) is written in place.
    """
    if _special(path):
        with open(path, "wb") as handle:
            handle.write(data)
        return
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


def _paths(args, dests) -> list[tuple[str, str]]:
    """(name, path) for each set file argument among ``dests``, in that order.

    The name is the one the parser shows: the long option, else the metavar
    in capitals (``--trace``, ``SOURCE``)."""
    named = []
    for dest in dests:
        value = getattr(args, dest, None)
        for path in value if isinstance(value, list) else [value]:
            if path:
                named.append((args.labels[dest], path))
    return named


def _publish(args, outputs: dict) -> None:
    """Write ``outputs`` (path -> text) and then, if ``args.manifest`` is set, the run manifest.

    The text under the path ``None`` goes to standard output, before any
    file, and the manifest records no digest for it.  Input digests are
    taken before any file is written, so an output that overwrites an input
    leaves the input's recorded digest as it was read.  Without a manifest
    no digest is taken.  With a manifest, the regular file at its path (a
    symlink's target, as ``_replace`` would write) is removed before
    anything is written, so a write that fails leaves no manifest of other
    bytes; a device or FIFO is left alone.
    """
    if args.manifest and os.path.isfile(args.manifest):
        os.unlink(os.path.realpath(args.manifest))
    if None in outputs:
        _stdout(outputs.pop(None))
    manifest = args.manifest and {
        "version": __version__,
        "command": args.command,
        "config": {key: value for key, value in vars(args).items() if key not in NOT_CONFIG},
        "inputs": {path: _sha256(Path(path).read_bytes()) for _, path in _paths(args, INPUTS)},
        "outputs": {},
    }
    for path, text in outputs.items():
        data = text.encode("utf-8")
        _replace(path, data)
        if manifest:
            manifest["outputs"][str(path)] = _sha256(data)
    if manifest:
        import json

        _replace(args.manifest, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one regular file (after symlinks; hard links by inode)."""
    if _special(first) or _special(second):
        return False  # a device or FIFO is written in place, not replaced
    if os.path.realpath(first) == os.path.realpath(second):
        return True
    try:
        return os.path.samefile(first, second)
    except OSError:
        return False


def _check_paths(args) -> None:
    """Raise ``UsageError`` when two outputs name one file, the manifest names
    an input, or a manifest is due and an input is not a regular file.

    An output that overwrites an input is allowed: input digests are taken
    before anything is written.  A pipe input would be read twice, once by
    the command and once for its digest, and the second read sees nothing,
    so a manifest could only record the digest of empty input.
    """
    named = _paths(args, OUTPUTS)
    pairs = [(a, b) for i, a in enumerate(named) for b in named[i + 1 :]]
    pairs += [(a, b) for a in named if a[0] == "--manifest" for b in _paths(args, INPUTS)]
    for (first_flag, first), (second_flag, second) in pairs:
        if _same_file(first, second):
            raise UsageError(f"{first_flag} and {second_flag} name the same file: {first}")
    if args.manifest:
        for flag, path in _paths(args, INPUTS):
            if _special(path):
                raise UsageError(
                    f"{flag} is not a regular file, so the manifest cannot record its "
                    f"digest: {path}"
                )


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


def _stdout(text: str) -> None:
    """Write ``text`` to standard output; text its encoding cannot hold is a
    data error, and then none of ``text`` is written."""
    try:
        sys.stdout.write(text)
    except UnicodeEncodeError as exc:
        raise ValidationError(f"cannot write to standard output: {exc}") from None


def _text_line(index, source, edits, result) -> str:
    """The corrected sentence as one line of text."""
    return apply_edits(source, edits).text() + "\n"


def _m2_entry(index, source, edits, result) -> M2Entry:
    """The edit set as annotator 0 of its source, for ``emit_m2`` to write."""
    return M2Entry(source, (Annotation(0, edits),))


def _trace_lines(index, source, edits, result) -> str:
    """One JSON line per greedy insertion of the sentence."""
    import json

    return "".join(
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
        for step in result.trace
    )


def _report_line(index, source, edits, result) -> str:
    """The chosen label and each selection candidate's expected reward."""
    cells = " ".join(
        f"{candidate.label}={score:.6f}"
        for candidate, score in zip(result.selection, result.expected_rewards)
    )
    return f"sent {index} chosen={result.chosen.label} {cells}\n"


# Each --out-format's per-sentence encoder and the join of its pieces.  The
# M2 join looks ``emit_m2`` up when it runs, so a replaced ``cli.emit_m2``
# (perfbench's traced run) is the one called.
_FORMATS = {"text": (_text_line, "".join), "m2": (_m2_entry, lambda entries: emit_m2(entries))}


def _render(records, outputs: dict) -> dict:
    """Each output's text from one pass over ``records``.

    ``records`` yields ``(source, edits, result)`` per sentence and is drawn
    once; ``outputs`` maps a path to its ``(encode, join)``.  Each record
    adds one piece to every output, and each output's pieces are joined at
    the end."""
    pieces = {path: [] for path in outputs}
    for index, (source, edits, result) in enumerate(records):
        for path, (encode, _) in outputs.items():
            pieces[path].append(encode(index, source, edits, result))
    return {path: join(pieces[path]) for path, (_, join) in outputs.items()}


def cmd_extract(args) -> dict:
    sources = load_sentences(args.source)
    hyps = load_sentences(args.hypothesis)
    if len(sources) != len(hyps):
        raise ValidationError(
            f"{args.source} has {len(sources)} lines but {args.hypothesis} has {len(hyps)}"
        )
    records = ((s, edits, None) for s, edits in zip(sources, extract_batch(sources, hyps)))
    return _render(records, {args.out: _FORMATS["m2"]})


def cmd_combine(args) -> dict:
    try:
        config = CombineConfig(
            strategy=args.method,
            reward=RewardConfig(kind=args.reward, beta=args.beta),
            reward_set=args.reward_set,
            greedy_pool_threshold=args.pool_votes,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    args.threads = _resolve_threads(args.threads)
    corpus = load_parallel(args.source, args.hypotheses)
    results = combine_corpus(corpus, config, threads=args.threads)
    outputs = {args.out: _FORMATS[args.out_format]}
    if args.trace:
        outputs[args.trace] = (_trace_lines, "".join)
    if args.report:
        outputs[None] = (_report_line, "".join)  # --report needs -o, so stdout is free
    records = ((e.source, r.chosen.edit_set, r) for e, r in zip(corpus, results))
    return _render(records, outputs)


def _format_prf(report: ScoreReport) -> str:
    return (
        f"P {report.precision:.4f} R {report.recall:.4f} "
        f"F{report.beta:g} {report.f:.4f}"
    )


def cmd_score(args) -> dict:
    try:
        check_beta(args.beta)  # the same beta check as combine
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    sources = load_sentences(args.source)
    hyp_sets = load_hypothesis_sets(args.hypothesis, sources, args.source)
    # The reference is parsed as M2 whatever its name.
    ref_entries = load_matching_m2(args.reference, sources, args.source)
    ref_sets = []
    for index, entry in enumerate(ref_entries):
        if not entry.annotations:
            raise ValidationError(f"{args.reference}: entry {index + 1} has no annotators")
        ref_sets.append([ann.edits for ann in entry.annotations])
    report = score_corpus(hyp_sets, ref_sets, beta=args.beta)
    sentences = enumerate(report.per_sentence if args.per_sentence else ())
    lines = [f"{index} {_format_prf(sentence)}\n" for index, sentence in sentences]
    return {None: "".join(lines) + _format_prf(report) + "\n"}


def cmd_apply(args) -> dict:
    sources = load_sentences(args.source)
    entries = load_matching_m2(args.m2, sources, args.source)
    records = ((s, primary_edit_set(entry), None) for s, entry in zip(sources, entries))
    return _render(records, {args.out: _FORMATS["text"]})


def _label(action: argparse.Action) -> str:
    """How messages name an argument: its long option, else its metavar in capitals."""
    longs = [option for option in action.option_strings if option.startswith("--")]
    return longs[0] if longs else (action.metavar or action.dest).upper()


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
    for p in sub.choices.values():
        p.set_defaults(labels={action.dest: _label(action) for action in p._actions})
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; pause the cyclic collector while it runs (see the module notes)."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "report", False) and not args.out:
            raise UsageError(
                "--report needs -o/--out: without it the report and the output share stdout"
            )
        if not args.manifest and getattr(args, "out", None):
            args.manifest = f"{args.out}.manifest.json"
        _check_paths(args)
        _publish(args, args.func(args))
        return OK
    except UsageError as exc:
        print(f"edit-mbr: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValidationError, OSError) as exc:
        print(f"edit-mbr: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
