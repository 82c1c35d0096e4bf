"""One benchmark child: a fresh interpreter that imports ``edit_mbr`` from
``ROOT/src`` and runs one CLI call through ``edit_mbr.cli.main(argv)``.

    python3 child.py MODE ROOT WORKDIR [ARGV...]

MODE is one of
  setup    import ``edit_mbr.cli`` and call ``build_parser()``, nothing else;
  plain    also run ``cli.main(ARGV)`` in WORKDIR, untraced;
  traced   the same call with span-recording wrappers installed; the spans
           and counters go to ``WORKDIR/trace.json``;
  speedup  load the ``combine`` corpus named by ARGV once, then time
           ``combine_corpus`` with one thread and with the resolved
           ``--threads``.

The child prints one JSON object on standard output; anything the CLI itself
prints to standard output is captured and returned under ``"stdout"``.
"""

import sys
import time


def _wrappers(tracer, cli, m2_io, combiner, rewards, scorer):
    """(module, attribute, wrapper) for every layer boundary the traced run records.

    The package looks these names up in its module globals at call time, so
    replacing the attributes reroutes its internal calls too."""

    def extracted(counts, args, result):
        source, hypothesis = args[0], args[1]
        counts["edit_core.extract_edits.edits"] += len(result)
        counts["edit_core.extract_edits.dp_cells"] += (len(source) + 1) * (len(hypothesis) + 1)
        counts["edit_core.extract_edits.identical"] += source.tokens == hypothesis.tokens

    def parsed(counts, args, result):
        counts["m2_io.parse_m2.entries"] += len(result)

    def combined(counts, args, result):
        systems, config = args[0], args[1]
        counts["combiner.selection_size.total"] += len(result.selection)
        label = result.chosen.label
        kind = "vote" if label.startswith("vote-") else "greedy" if label == "greedy" else "system"
        counts["combiner.wins." + kind] += 1
        if config.strategy == "greedy":
            by_label = {candidate.label: candidate for candidate in result.selection}
            n = len(systems)
            threshold = min(config.greedy_pool_threshold, n)
            # The pool is the threshold vote set minus the intersection (vote-N).
            counts["combiner.greedy.pool_edits"] += len(
                by_label[f"vote-{threshold}"].edit_set
            ) - len(by_label[f"vote-{n}"].edit_set)
            counts["combiner.greedy.rounds"] += len(result.trace)

    span, count = tracer.span, tracer.count
    load_sentences = span("m2_io.load_sentences", m2_io.load_sentences)
    parse_m2 = span("m2_io.parse_m2", m2_io.parse_m2, parsed)
    return [
        (cli, "load_parallel", span("m2_io.load_parallel", cli.load_parallel)),
        (cli, "load_sentences", load_sentences),
        (cli, "load_hypothesis_sets",
         span("m2_io.load_hypothesis_sets", cli.load_hypothesis_sets)),
        (cli, "parse_m2", parse_m2),
        (cli, "combine_corpus", span("combiner.combine_corpus", cli.combine_corpus)),
        (cli, "apply_edits", span("edit_core.apply_edits", cli.apply_edits)),
        (cli, "emit_m2", span("m2_io.emit_m2", cli.emit_m2)),
        (cli, "score_corpus", span("scorer.score_corpus", cli.score_corpus)),
        (m2_io, "load_sentences", load_sentences),
        (m2_io, "extract_edits",
         span("edit_core.extract_edits", m2_io.extract_edits, extracted)),
        (m2_io, "parse_m2", parse_m2),
        (combiner, "combine_sentence",
         span("combiner.combine_sentence", combiner.combine_sentence, combined)),
        (combiner, "vote_set", span("edit_core.vote_set", combiner.vote_set)),
        (combiner, "intersect", span("edit_core.intersect", combiner.intersect)),
        (combiner, "expected_reward",
         span("rewards.expected_reward", combiner.expected_reward)),
        (combiner, "mbr_select", span("combiner.mbr_select", combiner.mbr_select)),
        (rewards, "reward", count("rewards.reward", rewards.reward)),
        (scorer, "score_sentence", count("scorer.score_sentence", scorer.score_sentence)),
    ]


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    Shared hosts run the same code up to half again as slow for minutes at a
    time; dividing timings by this figure, taken next to them, cancels that."""
    samples = []
    for _ in range(3):
        begin = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        samples.append(time.perf_counter() - begin)
    return sorted(samples)[1]


def main(argv):
    mode, root, workdir, cli_argv = argv[0], argv[1], argv[2], argv[3:]
    sys.path.insert(0, root + "/src")
    calibration = [calibrate()]
    start = time.perf_counter()
    import edit_mbr.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    import contextlib
    import io
    import json
    import os
    import resource
    from pathlib import Path

    src = Path(root, "src").resolve()
    if Path(cli.__file__).resolve().parent.parent != src:
        print(f"edit_mbr was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    result = {"setup_s": setup_s}
    os.chdir(workdir)
    if mode in ("plain", "traced"):
        call = cli.main
        captured = io.StringIO()
        if mode == "traced":
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from edit_mbr import combiner, m2_io, rewards, scorer
            from spans import Tracer, patched

            tracer = Tracer()
            replacements = _wrappers(tracer, cli, m2_io, combiner, rewards, scorer)
            call = tracer.span("cli.main", cli.main)
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(captured))
            if mode == "traced":
                stack.enter_context(patched(replacements))
            begin = time.perf_counter()
            result["rc"] = call(cli_argv)
            result["main_s"] = time.perf_counter() - begin
        result["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["stdout"] = captured.getvalue()
        if mode == "traced":
            Path("trace.json").write_text(
                json.dumps({"spans": tracer.spans(), "counts": tracer.counts()}),
                encoding="utf-8",
            )
    elif mode == "speedup":
        from edit_mbr.combiner import CombineConfig, combine_corpus
        from edit_mbr.rewards import RewardConfig

        args = cli.build_parser().parse_args(cli_argv)
        config = CombineConfig(
            strategy=args.method,
            reward=RewardConfig(kind=args.reward, beta=args.beta),
            reward_set=args.reward_set,
            greedy_pool_threshold=args.pool_votes,
        )
        threads = cli._resolve_threads(args.threads)
        corpus = cli.load_parallel(args.source, args.hypotheses)
        seconds = {1: 0.0, threads: 0.0}
        chosen = {}
        # Serial, threaded, threaded, serial: neither side always runs first.
        for count in (1, threads, threads, 1):
            begin = time.perf_counter()
            results = combine_corpus(corpus, config, threads=count)
            seconds[count] += time.perf_counter() - begin
            chosen[count] = [r.chosen for r in results]
        result.update(
            threads=threads,
            serial_s=seconds[1],
            threaded_s=seconds[threads],
            same=chosen[1] == chosen[threads],
        )
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 3
    calibration.append(calibrate())
    result["calibration_s"] = sum(calibration) / len(calibration)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
