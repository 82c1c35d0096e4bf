"""Record the output digests that ``run.py`` checks every child against.

    python3 perfbench/record_expected.py --seeds 0-99 --jobs 2

For each workload and seed this generates the corpus, runs one untraced
child, and stores the input and output SHA-256 in ``expected.json``.  Run it
only on code whose outputs are known to be right: outputs must stay
byte-identical, so digests recorded once hold for every later version.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run


def record(name: str, seed: int) -> tuple[str, int, dict]:
    workload = run.WORKLOADS[name]
    with run.Session(workload, seed, time.monotonic() + run.RUN_LIMIT_S) as session:
        result = session.child("plain")
        if result is None or result["rc"] != 0:
            raise RuntimeError(f"{name} seed {seed}: the child failed")
        if not run.output_shape_ok(workload, result["output"], session.corpus.sentences):
            raise RuntimeError(f"{name} seed {seed}: malformed output")
        return name, seed, {
            "input_sha256": session.corpus.sha256(),
            "output_sha256": run.digest(result["output"]),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range FIRST-LAST")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=list(run.WORKLOADS),
                        help="record only this workload (repeatable; default: all)")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    table = json.loads(run.EXPECTED.read_text(encoding="utf-8")) if run.EXPECTED.is_file() else {}
    jobs = [(name, seed) for seed in seeds for name in args.workload or run.WORKLOADS]
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        for name, seed, entry in pool.map(lambda job: record(*job), jobs):
            table.setdefault(name, {})[str(seed)] = entry
            print(name, seed, entry["output_sha256"], file=sys.stderr)
    table = {
        name: dict(sorted(table[name].items(), key=lambda item: int(item[0])))
        for name in sorted(table)
    }
    run.EXPECTED.write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
