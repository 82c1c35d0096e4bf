"""Golden outputs: every recorded CLI call still gives the bytes it gave.

The cases, the corpus they read (``tests/data/matrix``) and the recorder live
in ``tests/golden/record.py``; ``tests/golden/expected.json`` holds one
SHA-256 per case over its exit code, standard output, standard error and
every file it wrote.
"""

import json
import os

import pytest

from golden import record

EXPECTED = json.loads(record.EXPECTED.read_text(encoding="utf-8"))


def test_every_case_has_a_recorded_digest():
    assert sorted(EXPECTED) == sorted(record.CASES)


@pytest.mark.parametrize("name", sorted(record.CASES))
def test_case_output_matches_its_digest(name, tmp_path):
    rc, argv = record.CASES[name]
    outcome = record.run_case(argv, tmp_path)
    assert (outcome["rc"], record.digest(outcome)) == (rc, EXPECTED[name]["sha256"]), outcome


def test_digests_do_not_depend_on_the_host_thread_count(tmp_path, monkeypatch):
    # Manifests record the resolved thread count; neither the host's cores
    # nor an EDIT_MBR_THREADS set around the replay may reach them.
    monkeypatch.setattr("os.cpu_count", lambda: 64)
    monkeypatch.setenv("EDIT_MBR_THREADS", "4")
    name = "combine-mbr-text-to-text"
    rc, argv = record.CASES[name]
    outcome = record.run_case(argv, tmp_path)
    assert "out.txt.manifest.json" in outcome["files"]
    assert (outcome["rc"], record.digest(outcome)) == (rc, EXPECTED[name]["sha256"]), outcome
    assert os.environ["EDIT_MBR_THREADS"] == "4"
