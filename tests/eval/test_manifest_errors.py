"""Resume-refusal diagnostics: divergence naming vs corrupt manifests."""

from __future__ import annotations

import dataclasses

import pytest

from repro import cli, obs
from repro.errors import ManifestCorruptError, ManifestMismatchError
from repro.eval.journal import (
    RunJournal,
    build_manifest,
    check_manifest,
)

TOOLS = ["funseeker", "fetch"]


def _perturb(entry, extra: bytes = b"\x00"):
    return dataclasses.replace(entry, stripped=entry.stripped + extra)


def test_check_manifest_accepts_identical_corpus(tiny_corpus):
    manifest = build_manifest(tiny_corpus, TOOLS)
    check_manifest(manifest, tiny_corpus, TOOLS)


def test_mismatch_names_first_divergent_hash(tiny_corpus):
    manifest = build_manifest(tiny_corpus, TOOLS)
    modified = list(tiny_corpus)
    modified[1] = _perturb(modified[1])
    with pytest.raises(ManifestMismatchError) as excinfo:
        check_manifest(manifest, modified, TOOLS)
    message = str(excinfo.value)
    assert f"first divergent entry is #1 {modified[1].label}" in message
    assert "hash changed" in message


def test_mismatch_names_first_divergent_label(tiny_corpus):
    manifest = build_manifest(tiny_corpus, TOOLS)
    swapped = list(tiny_corpus)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    with pytest.raises(ManifestMismatchError) as excinfo:
        check_manifest(manifest, swapped, TOOLS)
    message = str(excinfo.value)
    assert "first divergent entry is #0" in message
    assert tiny_corpus[0].label in message
    assert swapped[0].label in message


def test_mismatch_names_missing_and_extra_entries(tiny_corpus):
    manifest = build_manifest(tiny_corpus, TOOLS)
    truncated = list(tiny_corpus)[:-1]
    with pytest.raises(ManifestMismatchError) as excinfo:
        check_manifest(manifest, truncated, TOOLS)
    assert (f"first missing entry is #{len(truncated)} "
            f"{tiny_corpus[-1].label}") in str(excinfo.value)

    short_manifest = build_manifest(truncated, TOOLS)
    with pytest.raises(ManifestMismatchError) as excinfo:
        check_manifest(short_manifest, tiny_corpus, TOOLS)
    assert (f"first extra entry is #{len(truncated)} "
            f"{tiny_corpus[-1].label}") in str(excinfo.value)


def test_old_manifest_without_entries_still_refuses(tiny_corpus):
    manifest = build_manifest(tiny_corpus, TOOLS)
    del manifest["corpus"]["entries"]
    modified = list(tiny_corpus)
    modified[0] = _perturb(modified[0])
    with pytest.raises(ManifestMismatchError) as excinfo:
        check_manifest(manifest, modified, TOOLS)
    message = str(excinfo.value)
    assert "corpus changed" in message
    assert "divergent" not in message  # no per-entry data to name


def test_corrupt_manifest_raises_distinct_error(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text("{torn mid-writ",
                                           encoding="utf-8")
    journal = RunJournal(run_dir)
    try:
        with pytest.raises(ManifestCorruptError):
            journal.manifest()
    finally:
        journal.close()

    other = tmp_path / "other"
    other.mkdir()
    (other / "manifest.json").write_text('"a bare string"',
                                         encoding="utf-8")
    journal = RunJournal(other)
    try:
        with pytest.raises(ManifestCorruptError):
            journal.manifest()
    finally:
        journal.close()


def test_serve_cli_distinguishes_corrupt_from_mismatch(tmp_path):
    recorder = obs.recorder()
    try:
        corrupt = tmp_path / "corrupt"
        corrupt.mkdir()
        (corrupt / "manifest.json").write_text("{broken",
                                               encoding="utf-8")
        assert cli.main(["serve", "--run-dir", str(corrupt)]) == 3

        mismatched = tmp_path / "mismatched"
        mismatched.mkdir()
        (mismatched / "manifest.json").write_text(
            '{"schema": "journal-manifest/v1"}', encoding="utf-8")
        assert cli.main(["serve", "--run-dir", str(mismatched)]) == 2

        assert cli.main(["serve", "--run-dir", str(tmp_path / "new"),
                         "--tools", "no-such-tool"]) == 2
    finally:
        obs.set_recorder(recorder)


def test_evaluate_cli_resume_exit_codes(tmp_path, tiny_corpus, capsys):
    # Exit 3: the run directory itself is damaged.
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    (corrupt / "manifest.json").write_text("{broken", encoding="utf-8")
    (corrupt / "journal.jsonl").write_text("", encoding="utf-8")
    code = cli.main(["evaluate", "--resume", str(corrupt)])
    assert code == 3
    err = capsys.readouterr().err
    assert "damaged" in err

    # Exit 2: a valid manifest for a *different* run, named precisely.
    modified = list(tiny_corpus)
    modified[0] = _perturb(modified[0])
    divergent = tmp_path / "divergent"
    RunJournal.create(
        divergent,
        build_manifest(modified, ["funseeker", "ida", "ghidra", "fetch"],
                       scale="tiny", seed=2022),
    ).close()
    code = cli.main(["evaluate", "--resume", str(divergent)])
    assert code == 2
    err = capsys.readouterr().err
    assert "refusing to resume" in err
    assert "first divergent entry is #0" in err


def test_scan_cli_resume_refuses_non_object_manifest(tmp_path, capsys):
    # Exit 3, as evaluate --resume does: the run directory is damaged.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "manifest.json").write_text("[]", encoding="utf-8")
    (run_dir / "journal.jsonl").write_text("", encoding="utf-8")
    assert cli.main(["scan", "--resume", str(run_dir)]) == 3
    err = capsys.readouterr().err
    assert "damaged" in err
    assert "not a JSON object" in err


def test_scan_cli_journal_write_failure_exits_3(tmp_path, capsys):
    # Like evaluate: a failed append aborts resumably, not as misuse.
    from repro.ingest.fixtures import build_fixture_tree

    build_fixture_tree(tmp_path / "tree")
    run_dir = tmp_path / "run"
    code = cli.main(["scan", str(tmp_path / "tree"), "--run-dir",
                     str(run_dir), "--workers", "1", "--fault-plan",
                     "enospc@journal.append#3"])
    assert code == 3
    err = capsys.readouterr().err
    assert f"--resume {run_dir}" in err
    assert cli.main(["scan", "--resume", str(run_dir), "--output",
                     str(tmp_path / "r.txt")]) == 0
