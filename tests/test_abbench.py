"""The A/B harness's trees: both sides are frozen exports of git objects."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "abbench.py"


@pytest.fixture
def abbench(monkeypatch):
    spec = importlib.util.spec_from_file_location("abbench", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "abbench", module)     # dataclasses look it up
    spec.loader.exec_module(module)
    # no user or system git configuration reaches the repositories below
    monkeypatch.setenv("GIT_CONFIG_GLOBAL", os.devnull)
    monkeypatch.setenv("GIT_CONFIG_NOSYSTEM", "1")
    return module


def _git(repo, *args):
    return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True,
                          text=True).stdout


def _git_files(repo):
    return sorted(str(p.relative_to(repo)) for p in (repo / ".git").rglob("*"))


def test_snapshot_freezes_the_working_tree_and_writes_nothing_under_git(
        abbench, monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    (repo / ".gitignore").write_text("*.log\n")
    (repo / "a.txt").write_text("committed\n")
    (repo / "kept.log").write_text("tracked though ignored\n")
    _git(repo, "add", ".gitignore", "a.txt")
    _git(repo, "add", "-f", "kept.log")
    _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    (repo / "a.txt").write_text("first edit\n")
    (repo / "kept.log").write_text("tracked, edited\n")
    (repo / "new.txt").write_text("untracked\n")
    (repo / "skip.log").write_text("ignored\n")
    files, status = _git_files(repo), _git(repo, "status", "--porcelain")

    monkeypatch.setattr(abbench, "ROOT", repo)
    with abbench.checkouts("HEAD", None) as trees:
        (repo / "a.txt").write_text("later edit\n")
        parent, change = trees.tmp / "parent", trees.tmp / "change"
        assert not trees.tmp.is_relative_to(repo)
        assert (change / "a.txt").read_text() == "first edit\n"
        assert (change / "kept.log").read_text() == "tracked, edited\n"
        assert (change / "new.txt").read_text() == "untracked\n"
        assert not (change / "skip.log").exists()
        assert (parent / "a.txt").read_text() == "committed\n"
        assert (parent / "kept.log").read_text() == "tracked though ignored\n"
        assert not (parent / "new.txt").exists()
        assert trees.revs["parent"] == _git(repo, "rev-parse", "HEAD").strip()
        # the snapshot's tree is a git object, kept out of the repository
        assert re.fullmatch("[0-9a-f]{40}", trees.revs["change"])
        assert subprocess.run(["git", "cat-file", "-e", trees.revs["change"]],
                              cwd=repo, capture_output=True).returncode != 0
    assert not trees.tmp.exists()
    assert _git_files(repo) == files
    assert _git(repo, "status", "--porcelain") == status


def test_a_given_change_revision_is_exported_as_its_commit(abbench, monkeypatch, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    for text in ("one\n", "two\n"):
        (repo / "a.txt").write_text(text)
        _git(repo, "add", "a.txt")
        _git(repo, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", text)
    (repo / "a.txt").write_text("uncommitted\n")
    monkeypatch.setattr(abbench, "ROOT", repo)
    with abbench.checkouts("HEAD~1", "HEAD") as trees:
        assert (trees.tmp / "parent" / "a.txt").read_text() == "one\n"
        assert (trees.tmp / "change" / "a.txt").read_text() == "two\n"
        assert trees.revs["change"] == _git(repo, "rev-parse", "HEAD").strip()
