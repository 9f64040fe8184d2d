"""Run-directory persistence: write-once files, atomic run directories."""

import pytest

from bmu_lab import runio
from bmu_lab.runio import execute_train_run, write_text
from bmu_lab.trainer import TrainConfig

TINY = TrainConfig(agent="qtable", max_episodes=3, seeds=(0, 1))


def test_second_write_raises_and_keeps_first_bytes(tmp_path):
    path = tmp_path / "artifact.csv"
    write_text(path, "first\n")
    with pytest.raises(FileExistsError):
        write_text(path, "second, longer text\n")
    assert path.read_bytes() == b"first\n"


def test_failed_write_leaves_no_half_run(tmp_path, monkeypatch):
    out = tmp_path / "run"
    written = []

    def fail_on_fifth(path, text):
        if len(written) == 4:
            raise OSError("disk full")
        write_text(path, text)
        written.append(path)

    monkeypatch.setattr(runio, "write_text", fail_on_fifth)
    with pytest.raises(OSError, match="disk full"):
        execute_train_run(TINY, out)
    assert len(written) == 4
    assert list(tmp_path.iterdir()) == []  # neither a half-run nor a temp directory

    monkeypatch.undo()
    summary = execute_train_run(TINY, out)
    assert summary["seeds"] == [0, 1]
    assert (out / "seed1" / "summary.json").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def test_empty_run_dir_is_filled_with_the_usual_permissions(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    reference = tmp_path / "reference"
    reference.mkdir()
    execute_train_run(TINY, out)
    assert (out / "summary.json").is_file()
    assert out.stat().st_mode == reference.stat().st_mode


def test_non_empty_run_dir_refused_and_untouched(tmp_path):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("keep\n")
    with pytest.raises(FileExistsError, match="not empty"):
        execute_train_run(TINY, out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def test_run_dir_filled_during_training_is_refused(tmp_path, monkeypatch):
    out = tmp_path / "run"
    train_all = runio.multi_seed

    def train_then_collide(config):
        result = train_all(config)
        out.mkdir()
        (out / "notes.txt").write_text("keep\n")
        return result

    monkeypatch.setattr(runio, "multi_seed", train_then_collide)
    with pytest.raises(FileExistsError, match="not empty"):
        execute_train_run(TINY, out)
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]
