"""Run-directory persistence: write-once files."""

import pytest

from bmu_lab.runio import write_text


def test_second_write_raises_and_keeps_first_bytes(tmp_path):
    path = tmp_path / "artifact.csv"
    write_text(path, "first\n")
    with pytest.raises(FileExistsError):
        write_text(path, "second, longer text\n")
    assert path.read_bytes() == b"first\n"
