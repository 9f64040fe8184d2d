"""Run directories pinned byte for byte against a recorded manifest.

Each agent kind trains two seeds for ten episodes with snapshots every
five, on the settings of the benchmark's `artifacts` workload. Then
`eval --episodes 3`, `export-graph --episode 5` and `stats` run on the
run directory, and every file in it is compared by SHA-256 with
`tests/run_digests.json`. Only `wall_clock_seconds` in the summary files
is masked. A `config.txt` written before the cartpole task's settings
became constants and the dense Q-table mode was retired still replays to
the same files. To record the manifest
for the checked-out source:

    PYTHONPATH=src python tests/test_run_digests.py > tests/run_digests.json
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from bmu_lab.cli import main
from bmu_lab.config import config_from_entries, parse_config_text
from bmu_lab.runio import execute_train_run

MANIFEST = Path(__file__).with_name("run_digests.json")
KINDS = ("synaptic", "bmu", "bmu-pool", "qtable")

# bench/configs/artifacts.txt, shortened to ten episodes and two seeds
SETTINGS = {
    "gamma": "0.99", "alpha": "0.9", "n_bins": "10", "kappa": "2",
    "max_steps": "250", "convergence_reward": "200.0", "convergence_window": "50",
    "max_episodes": "10", "c_gain": "1.0", "epsilon": "0.0", "epsilon_decay": "1.0",
    "snapshot_every": "5", "q_init": "optimistic", "encoder_init": "optimistic",
    "pool_capacity": "10000", "qtable_dense": "false", "theta_limit": "0.2095",
    "x_limit": "2.4", "x_bin_bound": "6.0", "x_dot_bound": "11.0",
    "theta_dot_bound": "7.0", "step_reward": "1.0", "fail_reward": "-10.0",
    "seeds": "3,4",
}

# the synaptic run's config.txt as written before max_steps, the limits, the
# bin bounds and the rewards were retired to constants and the Q-table's
# dense mode was retired
OLDER_CONFIG = """\
# bmu-lab run configuration
agent = synaptic
gamma = 0.99
alpha = 0.9
n_bins = 10
max_steps = 250
convergence_reward = 200.0
convergence_window = 50
max_episodes = 10
seeds = 3,4
epsilon = 0.0
epsilon_decay = 1.0
snapshot_every = 5
init = optimistic
pool_capacity = 10000
qtable_dense = false
theta_limit = 0.2095
x_limit = 2.4
x_bin_bound = 6.0
x_dot_bound = 11.0
theta_dot_bound = 7.0
step_reward = 1.0
fail_reward = -10.0
"""
RETIRED = ("max_steps", "theta_limit", "x_limit", "x_bin_bound", "x_dot_bound",
           "theta_dot_bound", "step_reward", "fail_reward", "qtable_dense")

_WALL_CLOCK = re.compile(rb'"wall_clock_seconds": [^,\n]+')


def file_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under `root`, by relative path."""
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            data = _WALL_CLOCK.sub(b'"wall_clock_seconds": 0', data)
        digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def run_digests(kind: str, out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file of one run directory, by relative path."""
    execute_train_run(config_from_entries({**SETTINGS, "agent": kind}), out_dir)
    return read_back(out_dir)


def read_back(out_dir: Path) -> dict[str, str]:
    """Run eval, export-graph and stats on a run; the digests of its files."""
    for argv in (["eval", "--episodes", "3"], ["export-graph", "--episode", "5"], ["stats"]):
        # the commands' console lines would corrupt the manifest on stdout
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--run", str(out_dir)]) == 0
    return file_digests(out_dir)


@pytest.mark.parametrize("kind", KINDS)
def test_run_directory_matches_manifest(kind, tmp_path):
    expected = json.loads(MANIFEST.read_text())[kind]
    assert run_digests(kind, tmp_path / kind) == expected


def test_older_config_replays(tmp_path):
    """The older config.txt loads; the run it gives writes it without the
    retired lines, and the commands reading it back write the same files."""
    run = tmp_path / "synaptic"
    execute_train_run(config_from_entries(parse_config_text(OLDER_CONFIG)), run)
    assert (run / "config.txt").read_text() == "".join(
        line for line in OLDER_CONFIG.splitlines(keepends=True)
        if line.split(" = ")[0] not in RETIRED)
    (run / "config.txt").write_text(OLDER_CONFIG)
    expected = json.loads(MANIFEST.read_text())["synaptic"]
    expected["config.txt"] = hashlib.sha256(OLDER_CONFIG.encode()).hexdigest()
    assert read_back(run) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        manifest = {kind: run_digests(kind, Path(scratch) / kind) for kind in KINDS}
    json.dump(manifest, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
