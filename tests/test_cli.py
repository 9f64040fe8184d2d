"""End-to-end command-line tests on small runs."""

import json

import pytest

from bmu_lab import trainer
from bmu_lab.cli import main
from bmu_lab.trainer import run_episode

TINY = ["--max-episodes", "5", "--window", "3", "--convergence-reward", "200"]


def run_cli(args):
    return main([str(a) for a in args])


def read(path):
    return path.read_text()


class TestTrain:
    def test_qtable_five_episodes(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["train", "--agent", "qtable", "--seeds", "1", "--out", out] + TINY)
        assert code == 0
        rewards = read(out / "seed0" / "rewards.csv").strip().split("\n")
        assert rewards[0] == "episode,reward,moving_avg,std,neurons,avg_fan_in,params"
        assert len(rewards) == 6  # header + 5 episodes
        assert (out / "config.txt").is_file()
        assert (out / "aggregate.csv").is_file()
        assert (out / "summary.json").is_file()
        assert (out / "seed0" / "graph_final.gexf").is_file()
        assert (out / "seed0" / "phase.csv").is_file()
        assert "agent=qtable" in capsys.readouterr().out

    def test_invalid_gamma_rejected(self, tmp_path, capsys):
        code = run_cli(["train", "--agent", "synaptic", "--gamma", "1.5",
                        "--out", tmp_path / "x"])
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    def test_unknown_flag_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["train", "--agent", "qtable", "--out", tmp_path / "x",
                     "--frobnicate", "1"])
        assert excinfo.value.code != 0

    def test_existing_run_dir_protected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1",
                        "--out", out] + TINY) == 0
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1",
                        "--out", out] + TINY) == 1
        assert "already exists" in capsys.readouterr().err

    def test_seed_list_and_env_base(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        monkeypatch.setenv("BMU_LAB_SEED", "40")
        assert run_cli(["train", "--agent", "qtable", "--seeds", "2",
                        "--out", out] + TINY) == 0
        summary = json.loads(read(out / "summary.json"))
        assert summary["seeds"] == [40, 41]

    def test_pool_capacity_error_names_size(self, tmp_path, capsys):
        code = run_cli(["train", "--agent", "bmu-pool", "--seeds", "1",
                        "--pool-capacity", "2", "--out", tmp_path / "x"] + TINY)
        assert code == 1
        assert "2 neurons" in capsys.readouterr().err

    def test_rewards_csv_bit_identical_across_invocations(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--agent", "synaptic", "--seeds", "1",
                "--max-episodes", "8"]
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert read(a / "seed0" / "rewards.csv") == read(b / "seed0" / "rewards.csv")
        assert read(a / "seed0" / "agent.json") == read(b / "seed0" / "agent.json")


@pytest.fixture()
def trained_run(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["train", "--agent", "synaptic", "--seeds", "1",
                    "--max-episodes", "6", "--snapshot-every", "3", "--out", out])
    assert code == 0
    return out


def dir_contents(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestEval:
    def test_eval_writes_traces(self, trained_run, capsys):
        code = run_cli(["eval", "--run", trained_run, "--episodes", "2"])
        assert code == 0
        eval_dir = trained_run / "eval_seed0"
        assert (eval_dir / "phase.csv").is_file()
        summary = json.loads(read(eval_dir / "summary.json"))
        assert summary["episodes"] == 2
        assert "mean=" in capsys.readouterr().out

    def test_eval_never_mutates_training_artifacts(self, trained_run):
        before = dir_contents(trained_run)
        assert run_cli(["eval", "--run", trained_run, "--episodes", "1",
                        "--out", trained_run / "eval_again"]) == 0
        after = dir_contents(trained_run)
        for name, blob in before.items():
            assert after[name] == blob

    def test_zero_episodes_is_an_error(self, trained_run, capsys):
        assert run_cli(["eval", "--run", trained_run, "--episodes", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: n_episodes")
        assert not (trained_run / "eval_seed0").exists()

    def test_missing_run_dir(self, tmp_path, capsys):
        assert run_cli(["eval", "--run", tmp_path / "nope"]) == 1
        assert "config.txt" in capsys.readouterr().err


class TestExportGraph:
    def test_export_at_episode(self, trained_run):
        code = run_cli(["export-graph", "--run", trained_run, "--episode", "4"])
        assert code == 0
        assert (trained_run / "export" / "graph_ep4.dot").is_file()
        assert (trained_run / "export" / "graph_ep4.gexf").is_file()

    def test_replay_stops_at_requested_episode(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        # a window as long as the run: it cannot converge before its cap
        assert run_cli(["train", "--agent", "synaptic", "--seeds", "1", "--max-episodes", "12",
                        "--window", "12", "--snapshot-every", "4", "--out", out]) == 0
        assert json.loads(read(out / "summary.json"))["converged_count"] == 0
        episodes = []

        def counted(*args, **kwargs):
            episodes.append(1)
            return run_episode(*args, **kwargs)

        monkeypatch.setattr(trainer, "run_episode", counted)
        assert run_cli(["export-graph", "--run", out, "--episode", "4"]) == 0
        assert len(episodes) == 4
        for suffix in ("dot", "gexf"):
            name = f"graph_ep4.{suffix}"
            assert (out / "export" / name).read_bytes() == (out / "seed0" / name).read_bytes()

    def test_episode_below_one_errors(self, trained_run, capsys):
        assert run_cli(["export-graph", "--run", trained_run, "--episode", "0"]) == 1
        assert "--episode" in capsys.readouterr().err

    def test_episode_beyond_run_errors(self, trained_run, capsys):
        assert run_cli(["export-graph", "--run", trained_run, "--episode", "99"]) == 1
        assert "before episode 99" in capsys.readouterr().err


class TestStats:
    def test_degree_histogram_written(self, trained_run, capsys):
        code = run_cli(["stats", "--run", trained_run])
        assert code == 0
        hist = read(trained_run / "stats_seed0" / "degree_hist.csv").strip().split("\n")
        assert hist[0] == "degree,count"
        assert "avg_degree=" in capsys.readouterr().out


class TestTable2:
    def test_comparison_over_two_runs(self, tmp_path, capsys):
        run_a, run_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(["train", "--agent", "synaptic", "--seeds", "1",
                        "--out", run_a] + TINY) == 0
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1",
                        "--out", run_b] + TINY) == 0
        table = tmp_path / "table2.csv"
        assert run_cli(["table2", "--runs", run_a, run_b, "--out", table]) == 0
        lines = read(table).strip().split("\n")
        assert lines[0] == "agent,episodes_to_convergence,neurons,avg_fan_in,parameters"
        assert len(lines) == 3
        assert lines[1].startswith("synaptic,")
        assert lines[2].startswith("qtable,")
        assert "n/a" in lines[2]  # fan-in has no meaning for a table

    def test_existing_table_left_intact(self, tmp_path, capsys):
        run = tmp_path / "a"
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1", "--out", run] + TINY) == 0
        table = tmp_path / "table2.csv"
        table.write_text("earlier table\n")
        assert run_cli(["table2", "--runs", run, "--out", table]) == 1
        assert "error:" in capsys.readouterr().err
        assert read(table) == "earlier table\n"
