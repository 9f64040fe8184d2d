"""End-to-end command-line tests on small runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bmu_lab import cli, trainer
from bmu_lab.cli import _build_parser, main
from bmu_lab.discretize import cell_of
from bmu_lab.runio import load_agent
from bmu_lab.synaptic import SynapticAgent
from bmu_lab.trainer import run_episode

TINY = ["--max-episodes", "5", "--window", "3", "--convergence-reward", "200"]


def run_cli(args):
    return main([str(a) for a in args])


def read(path):
    return path.read_text()


def train_subparser():
    return _build_parser()._subparsers._group_actions[0].choices["train"]


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

    def test_non_finite_reward_in_config_file_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.txt"
        config.write_text("agent = qtable\nfail_reward = nan\n")
        code = run_cli(["train", "--config", config, "--seeds", "1",
                        "--out", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fail_reward" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.txt"]

    @pytest.mark.parametrize("seed_list", ["1,1", "0,-1", "1,a"])
    def test_duplicate_or_negative_seed_rejected_before_training(self, tmp_path, capsys,
                                                                   monkeypatch, seed_list):
        trained = []
        monkeypatch.setattr(trainer, "train", lambda *args: trained.append(args))
        code = run_cli(["train", "--agent", "qtable", "--seed-list", seed_list,
                        "--out", tmp_path / "run"] + TINY)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seeds" in err
        assert trained == []
        assert list(tmp_path.iterdir()) == []

    def test_unreadable_config_is_one_error_line(self, tmp_path, capsys):
        code = run_cli(["train", "--config", tmp_path, "--out", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    # one value outside each flag's domain
    OUT_OF_DOMAIN_FLAGS = [
        ("--gamma", "1", "gamma"), ("--alpha", "nan", "alpha"), ("--bins", "1", "n_bins"),
        ("--convergence-reward", "inf", "convergence_reward"),
        ("--window", "0", "convergence_window"), ("--max-episodes", "0", "max_episodes"),
        ("--epsilon", "-0.5", "epsilon"), ("--epsilon-decay", "0", "epsilon_decay"),
        ("--snapshot-every", "-1", "snapshot_every"), ("--init", "gaussian", "init"),
        ("--pool-capacity", "0", "pool_capacity"),
    ]

    @pytest.mark.parametrize("flag, value, key", OUT_OF_DOMAIN_FLAGS)
    def test_out_of_domain_flag_refused_before_any_output(self, tmp_path, capsys, monkeypatch,
                                                          flag, value, key):
        built, written = [], []
        monkeypatch.setattr(trainer, "make_agent", lambda *args: built.append(args))
        monkeypatch.setattr(cli, "execute_train_run", lambda *args: written.append(args))
        # flag=value, so that argparse takes "-inf" as a value
        code = run_cli(["train", "--agent", "qtable", f"{flag}={value}", "--out", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must ") and "Traceback" not in err
        assert built == [] and written == []
        assert list(tmp_path.iterdir()) == []  # no run and no temporary sibling

    def test_out_of_domain_cases_cover_every_config_flag(self):
        train_parser = train_subparser()
        dests = {a.dest[4:] for a in train_parser._actions if a.dest.startswith("cfg_")}
        assert dests == {key for _, _, key in self.OUT_OF_DOMAIN_FLAGS}

    def test_train_flags_pinned(self):
        train_parser = train_subparser()
        flags = sorted((a.option_strings[0], a.dest) for a in train_parser._actions)
        assert flags == sorted([
            ("-h", "help"), ("--agent", "agent"), ("--out", "out"), ("--config", "config"),
            ("--seeds", "seeds"), ("--seed-base", "seed_base"), ("--seed-list", "seed_list"),
            ("--gamma", "cfg_gamma"), ("--alpha", "cfg_alpha"), ("--bins", "cfg_n_bins"),
            ("--max-episodes", "cfg_max_episodes"),
            ("--convergence-reward", "cfg_convergence_reward"),
            ("--window", "cfg_convergence_window"), ("--epsilon", "cfg_epsilon"),
            ("--epsilon-decay", "cfg_epsilon_decay"),
            ("--snapshot-every", "cfg_snapshot_every"), ("--init", "cfg_init"),
            ("--pool-capacity", "cfg_pool_capacity"),
        ])
        assert all(len(a.option_strings) == 1 for a in train_parser._actions[1:])

    def test_aggregate_fields_parse_as_floats(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["train", "--agent", "qtable", "--seeds", "2", "--out", out] + TINY) == 0
        header, *rows = read(out / "aggregate.csv").splitlines()
        assert header == "episode,mean,lo_band,hi_band" and len(rows) == 5
        for row in rows:
            episode, *values = row.split(",")
            int(episode)
            [float(v) for v in values]

    def test_unknown_flag_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["train", "--agent", "qtable", "--out", tmp_path / "x",
                     "--frobnicate", "1"])
        assert excinfo.value.code != 0

    def test_parser_is_reused_across_calls(self, tmp_path, capsys, monkeypatch):
        # one parser per process: a rejected flag must not disturb later calls
        assert _build_parser() is _build_parser()
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1",
                        "--out", tmp_path / "a"] + TINY) == 0
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["train", "--agent", "qtable", "--out", tmp_path / "x", "--frobnicate"])
        assert excinfo.value.code == 2
        assert run_cli(["train", "--agent", "bmu", "--seeds", "2",
                        "--out", tmp_path / "b"] + TINY) == 0
        summary = json.loads(read(tmp_path / "b" / "summary.json"))
        assert summary["agent"] == "bmu" and summary["seeds"] == [0, 1]
        assert (tmp_path / "a" / "seed0" / "rewards.csv").is_file()
        assert not (tmp_path / "x").exists()
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err

    def test_existing_run_dir_protected(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1",
                        "--out", out] + TINY) == 0
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1",
                        "--out", out] + TINY) == 1
        assert "already exists" in capsys.readouterr().err

    def test_seed_list_and_env_base(self, tmp_path, monkeypatch):
        # BMU_LAB_SEED is retired: the environment no longer sets the seed base
        monkeypatch.setenv("BMU_LAB_SEED", "40")
        assert run_cli(["train", "--agent", "qtable", "--seeds", "2",
                        "--out", tmp_path / "a"] + TINY) == 0
        assert json.loads(read(tmp_path / "a" / "summary.json"))["seeds"] == [0, 1]
        assert run_cli(["train", "--agent", "qtable", "--seeds", "2", "--seed-base", "40",
                        "--out", tmp_path / "b"] + TINY) == 0
        assert json.loads(read(tmp_path / "b" / "summary.json"))["seeds"] == [40, 41]
        assert run_cli(["train", "--agent", "qtable", "--seed-list", "7,3", "--seeds", "4",
                        "--out", tmp_path / "c"] + TINY) == 0
        assert json.loads(read(tmp_path / "c" / "summary.json"))["seeds"] == [7, 3]

    def test_config_file_replays_its_own_seeds(self, tmp_path):
        """A run's config.txt fed back through --config trains the same seeds
        to the same rewards; a seed flag still wins over the file."""
        run = tmp_path / "run"
        assert run_cli(["train", "--agent", "synaptic", "--seed-list", "3,4",
                        "--out", run] + TINY) == 0
        config = run / "config.txt"

        def replay(name, *flags):
            assert run_cli(["train", "--config", config, *flags,
                            "--out", tmp_path / name]) == 0
            return json.loads(read(tmp_path / name / "summary.json"))["seeds"]

        assert replay("again") == [3, 4]
        for seed in ("seed3", "seed4"):
            assert read(tmp_path / "again" / seed / "rewards.csv") \
                == read(run / seed / "rewards.csv")
        assert replay("one", "--seeds", "1") == [0]
        assert replay("base", "--seed-base", "4") == [4]
        assert read(tmp_path / "base" / "seed4" / "rewards.csv") \
            == read(run / "seed4" / "rewards.csv")

    def test_retired_flags_are_unknown(self, tmp_path):
        # a flag and its value; the retired switch took none
        for flag in (("--kappa", "2"), ("--c-gain", "1.0"), ("--max-steps", "250"),
                     ("--theta-limit", "0.2095"), ("--x-limit", "2.4"),
                     ("--x-bin-bound", "6.0"), ("--x-dot-bound", "11.0"),
                     ("--theta-dot-bound", "7.0"), ("--qtable-dense",)):
            with pytest.raises(SystemExit) as excinfo:
                run_cli(["train", "--agent", "qtable", "--out", tmp_path / "x", *flag])
            assert excinfo.value.code == 2
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key, value", [
        ("kappa", "3"), ("max_steps", "500"), ("theta_limit", "0.418"), ("x_limit", "3.0"),
        ("x_bin_bound", "6.5"), ("x_dot_bound", "inf"), ("theta_dot_bound", "nan"),
        ("step_reward", "2.0"), ("fail_reward", "-1.0"), ("qtable_dense", "true"),
    ])
    def test_retired_key_at_another_value_refused_before_any_output(
            self, tmp_path, capsys, monkeypatch, key, value):
        built, written = [], []
        monkeypatch.setattr(trainer, "make_agent", lambda *args: built.append(args))
        monkeypatch.setattr(cli, "execute_train_run", lambda *args: written.append(args))
        config = tmp_path / "old.txt"
        config.write_text(f"agent = qtable\n{key} = {value}\n")
        code = run_cli(["train", "--config", config, "--out", tmp_path / "run"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} ") and "Traceback" not in err
        assert built == [] and written == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]

    def test_negative_exponent_value_given_with_equals(self, tmp_path):
        # argparse reads "-1e2" after a space as an option; "=" binds it
        out = tmp_path / "run"
        assert run_cli(["train", "--agent", "qtable", "--max-episodes", "2",
                        "--convergence-reward=-1e2", "--out", out]) == 0
        assert "convergence_reward = -100.0\n" in read(out / "config.txt")

    def test_pool_capacity_error_names_size(self, tmp_path, capsys):
        code = run_cli(["train", "--agent", "bmu-pool", "--seeds", "1",
                        "--pool-capacity", "2", "--out", tmp_path / "x"] + TINY)
        assert code == 1
        assert "2 neurons" in capsys.readouterr().err

    def test_full_pool_recorded_per_seed(self, tmp_path, capsys):
        out, alone = tmp_path / "run", tmp_path / "alone"
        args = ["train", "--agent", "bmu-pool", "--pool-capacity", "22",
                "--max-episodes", "10", "--window", "10"]
        assert run_cli(args + ["--seed-list", "0,1", "--out", out]) == 0
        assert "seed 1: failed after 9 episodes: neuron pool exhausted" in capsys.readouterr().out
        summary = json.loads(read(out / "summary.json"))
        assert summary["failed_seeds"] == [1]
        assert summary["convergence_episodes"] == [None, None]
        assert [e["failed"] for e in summary["per_seed"]] == [
            None, "neuron pool exhausted: all 22 neurons assigned"]
        seed1 = json.loads(read(out / "seed1" / "summary.json"))
        assert seed1["failed"] == summary["per_seed"][1]["failed"]
        assert seed1["episodes_run"] == 9
        assert len(read(out / "seed1" / "rewards.csv").splitlines()) == 1 + 9
        # the bands cover only the seed that did not fail
        assert run_cli(args + ["--seed-list", "0", "--out", alone]) == 0
        assert read(out / "aggregate.csv") == read(alone / "aggregate.csv")
        assert json.loads(read(alone / "summary.json"))["failed_seeds"] == []

    def test_every_seed_failed_exits_1_with_the_run_written(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli(["train", "--agent", "bmu-pool", "--pool-capacity", "5",
                        "--seed-list", "0,1", "--out", out] + TINY) == 1
        assert capsys.readouterr().err.startswith("error: every seed failed")
        summary = json.loads(read(out / "summary.json"))
        assert summary["failed_seeds"] == [0, 1]
        assert summary["episodes"] == 0
        assert read(out / "aggregate.csv") == "episode,mean,lo_band,hi_band\n"
        for entry in summary["per_seed"]:
            assert entry["episodes_run"] == 0
            assert entry["final_reward"] is None and entry["final_moving_avg"] is None

    def test_init_flag(self, tmp_path):
        out = tmp_path / "run"
        assert run_cli(["train", "--agent", "qtable", "--init", "uniform", "--seeds", "1",
                        "--out", out] + TINY) == 0
        assert "init = uniform\n" in read(out / "config.txt")
        assert json.loads(read(out / "seed0" / "agent.json"))["q_init"] == "uniform"
        for legacy in ("--q-init", "--encoder-init"):
            with pytest.raises(SystemExit):
                run_cli(["train", "--agent", "qtable", legacy, "zeros", "--out", tmp_path / "x"])

    def test_rewards_csv_bit_identical_across_invocations(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["train", "--agent", "synaptic", "--seeds", "1",
                "--max-episodes", "8"]
        assert run_cli(args + ["--out", a]) == 0
        assert run_cli(args + ["--out", b]) == 0
        assert read(a / "seed0" / "rewards.csv") == read(b / "seed0" / "rewards.csv")
        assert read(a / "seed0" / "agent.json") == read(b / "seed0" / "agent.json")


def train_run(out, agent="synaptic"):
    code = run_cli(["train", "--agent", agent, "--seeds", "1",
                    "--max-episodes", "6", "--snapshot-every", "3", "--out", out])
    assert code == 0
    return out


@pytest.fixture()
def trained_run(tmp_path):
    return train_run(tmp_path / "run")


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

    def test_second_eval_refused_with_its_files_intact(self, trained_run, capsys):
        assert run_cli(["eval", "--run", trained_run, "--episodes", "1"]) == 0
        before = dir_contents(trained_run)
        assert run_cli(["eval", "--run", trained_run, "--episodes", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "phase.csv already exists" in err
        assert dir_contents(trained_run) == before

    def test_zero_episodes_is_an_error(self, trained_run, capsys):
        assert run_cli(["eval", "--run", trained_run, "--episodes", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: --episodes")
        assert not (trained_run / "eval_seed0").exists()

    @pytest.mark.parametrize("episodes", ("0", "-3"))
    def test_bad_episode_count_rejected_before_loading(self, trained_run, capsys,
                                                       monkeypatch, episodes):
        loaded = []
        monkeypatch.setattr(cli, "load_agent", lambda text: loaded.append(text))
        assert run_cli(["eval", "--run", trained_run, "--episodes", episodes]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --episodes must be >= 1, got {episodes}\n"
        assert loaded == []
        assert not (trained_run / "eval_seed0").exists()

    def test_missing_run_dir(self, tmp_path, capsys):
        assert run_cli(["eval", "--run", tmp_path / "nope"]) == 1
        assert "config.txt" in capsys.readouterr().err

    def test_negative_eval_seed_rejected_before_loading(self, trained_run, capsys,
                                                       monkeypatch):
        loaded = []
        monkeypatch.setattr(cli, "load_agent", lambda text: loaded.append(text))
        assert run_cli(["eval", "--run", trained_run, "--eval-seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: --eval-seed")
        assert loaded == []
        assert not (trained_run / "eval_seed0").exists()

    def test_agent_file_with_three_actions_named(self, trained_run, capsys):
        agent_path = trained_run / "seed0" / "agent.json"
        payload = json.loads(read(agent_path))
        payload["kappa"] = 3
        for neuron in payload["neurons"]:
            neuron["synapses"].append({"q": 0.0, "target": None, "gate": "closed"})
        agent_path.write_text(json.dumps(payload))
        assert run_cli(["eval", "--run", trained_run]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kappa must be 2")
        assert not (trained_run / "eval_seed0").exists()


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
        episodes, snapshots = [], []

        def counted(*args, **kwargs):
            episodes.append(1)
            return run_episode(*args, **kwargs)

        def counted_snapshot(agent):
            snapshots.append(1)
            return snapshot(agent)

        snapshot = SynapticAgent.snapshot
        monkeypatch.setattr(trainer, "run_episode", counted)
        monkeypatch.setattr(SynapticAgent, "snapshot", counted_snapshot)
        for episode in (4, 12):
            episodes.clear()
            snapshots.clear()
            export = tmp_path / f"export{episode}"
            assert run_cli(["export-graph", "--run", out, "--episode", episode,
                            "--out", export]) == 0
            assert len(episodes) == episode
            assert len(snapshots) == 1  # the replay builds no cadence snapshots
            # training keeps a cadence GEXF only at the run's last episode
            for suffix in ("dot", "gexf") if episode == 12 else ("dot",):
                name = f"graph_ep{episode}.{suffix}"
                assert (export / name).read_bytes() == (out / "seed0" / name).read_bytes()
            assert (out / "seed0" / f"graph_ep{episode}.gexf").exists() == (episode == 12)

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


@pytest.mark.parametrize("command", [
    ["eval", "--run"], ["export-graph", "--episode", "3", "--run"], ["stats", "--run"],
    ["table2", "--out", "table2.csv", "--runs"],
])
def test_older_dense_run_refused_by_key(tmp_path, capsys, monkeypatch, command):
    """A run trained in the retired dense Q-table mode is refused by every
    command that reads its config.txt, before any output."""
    monkeypatch.chdir(tmp_path)
    run = tmp_path / "run"
    assert run_cli(["train", "--agent", "qtable", "--seeds", "1", "--out", run] + TINY) == 0
    config = run / "config.txt"
    config.write_text(read(config) + "qtable_dense = true\n")
    before = dir_contents(tmp_path)
    capsys.readouterr()
    assert run_cli([*command, run]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: qtable_dense ") and "Traceback" not in err
    assert dir_contents(tmp_path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run"]


def edited_json(change):
    """An edit of a JSON file's text that applies `change` to its payload."""
    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)
    return edit


def state_without_row(keys):
    return next(key for key in (f"{i}_{i}_{i}_{i}_" for i in range(10)) if key not in keys)


def synapse_to_unknown_state(payload):
    keys = {neuron["key"] for neuron in payload["neurons"]}
    payload["neurons"][0]["synapses"][0]["target"] = state_without_row(keys)


def first_row(table):
    return next(iter(table))


def pool_state_again(payload):
    """The first state assigned once more, at the next index with its own row."""
    payload["assigned"].append([payload["assigned"][0][0], len(payload["assigned"])])
    payload["weights"].append([0.0, 0.0])


def repeated_key(text, head, key, value):
    """The file's text with `key: value` written again at the head of the
    object that starts with `head`."""
    return text.replace(head, f'{head}{json.dumps(key)}: {json.dumps(value)}, ', 1)


# agent.json cases: the run's kind, the edit of the payload, and what the
# error line must name
MALFORMED = {
    # every kind: the head of agent.json
    "agent-without-alpha": ("synaptic", lambda p: p.pop("alpha"), "alpha"),
    "agent-alpha-not-a-number": ("synaptic", lambda p: p.update(alpha="x"), "alpha"),
    "agent-gamma-out-of-range": ("bmu", lambda p: p.update(gamma=5.0), "gamma"),
    # a row: a state named once, holding KAPPA finite numbers
    "synaptic-neuron-twice": ("synaptic", lambda p: p["neurons"].append(p["neurons"][0]),
                              "listed twice"),
    "synaptic-neuron-with-three-synapses": (
        "synaptic", lambda p: p["neurons"][0]["synapses"].append(
            {"q": 0.0, "target": None, "gate": "closed"}), "must hold 2"),
    "bmu-ensemble-twice": ("bmu", lambda p: p["ensembles"].append(p["ensembles"][0]),
                           "listed twice"),
    "bmu-ensemble-with-three-encoders": (
        "bmu", lambda p: p["ensembles"][0]["encoders"].append([0.0]), "must hold 2"),
    "pool-state-twice": ("bmu-pool", lambda p: pool_state_again(p), "listed twice"),
    "pool-weights-row-of-one": ("bmu-pool", lambda p: p["weights"][0].pop(), "must hold 2"),
    "pool-index-minus-one": ("bmu-pool", lambda p: p["assigned"][0].__setitem__(1, -1),
                             "pool index"),
    # the pair at position i holds index i and weights row i, within capacity
    "pool-index-aliased": ("bmu-pool", lambda p: p["assigned"][1].__setitem__(1, 0),
                           "pool index"),
    "pool-weights-row-without-state": ("bmu-pool", lambda p: p["weights"].append([0.0, 0.0]),
                                       "weights rows"),
    "pool-state-without-weights-row": ("bmu-pool", lambda p: p["weights"].pop(),
                                       "weights rows"),
    "pool-over-capacity": ("bmu-pool", lambda p: p.update(capacity=len(p["assigned"]) - 1),
                           "capacity"),
    "qtable-q-value-nan-string": (
        "qtable", lambda p: p["rows"][first_row(p["rows"])].__setitem__(0, "nan"),
        "must hold 2"),
    # the edges and the visits
    "edge-target-without-row": ("synaptic", synapse_to_unknown_state, "has no row"),
    "bmu-edge-action-five": ("bmu", lambda p: p["edges"][0].update(action=5), "edge action"),
    "qtable-visits-count-not-a-number": (
        "qtable", lambda p: p["visits"].update({first_row(p["visits"]): "x"}), "visits"),
    "qtable-visits-count-negative": (
        "qtable", lambda p: p["visits"].update({first_row(p["visits"]): -1}), "visits"),
    "qtable-visits-key-malformed": (
        "qtable", lambda p: p["visits"].update({"5_5_x_5_": 1}), "'5_5_x_5_'"),
    "qtable-visits-key-without-row": (
        "qtable", lambda p: p["visits"].update({state_without_row(p["rows"]): 1}), "has no row"),
    "qtable-visits-count-zero": (
        "qtable", lambda p: p["visits"].update({first_row(p["visits"]): 0}), "positive integer"),
}


@pytest.mark.parametrize("command, agent, name, edit, names", [
    *[("eval", agent, "seed0/agent.json", edited_json(change), names)
      for agent, change, names in MALFORMED.values()],
    ("eval", "synaptic", "seed0/agent.json", lambda text: json.dumps([json.loads(text)]),
     "JSON object"),
    # a key named twice in one JSON object, which json.loads would take once
    ("eval", "synaptic", "seed0/agent.json", lambda text: repeated_key(text, "{", "alpha", 0.5),
     "'alpha' is repeated"),
    ("eval", "qtable", "seed0/agent.json",
     lambda text: repeated_key(text, '"rows": {', first_row(json.loads(text)["rows"]),
                               [0.0, 0.0]), "is repeated"),
    ("stats", "synaptic", "seed0/graph_final.gexf", lambda text: text[:len(text) // 2],
     "malformed GEXF"),
    ("stats", "synaptic", "seed0/graph_final.gexf",
     lambda text: text.replace('for="0"', 'for="99"', 1), "malformed GEXF"),
    ("stats", "synaptic", "seed0/graph_final.gexf",
     lambda text: text.replace('title="value" type="double"', 'title="value" type="integer"', 1),
     "'value' is declared integer"),
    ("stats", "synaptic", "seed0/graph_final.gexf",
     lambda text: text.replace(' value="', ' valu="', 1), "'value' is declared double"),
    ("table2", "synaptic", "summary.json",
     edited_json(lambda payload: payload.pop("convergence_episodes")), "convergence_episodes"),
], ids=[*MALFORMED, "agent-as-list", "agent-key-repeated", "qtable-row-repeated",
        "truncated-gexf", "gexf-value-of-undeclared-attribute",
        "gexf-value-not-its-declared-type", "gexf-attvalue-without-value",
        "summary-without-convergence-episodes"])
def test_malformed_run_file_is_one_error_line(tmp_path, capsys, command, agent, name, edit,
                                              names):
    """A run file edited out of shape ends the command in one `error:`
    line that names what is wrong, with no traceback and no output
    directory, and leaves the run as it was."""
    run = train_run(tmp_path / "run", agent)
    path = run / name
    text = path.read_text()
    path.write_text(edit(text))
    assert path.read_text() != text
    before = dir_contents(run)
    out = tmp_path / "out"
    if command == "table2":
        args = ["table2", "--runs", run, "--out", out / "table2.csv"]
    else:
        args = [command, "--run", run, "--out", out]
    capsys.readouterr()
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert names in err
    assert "Traceback" not in err
    assert not out.exists()
    assert dir_contents(run) == before


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
        assert lines[0] == ("agent,init,episodes_to_convergence,neurons,avg_fan_in,"
                            "parameters,failed")
        assert len(lines) == 3
        assert lines[1].startswith("synaptic,optimistic,")
        assert lines[2].startswith("qtable,optimistic,")
        assert "n/a" in lines[2]  # fan-in has no meaning for a table

    def test_init_and_failed_columns(self, tmp_path, capsys):
        pool, legacy = tmp_path / "pool", tmp_path / "legacy"
        assert run_cli(["train", "--agent", "bmu-pool", "--pool-capacity", "22",
                        "--max-episodes", "10", "--seed-list", "0,1,3", "--out", pool]) == 0
        assert run_cli(["train", "--agent", "bmu", "--seeds", "1", "--out", legacy] + TINY) == 0
        # a run directory written before the `init` key: legacy keys, no failed_seeds
        config = legacy / "config.txt"
        config.write_text(read(config).replace(
            "init = optimistic\n", "q_init = optimistic\nencoder_init = uniform\n"))
        summary = json.loads(read(legacy / "summary.json"))
        del summary["failed_seeds"]
        (legacy / "summary.json").write_text(json.dumps(summary))
        all_failed = tmp_path / "all_failed"
        assert run_cli(["train", "--agent", "bmu-pool", "--pool-capacity", "5",
                        "--seed-list", "0,1", "--out", all_failed] + TINY) == 1
        table = tmp_path / "table2.csv"
        assert run_cli(["table2", "--runs", pool, legacy, all_failed, "--out", table]) == 0
        rows = [line.split(",") for line in read(table).strip().split("\n")]
        columns = rows[0]
        pool_row, bmu_row, failed_row = (dict(zip(columns, row)) for row in rows[1:])
        assert pool_row["init"] == "optimistic"
        assert pool_row["failed"] == "2"
        assert bmu_row["init"] == "uniform"
        assert bmu_row["failed"] == "0"
        # the size medians cover only the seed that did not fail
        (kept,) = [e for e in json.loads(read(pool / "summary.json"))["per_seed"]
                   if e["failed"] is None]
        stats = kept["final_stats"]
        assert (pool_row["neurons"], pool_row["avg_fan_in"], pool_row["parameters"]) == (
            str(stats["neurons"]), f"{stats['avg_fan_in']:.4g}", str(stats["parameter_count"]))
        assert failed_row["failed"] == "2"
        assert (failed_row["neurons"], failed_row["avg_fan_in"],
                failed_row["parameters"]) == ("n/a", "n/a", "n/a")

    def test_existing_table_left_intact(self, tmp_path, capsys):
        run = tmp_path / "a"
        assert run_cli(["train", "--agent", "qtable", "--seeds", "1", "--out", run] + TINY) == 0
        table = tmp_path / "table2.csv"
        table.write_text("earlier table\n")
        assert run_cli(["table2", "--runs", run, "--out", table]) == 1
        assert "error:" in capsys.readouterr().err
        assert read(table) == "earlier table\n"


# -- numpy loads only where a command draws random numbers ----------------
# -- and hashlib and ElementTree only where a digest or a graph is read ----

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("numpy", "hashlib", "xml.etree.ElementTree")
# prints which of the LAZY modules the interpreter has imported
REPORT = f"print(','.join(m for m in {LAZY!r} if m in sys.modules) or '-')"
# runs `main` on the arguments, then reports
MAIN_PROBE = """
import sys
from bmu_lab.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
""" + REPORT


def lazy_loaded(script, *args) -> set[str]:
    """Which LAZY modules a fresh interpreter has imported after `script`,
    which ends in REPORT."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split()[-1].split(",")) - {"-"}


def numpy_loaded(script, *args):
    return "numpy" in lazy_loaded(script, *args)


@pytest.mark.parametrize("module", ["bmu_lab", "bmu_lab.cli"])
def test_import_leaves_numpy_unloaded(module):
    assert lazy_loaded(f"import sys, {module}\n" + REPORT) == set()


def test_commands_that_draw_nothing_leave_numpy_unloaded(trained_run, tmp_path):
    filled = tmp_path / "filled"
    filled.mkdir()
    (filled / "earlier.txt").write_text("kept\n")
    for args, loaded in (
            (["--help"], set()),
            (["stats", "--run", trained_run, "--out", tmp_path / "stats"],
             {"xml.etree.ElementTree"}),
            (["table2", "--runs", trained_run, "--out", tmp_path / "table2.csv"], set()),
            (["train", "--epsilon", "nan", "--out", tmp_path / "nan"], set()),
            (["train", "--out", filled], set())):
        assert lazy_loaded(MAIN_PROBE, *args) == loaded, args
    assert (tmp_path / "stats" / "degree_hist.csv").is_file()
    assert (tmp_path / "table2.csv").is_file()
    assert not (tmp_path / "nan").exists()
    assert [p.name for p in filled.iterdir()] == ["earlier.txt"]


def test_greedy_commands_leave_numpy_unloaded(tmp_path):
    """At epsilon 0 nothing explores: train, eval and export-graph seed,
    start and initialise in Python, at uniform init too."""
    run = tmp_path / "run"
    for args in (["train", "--agent", "bmu", "--init", "uniform", "--seeds", "1",
                  "--max-episodes", "4", "--snapshot-every", "2", "--out", run],
                 ["eval", "--run", run, "--episodes", "3"],
                 ["export-graph", "--run", run, "--episode", "2"]):
        assert not numpy_loaded(MAIN_PROBE, *args), args
    assert (run / "eval_seed0" / "trajectories.csv").is_file()
    assert read(run / "export" / "graph_ep2.dot") == read(run / "seed0" / "graph_ep2.dot")


def test_training_loads_numpy(tmp_path):
    """A run that explores draws its per-step coin from numpy's PCG64."""
    assert numpy_loaded(MAIN_PROBE, "train", "--epsilon", "0.3", "--seeds", "1",
                        "--max-episodes", "2", "--out", tmp_path / "run")
    assert (tmp_path / "run" / "seed0" / "rewards.csv").is_file()


@pytest.mark.parametrize("kind", ["bmu", "qtable"])
@pytest.mark.parametrize("init", ["optimistic", "zeros", "uniform"])
def test_loading_an_agent_loads_numpy_only_for_uniform_rows(kind, init, tmp_path):
    """Loading an agent never loads numpy, at any init. A loaded uniform
    agent draws the rows it adds from `default_rng(0)`, replayed in Python."""
    out = tmp_path / "run"
    assert run_cli(["train", "--agent", kind, "--init", init, "--seeds", "1",
                    "--max-episodes", "2", "--out", out]) == 0
    agent_file = out / "seed0" / "agent.json"
    probe = ("import sys; from bmu_lab.runio import load_agent; "
             "load_agent(open(sys.argv[1]).read())\n" + REPORT)
    assert not numpy_loaded(probe, agent_file)

    agent = load_agent(read(agent_file))
    unseen = next(cell for cell in (cell_of(f"{i}_0_0_0_") for i in range(10))
                  if cell not in agent.ids)
    assert agent.ensure(unseen)
    if init == "uniform":
        expected = np.random.default_rng(0).uniform(*agent.uniform_range, size=2).tolist()
        assert agent.q_values(unseen) == expected
