"""The benchmark's contract with the package, checked in the test suite.

`bench/` drives bmu_lab only through public entry points and patches a
fixed set of module-level names and agent methods. These tests fail when
one of those names disappears, or when a change alters what the agents
learn on the benchmark's recorded training seeds. They only read `bench/`.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch, tmp_path):
    """bench/'s `workloads` and `tracing` modules, imported for one test.

    sys.path and sys.modules (also `run`, if the test imports it) are
    restored afterwards, and the artifacts workload's scratch runs go to
    the test's temporary directory.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    monkeypatch.setattr(workloads, "WORK_DIR", tmp_path)
    yield workloads, tracing.Tracer
    for name in ("workloads", "tracing", "run"):
        sys.modules.pop(name, None)


def test_every_patched_name_resolves_and_is_restored(bench):
    from bmu_lab import cli, runio, trainer

    _, Tracer = bench

    tapped = [(trainer, "train"), (cli, "train"), (runio, "evaluate"), (cli, "evaluate")]
    originals = [getattr(owner, name) for owner, name in tapped]

    def ignore(_result, _args):
        return None

    with Tracer(spans=False) as tracer:
        tracer.install(ignore, ignore, ignore)
        assert all(getattr(owner, name) is not original
                   for (owner, name), original in zip(tapped, originals))
    assert [getattr(owner, name) for owner, name in tapped] == originals


@pytest.mark.parametrize("workload", ["train-churn", "artifacts"])
def test_first_round_matches_recorded_fingerprints(bench, workload):
    workloads, Tracer = bench
    expected = workloads.load_fingerprints()[workload]
    with Tracer(spans=False) as tracer:
        session = workloads.Session(workload, 0, tracer, expected)
        session.run(rounds=1)
    assert session.failures() == []
    assert session.observed
    assert all(key in expected for key in session.observed)


def test_traced_round_reconciles_with_program_counts(bench):
    """Every traced boundary is still called where the benchmark expects it:
    one traced round's span counts match the counts the program reports."""
    import run

    workloads, Tracer = bench
    expected = workloads.load_fingerprints()["train-churn"]
    with Tracer(spans=True) as tracer:
        session = workloads.Session("train-churn", 0, tracer, expected)
        session.run(rounds=1)
    assert session.failures() == []
    assert run.reconcile(tracer, session) == []
    # reconcile counts env steps, discretize and stats; the per-step agent
    # methods must be traced too
    for kind in workloads.KINDS:
        for method in ("ensure", "select", "update"):
            assert tracer.calls(f"{kind}.{method}") > 0
