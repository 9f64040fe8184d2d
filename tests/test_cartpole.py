"""Environment tests: dynamics against an independent transcription of the
reference cartpole equations, termination rules, reward accounting, and the
batched start states against numpy's per-seed draw."""

import math
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bmu_lab.cartpole import (
    FAIL_REWARD,
    FORCE_MAG,
    MAX_STEPS,
    RESET_SPREAD,
    STEP_REWARD,
    THETA_LIMIT,
    X_LIMIT,
    CartPoleEnv,
)
from bmu_lab.config import ConfigError, TrainConfig, config_from_entries
from bmu_lab.streams import initial_states

# frozen after the first run; regression-guards the seeded sampler
# (initial_states([0])[0])
GOLDEN_RESET_0 = (
    0.013696168732145436,
    -0.02302132862361297,
    -0.045902647606380534,
    -0.04834723644714709,
)


def reference_step(state, force):
    """Hand transcription of the published cartpole update equations,
    kept separate from the implementation on purpose."""
    gravity, masscart, masspole = 9.8, 1.0, 0.1
    total_mass = masspole + masscart
    length = 0.5
    polemass_length = masspole * length
    tau = 0.02

    x, x_dot, theta, theta_dot = state
    costheta = np.cos(theta)
    sintheta = np.sin(theta)
    temp = (force + polemass_length * theta_dot**2 * sintheta) / total_mass
    thetaacc = (gravity * sintheta - costheta * temp) / (
        length * (4.0 / 3.0 - masspole * costheta**2 / total_mass)
    )
    xacc = temp - polemass_length * thetaacc * costheta / total_mass
    return (
        x + tau * x_dot,
        x_dot + tau * xacc,
        theta + tau * theta_dot,
        theta_dot + tau * thetaacc,
    )


def placed(state, t=0):
    """An env holding `state` at step `t`."""
    env = CartPoleEnv()
    env.place(state, t)
    return env


# one- and two-word seeds on either side of 2**32, and the ends of the
# 63-bit episode seeds and of the accepted range
EDGE_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 64 - 1)


def numpy_start(seed):
    """The oracle: a fresh Generator per seed, as numpy draws it."""
    return tuple(np.random.default_rng(seed).uniform(-RESET_SPREAD, RESET_SPREAD,
                                                     size=4).tolist())


class TestReset:
    def test_deterministic_under_fixed_seed(self):
        assert initial_states([42]) == initial_states([42])
        a, b = initial_states([42, 42])
        assert a == b
        assert CartPoleEnv().reset(a) == CartPoleEnv().reset(b) == a

    def test_components_within_spread(self):
        for state in initial_states(range(200)):
            env = CartPoleEnv()
            assert env.reset(state) == state
            assert len(state) == 4
            assert all(abs(v) <= 0.05 for v in state)
            assert env.t == 0
            assert env.state == state and not env.terminated

    def test_golden_seed_zero(self):
        assert initial_states([0])[0] == GOLDEN_RESET_0


class TestInitialStates:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 2 ** 64 - 1),
                              st.integers(2 ** 32 - 8, 2 ** 32 + 8),
                              st.sampled_from(EDGE_SEEDS)),
                    max_size=300))
    @example([])
    @example(list(EDGE_SEEDS))
    # numpy's integers are seeds too
    @example([np.uint64(2 ** 64 - 1), np.int64(2 ** 63 - 1), np.uint32(2 ** 32 - 1), np.int8(3)])
    @example(np.arange(5))
    def test_equals_numpy_per_seed_draw(self, seeds):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = initial_states(seeds)
        assert got == [numpy_start(seed) for seed in seeds]

    @pytest.mark.parametrize("bad", (-1, -2 ** 63, 2 ** 64, 2 ** 70, 1.0, "3"))
    def test_out_of_range_seed_named(self, bad):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            initial_states([0, 2 ** 64 - 1, bad])


class TestTermination:
    def test_position_limit(self):
        assert placed((2.5, 0, 0, 0)).terminated

    def test_angle_limit(self):
        assert placed((0, 0, 0.43, 0)).terminated

    def test_origin_interior(self):
        assert not placed((0, 0, 0, 0)).terminated

    def test_limits_follow_params(self):
        # a state fails only beyond a limit, on either side, placed or stepped into
        for edge in ((0.0, 0.0, THETA_LIMIT, 0.0), (X_LIMIT, 0.0, 0.0, 0.0)):
            for sign in (1.0, -1.0):
                inside = tuple(sign * v for v in edge)
                beyond = tuple(math.nextafter(v, 2 * v) for v in inside)
                for state, fails in ((inside, False), (beyond, True)):
                    assert placed(state).terminated == fails
                    env = placed((0.0, 0.0, 0.0, 0.0))
                    env.integrate = lambda _state, _force, state=state: state
                    assert env.step(1)[2] == fails


class TestStep:
    def test_right_push_tips_pole_left(self):
        next_state, *_ = placed((0, 0, 0, 0)).step(1)
        assert next_state[3] < 0
        assert abs(next_state[1]) > 0

    def test_reward_is_step_reward_when_alive(self):
        _, reward, terminated, truncated = placed((0, 0, 0, 0)).step(0)
        assert reward == 1.0
        assert not terminated and not truncated

    def test_fail_reward_replaces_step_reward(self):
        _, reward, terminated, _ = placed((2.39, 3.0, 0, 0)).step(1)
        assert terminated
        assert reward == -10.0

    def test_terminated_and_truncated_exclusive(self):
        env = placed((2.39, 3.0, 0, 0), t=MAX_STEPS - 1)
        _, _, terminated, truncated = env.step(1)
        assert terminated and not truncated

    def test_stepping_terminal_state_rejected(self):
        with pytest.raises(ValueError, match="terminal"):
            placed((0, 0, 0.5, 0)).step(0)

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="action"):
            placed((0, 0, 0, 0)).step(2)

    def test_golden_trajectory_matches_reference(self):
        """Ten alternating-action steps against the independent oracle."""
        env = placed((0.01, 0.0, 0.02, 0.0))
        oracle = (0.01, 0.0, 0.02, 0.0)
        for i in range(10):
            action = i % 2
            got, *_ = env.step(action)
            oracle = reference_step(oracle, 10.0 if action == 1 else -10.0)
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)

    def test_rest_at_origin_is_fixed_point_of_unforced_dynamics(self):
        env = CartPoleEnv()
        state = (0.0, 0.0, 0.0, 0.0)
        for _ in range(100):
            state = env.integrate(state, 0.0)
        assert state == (0.0, 0.0, 0.0, 0.0)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(7)
        env = CartPoleEnv()
        force = FORCE_MAG
        for _ in range(500):
            state = tuple(rng.uniform(-0.3, 0.3, size=4).tolist())
            mirrored = tuple(-v for v in state)
            for action in (0, 1):
                a = env.integrate(state, force if action == 1 else -force)
                b = env.integrate(mirrored, -force if action == 1 else force)
                np.testing.assert_allclose(a, [-v for v in b], rtol=0, atol=1e-12)


class TestEnvClass:
    def test_reward_accounting_exact(self):
        env = CartPoleEnv()
        for start in initial_states(range(20)):
            env.reset(start)
            total, steps = 0.0, 0
            while True:
                _, reward, terminated, truncated = env.step(steps % 2)
                total += reward
                steps += 1
                if terminated or truncated:
                    break
            if terminated:
                assert total == (steps - 1) * 1.0 + (-10.0)
            else:
                assert total == steps * 1.0

    def test_bit_identical_trajectories(self):
        def rollout(seed):
            env = CartPoleEnv()
            env.reset(initial_states([seed])[0])
            states = []
            for i in range(40):
                state, _, terminated, truncated = env.step(i % 2)
                states.append(state)
                if terminated or truncated:
                    break
            return states

        assert rollout(5) == rollout(5)

    def test_matches_pure_step_from_every_state(self):
        """A step depends only on (state, t): a fresh env placed at every
        state of a rollout steps exactly as the rolling env does."""
        env = CartPoleEnv()
        for state in initial_states(range(10)):
            env.reset(state)
            while True:
                action = int(state[3] > 0)
                fresh = placed(state, t=env.t)
                want = fresh.step(action)
                got = env.step(action)
                assert got == want
                assert env.t == fresh.t
                next_state, _, terminated, truncated = want
                if terminated or truncated:
                    break
                state = next_state

    def test_step_checks(self):
        env = CartPoleEnv()
        with pytest.raises(ValueError, match="reset"):
            env.step(0)
        env.reset(GOLDEN_RESET_0)
        with pytest.raises(ValueError, match="action"):
            env.step(2)
        while not env.step(1)[2]:
            pass
        assert env.terminated
        with pytest.raises(ValueError, match="terminal"):
            env.step(0)

    def test_reset_after_terminal_starts_afresh(self):
        first, second = initial_states([3, 4])
        env = CartPoleEnv()
        env.reset(first)
        while not env.step(1)[2]:
            pass
        assert env.terminated and env.t > 0
        assert env.reset(second) == second
        assert (env.state, env.t, env.terminated) == (second, 0, False)
        assert env.step(0)[0] == placed(second).step(0)[0]


class TestParams:
    # the limits and the step cap are constants; an older config file that
    # still spells one is refused by key unless it gives the constant

    def test_positive_quantities_enforced(self):
        for key in ("theta_limit", "x_limit"):
            for value in ("0.0", "-0.5"):
                with pytest.raises(ConfigError, match=key):
                    config_from_entries({key: value})

    def test_max_steps_floor(self):
        # a reachable convergence reward, so the step cap itself is what fails
        with pytest.raises(ConfigError, match="max_steps must be 250"):
            config_from_entries({"max_steps": "100", "convergence_reward": "50.0"})

    def test_limits_and_rewards_are_constants(self):
        assert (MAX_STEPS, THETA_LIMIT, X_LIMIT, STEP_REWARD, FAIL_REWARD) \
            == (250, 0.2095, 2.4, 1.0, -10.0)
        assert not {"max_steps", "theta_limit", "x_limit", "step_reward",
                    "fail_reward"} & {f.name for f in fields(TrainConfig)}
