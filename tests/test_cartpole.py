"""Environment tests: dynamics against an independent transcription of the
reference cartpole equations, termination rules, reward accounting."""

import numpy as np
import pytest

from bmu_lab.cartpole import (
    CartPoleEnv,
    CartState,
    EnvParams,
    euler_step,
    is_terminal,
    step,
    trajectory_csv,
)

# frozen after the first run; regression-guards the seeded sampler
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


class TestReset:
    def test_deterministic_under_fixed_seed(self):
        a, b = CartPoleEnv().reset(42), CartPoleEnv().reset(42)
        assert a == b

    def test_components_within_spread(self):
        for seed in range(200):
            state = CartPoleEnv().reset(seed)
            assert all(abs(v) <= 0.05 for v in state.components())
            assert state.t == 0

    def test_golden_seed_zero(self):
        state = CartPoleEnv().reset(0)
        assert state.components() == GOLDEN_RESET_0


class TestTermination:
    def test_position_limit(self):
        assert is_terminal(CartState(2.5, 0, 0, 0))

    def test_angle_limit(self):
        assert is_terminal(CartState(0, 0, 0.43, 0))

    def test_origin_interior(self):
        assert not is_terminal(CartState(0, 0, 0, 0))

    def test_limits_follow_params(self):
        tight = EnvParams(theta_limit=0.2095)
        assert is_terminal(CartState(0, 0, 0.3, 0), tight)
        assert not is_terminal(CartState(0, 0, 0.3, 0), EnvParams())


class TestStep:
    def test_right_push_tips_pole_left(self):
        out = step(CartState(0, 0, 0, 0), action=1)
        assert out.next_state.theta_dot < 0
        assert abs(out.next_state.x_dot) > 0

    def test_reward_is_step_reward_when_alive(self):
        out = step(CartState(0, 0, 0, 0), action=0)
        assert out.reward == 1.0
        assert not out.terminated and not out.truncated

    def test_fail_reward_replaces_step_reward(self):
        out = step(CartState(2.39, 3.0, 0, 0), action=1)
        assert out.terminated
        assert out.reward == -10.0

    def test_terminated_and_truncated_exclusive(self):
        params = EnvParams()
        state = CartState(2.39, 3.0, 0, 0, t=params.max_steps - 1)
        out = step(state, 1, params)
        assert out.terminated and not out.truncated

    def test_stepping_terminal_state_rejected(self):
        with pytest.raises(ValueError, match="terminal"):
            step(CartState(0, 0, 0.5, 0), 0)

    def test_bad_action_rejected(self):
        with pytest.raises(ValueError, match="action"):
            step(CartState(0, 0, 0, 0), 2)

    def test_golden_trajectory_matches_reference(self):
        """Ten alternating-action steps against the independent oracle."""
        params = EnvParams()
        state = CartState(0.01, 0.0, 0.02, 0.0)
        oracle = (0.01, 0.0, 0.02, 0.0)
        for i in range(10):
            action = i % 2
            out = step(state, action, params)
            oracle = reference_step(oracle, 10.0 if action == 1 else -10.0)
            got = out.next_state.components()
            np.testing.assert_allclose(got, oracle, rtol=0, atol=1e-10)
            state = out.next_state

    def test_rest_at_origin_is_fixed_point_of_unforced_dynamics(self):
        params = EnvParams()
        state = CartState(0, 0, 0, 0)
        for _ in range(100):
            state = euler_step(state, 0.0, params)
        assert state.components() == (0.0, 0.0, 0.0, 0.0)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(7)
        params = EnvParams()
        for _ in range(500):
            state = CartState(*rng.uniform(-0.3, 0.3, size=4))
            mirrored = CartState(-state.x, -state.x_dot, -state.theta, -state.theta_dot)
            for action in (0, 1):
                a = step(state, action, params).next_state
                b = step(mirrored, 1 - action, params).next_state
                np.testing.assert_allclose(
                    a.components(), [-v for v in b.components()], rtol=0, atol=1e-12
                )


class TestEnvClass:
    def test_reward_accounting_exact(self):
        env = CartPoleEnv()
        for seed in range(20):
            env.reset(seed)
            total, steps = 0.0, 0
            while True:
                out = env.step(steps % 2)
                total += out.reward
                steps += 1
                if out.terminated or out.truncated:
                    break
            if out.terminated:
                assert total == (steps - 1) * 1.0 + (-10.0)
            else:
                assert total == steps * 1.0

    def test_bit_identical_trajectories(self):
        def rollout(seed):
            env = CartPoleEnv()
            env.reset(seed)
            states = []
            for i in range(40):
                out = env.step(i % 2)
                states.append(out.next_state.components())
                if out.terminated or out.truncated:
                    break
            return states

        assert rollout(5) == rollout(5)

    def test_unseeded_first_reset_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CartPoleEnv().reset()

    def test_reset_continues_stream_without_seed(self):
        env = CartPoleEnv()
        first = env.reset(3)
        second = env.reset()
        assert first != second
        env2 = CartPoleEnv()
        env2.reset(3)
        assert env2.reset() == second


class TestParams:
    def test_positive_quantities_enforced(self):
        with pytest.raises(ValueError, match="force_mag"):
            EnvParams(force_mag=0.0)
        with pytest.raises(ValueError, match="dt"):
            EnvParams(dt=-0.01)

    def test_max_steps_floor(self):
        with pytest.raises(ValueError, match="max_steps"):
            EnvParams(max_steps=100)


def test_trajectory_csv_layout():
    state = CartState(0.1, 0.2, 0.03, 0.04, t=0)
    text = trajectory_csv([(state, 1, 1.0, False)])
    lines = text.strip().split("\n")
    assert lines[0] == "t,x,x_dot,theta,theta_dot,action,reward,terminated"
    assert lines[1] == "0,0.1,0.2,0.03,0.04,1,1.0,false"
