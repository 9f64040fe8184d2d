"""Self-contained cartpole dynamics with shaped rewards.

A rigid pole pivots on a cart driven left or right by a fixed-magnitude
force. The physics constants and the explicit Euler integration scheme
match the classic CartPole-v1 control benchmark so that trained policies
are comparable with published results. An episode fails (terminates) when
the pole angle or the cart position leaves its limit; it succeeds
(truncates) after ``max_steps`` survived steps. Every surviving step earns
``step_reward``; the failing step earns ``fail_reward`` instead.
"""

from __future__ import annotations

from math import cos, sin

import numpy as np

RESET_SPREAD = 0.05

# CartPole-v1's physics
GRAVITY = 9.8
MASS_CART = 1.0
MASS_POLE = 0.1
POLE_HALF_LENGTH = 0.5
FORCE_MAG = 10.0
DT = 0.02
TOTAL_MASS = MASS_CART + MASS_POLE
POLEMASS_LENGTH = MASS_POLE * POLE_HALF_LENGTH
# unpacked into locals by `integrate`, which runs on every step
_PHYSICS = (GRAVITY, MASS_POLE, POLE_HALF_LENGTH, DT, TOTAL_MASS, POLEMASS_LENGTH)


class CartPoleEnv:
    """The cartpole, stepped on plain floats; one instance per worker.

    The state is a tuple (x, x_dot, theta, theta_dot) plus the step counter
    `t`. ``reset(seed)`` seeds an internal generator; ``reset()`` with no
    seed continues the same stream, so a single seed fixes the whole
    sequence of initial conditions. The episode limits and rewards are read
    from `config`, a `TrainConfig`.
    """

    def __init__(self, config):
        self.config = config
        self.state: tuple[float, float, float, float] | None = None
        self.t = 0
        self.terminated = False
        self._rng: np.random.Generator | None = None

    def place(self, state: tuple[float, float, float, float], t: int) -> None:
        """Put the cart in `state` at step `t`."""
        self.state = state
        self.t = t
        x, _, theta, _ = state
        self.terminated = abs(theta) > self.config.theta_limit or abs(x) > self.config.x_limit

    def reset(self, seed: int | None = None) -> tuple[float, float, float, float]:
        """Sample an initial state with all components uniform in [-0.05, 0.05]."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if self._rng is None:
            raise ValueError("first reset needs a seed")
        self.place(tuple(self._rng.uniform(-RESET_SPREAD, RESET_SPREAD, size=4).tolist()), 0)
        return self.state

    def integrate(self, state: tuple[float, float, float, float],
                  force: float) -> tuple[float, float, float, float]:
        """The equations of motion under a signed force, one Euler step."""
        x, x_dot, theta, theta_dot = state
        gravity, mass_pole, half_length, dt, total_mass, polemass_length = _PHYSICS
        cos_t = cos(theta)
        sin_t = sin(theta)
        temp = (force + polemass_length * theta_dot ** 2 * sin_t) / total_mass
        theta_acc = (gravity * sin_t - cos_t * temp) / (
            half_length * (4.0 / 3.0 - mass_pole * cos_t ** 2 / total_mass)
        )
        x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
        return (x + dt * x_dot, x_dot + dt * x_acc,
                theta + dt * theta_dot, theta_dot + dt * theta_acc)

    def step(self, action: int) -> tuple[tuple[float, float, float, float], float, bool, bool]:
        """Advance one step; action 1 pushes right (+F), action 0 pushes left (-F).

        Returns (next state, reward, terminated, truncated).
        """
        if self.state is None:
            raise ValueError("reset the environment before stepping")
        config = self.config
        if action == 1:
            force = FORCE_MAG
        elif action == 0:
            force = -FORCE_MAG
        else:
            raise ValueError(f"action must be 0 or 1, got {action!r}")
        if self.terminated:
            raise ValueError("cannot step a terminal state")
        self.state = nxt = self.integrate(self.state, force)
        self.t += 1
        x, _, theta, _ = nxt
        self.terminated = terminated = abs(theta) > config.theta_limit or abs(x) > config.x_limit
        if terminated:
            return nxt, config.fail_reward, True, False
        return nxt, config.step_reward, False, self.t >= config.max_steps

