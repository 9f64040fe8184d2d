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

from dataclasses import dataclass
from math import cos, sin

import numpy as np

RESET_SPREAD = 0.05


@dataclass(frozen=True)
class CartState:
    """Cart position/velocity, pole angle/angular velocity, step counter."""

    x: float
    x_dot: float
    theta: float
    theta_dot: float
    t: int = 0

    def components(self) -> tuple[float, float, float, float]:
        return (self.x, self.x_dot, self.theta, self.theta_dot)


@dataclass(frozen=True)
class EnvParams:
    gravity: float = 9.8
    mass_cart: float = 1.0
    mass_pole: float = 0.1
    pole_half_length: float = 0.5
    force_mag: float = 10.0
    dt: float = 0.02
    max_steps: int = 250
    theta_limit: float = 0.418
    x_limit: float = 2.4
    fail_reward: float = -10.0
    step_reward: float = 1.0

    def __post_init__(self) -> None:
        for name in ("gravity", "mass_cart", "mass_pole", "pole_half_length",
                     "force_mag", "dt", "theta_limit", "x_limit"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive, got {getattr(self, name)}")
        if self.max_steps < 200:
            raise ValueError(f"max_steps must be >= 200, got {self.max_steps}")


@dataclass(frozen=True)
class StepOutcome:
    next_state: CartState
    reward: float
    terminated: bool
    truncated: bool


def is_terminal(state: CartState, params: EnvParams | None = None) -> bool:
    params = params or EnvParams()
    return abs(state.theta) > params.theta_limit or abs(state.x) > params.x_limit


def euler_step(state: CartState, force: float, params: EnvParams) -> CartState:
    """One explicit Euler step of the equations of motion (position first)."""
    nxt = CartPoleEnv(params).integrate(state.components(), force)
    return CartState(*nxt, t=state.t + 1)


def step(state: CartState, action: int, params: EnvParams | None = None) -> StepOutcome:
    """One `CartPoleEnv.step` from `state`; action 1 pushes right (+F), action 0
    pushes left (-F)."""
    env = CartPoleEnv(params)
    env.place(state.components(), state.t)
    nxt, reward, terminated, truncated = env.step(action)
    return StepOutcome(CartState(*nxt, t=env.t), reward, terminated, truncated)


class CartPoleEnv:
    """The cartpole, stepped on plain floats; one instance per worker.

    The state is a tuple (x, x_dot, theta, theta_dot) plus the step counter
    `t`. ``reset(seed)`` seeds an internal generator; ``reset()`` with no
    seed continues the same stream, so a single seed fixes the whole
    sequence of initial conditions.
    """

    def __init__(self, params: EnvParams | None = None):
        self.params = p = params or EnvParams()
        total_mass = p.mass_cart + p.mass_pole
        self._constants = (p.gravity, p.mass_pole, p.pole_half_length, p.dt,
                           total_mass, p.mass_pole * p.pole_half_length)
        self.state: tuple[float, float, float, float] | None = None
        self.t = 0
        self.terminated = False
        self._rng: np.random.Generator | None = None

    def place(self, state: tuple[float, float, float, float], t: int) -> None:
        """Put the cart in `state` at step `t`."""
        self.state = state
        self.t = t
        x, _, theta, _ = state
        self.terminated = abs(theta) > self.params.theta_limit or abs(x) > self.params.x_limit

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
        gravity, mass_pole, half_length, dt, total_mass, polemass_length = self._constants
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
        params = self.params
        if action == 1:
            force = params.force_mag
        elif action == 0:
            force = -params.force_mag
        else:
            raise ValueError(f"action must be 0 or 1, got {action!r}")
        if self.terminated:
            raise ValueError("cannot step a terminal state")
        self.state = nxt = self.integrate(self.state, force)
        self.t += 1
        x, _, theta, _ = nxt
        self.terminated = terminated = abs(theta) > params.theta_limit or abs(x) > params.x_limit
        if terminated:
            return nxt, params.fail_reward, True, False
        return nxt, params.step_reward, False, self.t >= params.max_steps

    def is_terminal(self) -> bool:
        return self.terminated


TRAJECTORY_HEADER = "t,x,x_dot,theta,theta_dot,action,reward,terminated"


def trajectory_csv(rows: list[tuple[CartState, int, float, bool]]) -> str:
    """Render (pre-step state, action, reward, terminated) rows as CSV."""
    lines = [TRAJECTORY_HEADER]
    for state, action, reward, terminated in rows:
        lines.append(
            f"{state.t},{state.x!r},{state.x_dot!r},{state.theta!r},"
            f"{state.theta_dot!r},{action},{reward!r},{str(terminated).lower()}"
        )
    return "\n".join(lines) + "\n"
