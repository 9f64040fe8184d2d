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

import math
from dataclasses import dataclass

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


def accelerations(state: CartState, force: float, params: EnvParams) -> tuple[float, float]:
    """Cart and pole angular accelerations for a signed applied force."""
    total_mass = params.mass_cart + params.mass_pole
    polemass_length = params.mass_pole * params.pole_half_length
    cos_t = math.cos(state.theta)
    sin_t = math.sin(state.theta)
    temp = (force + polemass_length * state.theta_dot ** 2 * sin_t) / total_mass
    theta_acc = (params.gravity * sin_t - cos_t * temp) / (
        params.pole_half_length * (4.0 / 3.0 - params.mass_pole * cos_t ** 2 / total_mass)
    )
    x_acc = temp - polemass_length * theta_acc * cos_t / total_mass
    return x_acc, theta_acc


def euler_step(state: CartState, force: float, params: EnvParams) -> CartState:
    """One explicit Euler step of the equations of motion (position first)."""
    x_acc, theta_acc = accelerations(state, force, params)
    return CartState(
        x=state.x + params.dt * state.x_dot,
        x_dot=state.x_dot + params.dt * x_acc,
        theta=state.theta + params.dt * state.theta_dot,
        theta_dot=state.theta_dot + params.dt * theta_acc,
        t=state.t + 1,
    )


def step(state: CartState, action: int, params: EnvParams | None = None) -> StepOutcome:
    """Advance one step; action 1 pushes right (+F), action 0 pushes left (-F)."""
    params = params or EnvParams()
    if action not in (0, 1):
        raise ValueError(f"action must be 0 or 1, got {action!r}")
    if is_terminal(state, params):
        raise ValueError("cannot step a terminal state")
    force = params.force_mag if action == 1 else -params.force_mag
    nxt = euler_step(state, force, params)
    terminated = is_terminal(nxt, params)
    truncated = (not terminated) and nxt.t >= params.max_steps
    reward = params.fail_reward if terminated else params.step_reward
    return StepOutcome(next_state=nxt, reward=reward, terminated=terminated, truncated=truncated)


class CartPoleEnv:
    """Stateful wrapper around the pure dynamics, one instance per worker.

    ``reset(seed)`` seeds an internal generator; ``reset()`` with no seed
    continues the same stream, so a single seed fixes the whole sequence
    of initial conditions.
    """

    def __init__(self, params: EnvParams | None = None):
        self.params = params or EnvParams()
        self.state: CartState | None = None
        self._rng: np.random.Generator | None = None

    def reset(self, seed: int | None = None) -> CartState:
        """Sample an initial state with all components uniform in [-0.05, 0.05]."""
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        if self._rng is None:
            raise ValueError("first reset needs a seed")
        vals = self._rng.uniform(-RESET_SPREAD, RESET_SPREAD, size=4)
        self.state = CartState(float(vals[0]), float(vals[1]), float(vals[2]), float(vals[3]), t=0)
        return self.state

    def step(self, action: int) -> StepOutcome:
        if self.state is None:
            raise ValueError("reset the environment before stepping")
        outcome = step(self.state, action, self.params)
        self.state = outcome.next_state
        return outcome

    def is_terminal(self) -> bool:
        return self.state is not None and is_terminal(self.state, self.params)


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
