"""Self-contained cartpole dynamics with shaped rewards.

A rigid pole pivots on a cart driven left or right by a fixed-magnitude
force. The physics constants and the explicit Euler integration scheme
match the classic CartPole-v1 control benchmark so that trained policies
are comparable with published results. An episode fails (terminates) when
the pole angle or the cart position leaves its limit; it succeeds
(truncates) after ``MAX_STEPS`` survived steps. Every surviving step earns
``STEP_REWARD``; the failing step earns ``FAIL_REWARD`` instead.

Episodes start from the states `streams.initial_states` draws; the env
holds no random stream of its own, and neither does this module.
"""

from __future__ import annotations

from math import cos, sin

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

# the task: CartPole-v1's failure limits (the pole fails at 0.2095 rad even
# though its observation range extends to 0.418), a 250-step cap and the
# shaped rewards
THETA_LIMIT = 0.2095
X_LIMIT = 2.4
MAX_STEPS = 250
STEP_REWARD = 1.0
FAIL_REWARD = -10.0


class CartPoleEnv:
    """The cartpole, stepped on plain floats; one instance per worker.

    The state is a tuple (x, x_dot, theta, theta_dot) plus the step counter
    `t`. ``reset(start)`` begins an episode from `start`, one of the states
    `streams.initial_states` draws.
    """

    def __init__(self):
        self.state: tuple[float, float, float, float] | None = None
        self.t = 0
        self.terminated = False

    def place(self, state: tuple[float, float, float, float], t: int) -> None:
        """Put the cart in `state` at step `t`."""
        self.state = state
        self.t = t
        x, _, theta, _ = state
        self.terminated = abs(theta) > THETA_LIMIT or abs(x) > X_LIMIT

    def reset(self, start: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
        """Begin an episode from `start` at step 0."""
        self.place(start, 0)
        return start

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
        self.terminated = terminated = abs(theta) > THETA_LIMIT or abs(x) > X_LIMIT
        if terminated:
            return nxt, FAIL_REWARD, True, False
        return nxt, STEP_REWARD, False, self.t >= MAX_STEPS

