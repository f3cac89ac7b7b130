"""Closed-form parameter calculators for dynamically decoupled RF gates.

All public frequencies are in Hz; the single 2-pi conversion to angular
frequency happens inside each formula.  sinc is the unnormalized sin(x)/x.
Angles are wrapped to (-pi, pi].
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InputError

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SequenceParams:
    """Pulse-train parameters: pi pulses every 2*tau, N pulses total."""

    tau: float  # s, half interpulse spacing
    n_pulses: int  # even
    omega_rabi: float  # Hz, bare RF Rabi frequency
    omega_rf: float  # Hz, RF drive frequency
    omega_0: float  # Hz, nuclear frequency in one electron sublevel
    omega_1: float  # Hz, nuclear frequency in the other sublevel

    def __post_init__(self):
        if not self.tau > 0:  # NaN too
            raise InputError("tau must be positive")
        if self.n_pulses < 0 or self.n_pulses % 2 != 0:
            raise InputError("n_pulses must be even and >= 0")
        if not self.omega_rabi > 0:
            raise InputError("omega_rabi must be positive")


def _require_finite(**values):
    """InputError naming the first value that is not a finite number."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value}")


def wrap_angle(x: float) -> float:
    """Reduce an angle to (-pi, pi]; idempotent.  An angle that is not finite
    (finite inputs can overflow a phase) is an InputError."""
    _require_finite(phase=x)
    w = math.fmod(x + math.pi, TWO_PI)
    if w <= 0.0:
        w += TWO_PI
    return w - math.pi


def sinc(x: float) -> float:
    """Unnormalized sinc: sin(x)/x with sinc(0) = 1."""
    _require_finite(phase=x)
    if abs(x) < 1e-12:
        return 1.0
    return math.sin(x) / x


def ddrf_phase_update(omega_0: float, omega_1: float, omega_rf: float, tau: float) -> float:
    """Per-pulse RF phase update pi + (w0 + w1 - 2 w_rf) tau, wrapped."""
    _require_finite(omega_0=omega_0, omega_1=omega_1, omega_rf=omega_rf, tau=tau)
    detune = TWO_PI * (omega_0 + omega_1 - 2.0 * omega_rf) * tau
    return wrap_angle(math.pi + detune)


def ddrf_resonance_condition(
    delta: float, omega_0: float, omega_1: float, omega_rf: float, tau: float
) -> float:
    """Wrapped mismatch between a phase increment and the resonant value;
    zero exactly on resonance."""
    _require_finite(delta=delta, omega_0=omega_0, omega_1=omega_1, omega_rf=omega_rf, tau=tau)
    resonant = TWO_PI * (omega_0 + omega_1 - 2.0 * omega_rf) * tau
    return wrap_angle(delta - resonant)


def effective_rabi(
    omega: float, omega_0: float, omega_1: float, omega_rf: float, tau: float
) -> float:
    """Effective conditional Rabi frequency (Hz) for rectangular pulses:

        Omega [sinc((w1 - w_rf) tau) - sinc((w0 - w_rf) tau)]
    """
    _require_finite(omega=omega, omega_0=omega_0, omega_1=omega_1, omega_rf=omega_rf, tau=tau)
    if tau <= 0:
        raise InputError("tau must be positive")
    x1 = TWO_PI * (omega_1 - omega_rf) * tau
    x0 = TWO_PI * (omega_0 - omega_rf) * tau
    return omega * (sinc(x1) - sinc(x0))


class RotationAngle(NamedTuple):
    theta: float  # rad
    sign_conditional_on_initial_state: bool


def rotation_angle(params: SequenceParams) -> RotationAngle:
    """Total conditional rotation angle theta_N = N Omega_eff tau (rad).

    The realized sign flips with the initial electron state; the flag
    records that the returned magnitude is conditional.
    """
    om_eff = effective_rabi(
        params.omega_rabi, params.omega_0, params.omega_1, params.omega_rf, params.tau
    )
    return RotationAngle(params.n_pulses * TWO_PI * om_eff * params.tau, True)


def amplitude_for_angle(
    theta_target: float,
    n_pulses: int,
    tau: float,
    omega_0: float,
    omega_1: float,
    omega_rf: float,
) -> float:
    """Bare Rabi amplitude (Hz) whose rotation angle equals theta_target."""
    if n_pulses <= 0:
        raise InputError("n_pulses must be positive to solve for an amplitude")
    bracket = effective_rabi(1.0, omega_0, omega_1, omega_rf, tau)
    if bracket == 0.0:
        raise InputError("zero conditional response: omega_0 and omega_1 coincide")
    return theta_target / (n_pulses * TWO_PI * tau * bracket)
