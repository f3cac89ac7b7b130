"""Spin species, dipolar couplings, and hyperfine frequency algebra.

Dipolar couplings follow the point-dipole secular form

    C_zz = pref * gamma_i * gamma_j / r^3 * (3 (dz/r)^2 - 1)   [Hz]

with gammas in Hz/T, r in angstrom and pref = (mu0/4pi) h / A^3 (see
constants).  SEDOR oscillates at |C_zz|/2.  Nuclear transition frequencies
in an electron manifold m_s follow

    f = sqrt((gamma_n B + m_s A_zz)^2 + (m_s A_perp)^2).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import constants
from .errors import InputError, InversionError, SingularityError


@dataclass(frozen=True)
class SpinSpecies:
    """A spin-1/2 nuclear species (the oracle builds every nucleus as spin 1/2)."""

    name: str
    gyromagnetic_ratio: float  # Hz/T, signed

    def __post_init__(self):
        if not (math.isfinite(self.gyromagnetic_ratio) and self.gyromagnetic_ratio != 0.0):
            raise InputError(
                f"{self.name} gyromagnetic ratio must be finite and nonzero, "
                f"got {self.gyromagnetic_ratio}"
            )


SI29 = SpinSpecies("Si29", constants.GAMMA_SI29)
C13 = SpinSpecies("C13", constants.GAMMA_C13)


@dataclass(frozen=True)
class Physics:
    """The two nuclear species whose gyromagnetic ratios fix every dipolar
    coupling.  Passed as a value to whatever turns positions into
    couplings, and recorded in run manifests."""

    si29: SpinSpecies = SI29
    c13: SpinSpecies = C13

    @classmethod
    def from_gammas(cls, gamma_si29=None, gamma_c13=None):
        """The default species with either gyromagnetic ratio (Hz/T) replaced."""
        return cls(
            SI29 if gamma_si29 is None else SpinSpecies("Si29", float(gamma_si29)),
            C13 if gamma_c13 is None else SpinSpecies("C13", float(gamma_c13)),
        )

    def constants_table(self) -> dict:
        return constants.constants_table(
            self.si29.gyromagnetic_ratio, self.c13.gyromagnetic_ratio
        )


DEFAULT_PHYSICS = Physics()


def species_for_label(label: str, physics: Physics = DEFAULT_PHYSICS) -> SpinSpecies:
    """Map a spin label like 'Si12' or 'C1' to its nuclear species."""
    if label.startswith("Si"):
        return physics.si29
    if label.startswith("C"):
        return physics.c13
    raise InputError(f"cannot infer species from label {label!r}")


@dataclass(frozen=True)
class HyperfineTensor:
    """Measured row of the hyperfine tensor: (A_zz, A_zx, A_zy) in Hz."""

    a_zz: float
    a_zx: float = 0.0
    a_zy: float = 0.0

    @property
    def a_perp(self) -> float:
        return math.hypot(self.a_zx, self.a_zy)

    @classmethod
    def from_perp(cls, a_zz: float, a_perp: float, phi: float = 0.0):
        """Build from magnitude and in-plane angle: A_zx = cos(phi) A_perp."""
        if a_perp < 0:
            raise InputError("a_perp must be >= 0")
        return cls(a_zz, a_perp * math.cos(phi), a_perp * math.sin(phi))


@dataclass(frozen=True)
class FieldConfig:
    """Static magnetic field (gauss) and electron Lande factor."""

    b_z: float
    b_x: float = 0.0
    b_y: float = 0.0
    g_electron: float = constants.G_ELECTRON_DEFAULT

    def __post_init__(self):
        if self.b_z <= 0:
            raise InputError(f"b_z must be positive, got {self.b_z}")

    @property
    def b_vec_tesla(self) -> np.ndarray:
        return np.array([self.b_x, self.b_y, self.b_z]) * constants.GAUSS_TO_TESLA

    @property
    def b_z_tesla(self) -> float:
        return self.b_z * constants.GAUSS_TO_TESLA

    @property
    def electron_gamma(self) -> float:
        return constants.electron_gamma(self.g_electron)


def dipolar_alpha(species_i: SpinSpecies, species_j: SpinSpecies) -> float:
    """Dipolar prefactor alpha_ij in Hz*A^3 (signed)."""
    return (
        constants.DIPOLE_PREFACTOR
        * species_i.gyromagnetic_ratio
        * species_j.gyromagnetic_ratio
    )


def _separation(pos_i, pos_j):
    d = np.asarray(pos_j, dtype=float) - np.asarray(pos_i, dtype=float)
    r = float(np.linalg.norm(d))
    if r < 1e-9:
        raise InputError("coincident spin positions")
    return d, r


def dipolar_coupling(pos_i, pos_j, species_i: SpinSpecies, species_j: SpinSpecies) -> float:
    """Secular dipolar coupling C_zz in Hz between spins at pos_i, pos_j (A)."""
    d, r = _separation(pos_i, pos_j)
    return dipolar_alpha(species_i, species_j) / r**3 * (3.0 * (d[2] / r) ** 2 - 1.0)


def dipolar_tensor(pos_i, pos_j, species_i: SpinSpecies, species_j: SpinSpecies) -> np.ndarray:
    """Full 3x3 point-dipole coupling tensor in Hz: alpha/r^3 (3 n n^T - 1)."""
    d, r = _separation(pos_i, pos_j)
    n = d / r
    return dipolar_alpha(species_i, species_j) / r**3 * (3.0 * np.outer(n, n) - np.eye(3))


def nuclear_transition_frequency(
    field: FieldConfig, species: SpinSpecies, hf: HyperfineTensor, m_s: float
) -> float:
    """Exact positive-root nuclear frequency in the given electron manifold."""
    x = species.gyromagnetic_ratio * field.b_z_tesla + m_s * hf.a_zz
    return math.hypot(x, m_s * hf.a_perp)


def invert_hyperfine(
    f_plus: float,
    f_minus: float,
    field: FieldConfig,
    species: SpinSpecies,
    subspaces=(1.5, -1.5),
    clamp_negative: bool = False,
):
    """Solve the two-manifold frequency pair for (A_zz, A_perp).

    Writing u = A_zz and v = A_zz^2 + A_perp^2, the squared frequencies are
    linear in (u, v); the pair is solved exactly and A_perp recovered as
    sqrt(v - u^2).  Raises InversionError when no real A_perp exists, or
    returns A_perp = 0 when clamp_negative is set (used by field scans that
    probe past the feasible boundary).
    """
    m1, m2 = subspaces
    if m1 == m2:
        raise InputError("subspaces must be distinct")
    if m1 == 0 or m2 == 0:
        raise InputError("subspaces must be nonzero electron projections")
    if f_plus < 0 or f_minus < 0:
        raise InputError("frequencies must be non-negative")
    g = species.gyromagnetic_ratio * field.b_z_tesla
    # f^2 - g^2 = 2 m g u + m^2 v for each manifold
    mat = np.array([[2 * m1 * g, m1 * m1], [2 * m2 * g, m2 * m2]])
    rhs = np.array([f_plus**2 - g * g, f_minus**2 - g * g])
    u, v = np.linalg.solve(mat, rhs)
    disc = v - u * u
    scale = max(v, u * u, 1.0)
    if disc < -1e-12 * scale and not clamp_negative:
        raise InversionError(
            f"no real A_perp for frequency pair ({f_plus}, {f_minus})",
            residual=math.sqrt(-disc),
        )
    return HyperfineTensor(float(u), math.sqrt(max(disc, 0.0)), 0.0)


def nuclear_frequency_perturbative(
    field: FieldConfig, species: SpinSpecies, hf: HyperfineTensor, m_s: float, order: int
) -> float:
    """Perturbative expansion of the nuclear frequency in A_perp.

    Order 0 is the magnitude of the linear form gamma_n B + m_s A_zz; the
    first-order term vanishes; order 2 adds m_s^2 A_perp^2 / (2 |linear|).
    """
    if order not in (0, 2):
        raise InputError(f"order must be 0 or 2, got {order}")
    x = species.gyromagnetic_ratio * field.b_z_tesla + m_s * hf.a_zz
    if order == 0:
        return abs(x)
    if x == 0.0:
        raise SingularityError("vanishing denominator gamma_n B + m_s A_zz at order 2")
    return abs(x) + (m_s * hf.a_perp) ** 2 / (2.0 * abs(x))


def transverse_field_from_misalignment(b: float, angle_rot: float, angle_tilt: float) -> float:
    """Transverse field (G) from rotational and tilt misalignment angles (deg)."""
    if b <= 0:
        raise InputError("field must be positive")
    br = b * math.sin(math.radians(angle_rot))
    bt = b * math.sin(math.radians(angle_tilt))
    return math.hypot(br, bt)
