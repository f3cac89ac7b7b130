"""Physical constants and the single unit-conversion layer.

Unit regime used throughout the package:

* frequencies and couplings: Hz
* magnetic fields: gauss at API boundaries, tesla internally
* distances: angstrom
* gyromagnetic ratios: Hz/T (signed)

Every unit factor lives here; no other module hard-codes conversions.
"""

import math

# CODATA 2018
MU0 = 1.25663706212e-6          # vacuum permeability, T^2 m^3 / J
H_PLANCK = 6.62607015e-34       # Planck constant, J s (exact)
MU_BOHR = 9.2740100783e-24      # Bohr magneton, J/T

GAUSS_TO_TESLA = 1e-4
ANGSTROM_TO_METER = 1e-10

# Gyromagnetic ratios, Hz/T (signed literature values; spinphys.Physics
# carries the values a run actually uses).
GAMMA_SI29 = -8.465e6
GAMMA_C13 = +10.7084e6

# Default electron Lande factor assumed during the experiments.
G_ELECTRON_DEFAULT = -2.0028


def electron_gamma(g_factor: float = G_ELECTRON_DEFAULT) -> float:
    """Electron gyromagnetic ratio g*mu_B/h in Hz/T (negative for g < 0)."""
    return g_factor * MU_BOHR / H_PLANCK


# Point-dipole prefactor for gammas in Hz/T and distances in angstrom:
# C_zz = DIPOLE_PREFACTOR * gamma_i * gamma_j / r^3 * (3 nz^2 - 1)  [Hz].
# (mu0/4pi) * h, rescaled so r is entered in angstrom.
DIPOLE_PREFACTOR = (MU0 / (4.0 * math.pi)) * H_PLANCK / ANGSTROM_TO_METER**3


def constants_table(gamma_si29: float = GAMMA_SI29, gamma_c13: float = GAMMA_C13) -> dict:
    """Machine-readable constant table (embedded in run manifests), with
    the nuclear gyromagnetic ratios a run used."""
    return {
        "mu0_T2m3_per_J": MU0,
        "h_Js": H_PLANCK,
        "mu_bohr_J_per_T": MU_BOHR,
        "gamma_si29_Hz_per_T": gamma_si29,
        "gamma_c13_Hz_per_T": gamma_c13,
        "g_electron_default": G_ELECTRON_DEFAULT,
        "dipole_prefactor_Hz_A3_per_gamma2": DIPOLE_PREFACTOR,
        "gauss_to_tesla": GAUSS_TO_TESLA,
    }
