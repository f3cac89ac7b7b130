"""Electron(3/2) + two-nucleus Hamiltonian: exact diagonalization oracle
and closed-form second-order corrections to the SEDOR frequency.

The 16-dimensional Hamiltonian contains the zero-field splitting D Sz^2,
full electron and nuclear Zeeman terms, the measured hyperfine row
completed symmetrically (A_xz = A_zx, A_yz = A_zy; unknown xx/xy/yy block
zero), and the full 3x3 internuclear tensor.  At zeroth order the SEDOR
frequency equals |C_zz|/2; the exact spectrum quantifies every deviation
from that and is used to derive per-pair placement tolerances.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputError, LabelingError, SingularityError
from .spinphys import FieldConfig, HyperfineTensor, dipolar_tensor

_E_INDEX = {1.5: 0, 0.5: 1, -0.5: 2, -1.5: 3}
_N_INDEX = {0.5: 0, -0.5: 1}

# Least squared overlap |<basis|eigenstate>|^2 for an eigenstate to carry a
# secular label: above 0.5 no two labels can claim one eigenstate.  Near a level
# crossing the overlap drops below it and labelling raises LabelingError.
OVERLAP_THRESHOLD = 0.6


def spin_matrices(s: float):
    """(Sx, Sy, Sz) for spin s in the descending-m basis."""
    dim = int(round(2 * s + 1))
    m = s - np.arange(dim)
    sz = np.diag(m).astype(complex)
    ladder = np.sqrt(s * (s + 1) - m[1:] * (m[1:] + 1))
    sp = np.zeros((dim, dim), dtype=complex)
    sp[np.arange(dim - 1), np.arange(1, dim)] = ladder
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


@dataclass(frozen=True)
class EigenstateLabel:
    m_s: float
    m_i1: float
    m_i2: float

    def __post_init__(self):
        if self.m_s not in _E_INDEX or self.m_i1 not in _N_INDEX or self.m_i2 not in _N_INDEX:
            raise InputError(f"invalid label ({self.m_s}, {self.m_i1}, {self.m_i2})")

    @property
    def basis_index(self) -> int:
        return _E_INDEX[self.m_s] * 4 + _N_INDEX[self.m_i1] * 2 + _N_INDEX[self.m_i2]


def all_labels():
    return [
        EigenstateLabel(ms, m1, m2)
        for ms in (1.5, 0.5, -0.5, -1.5)
        for m1 in (0.5, -0.5)
        for m2 in (0.5, -0.5)
    ]


@dataclass(frozen=True)
class SpinSystemSpec:
    """Full description of the electron + two-nucleus system.

    d: zero-field splitting (Hz, as D Sz^2); pair_tensor: 3x3 internuclear
    coupling in Hz.
    """

    d: float
    field: FieldConfig
    nuclei: tuple  # ((SpinSpecies, HyperfineTensor), (SpinSpecies, HyperfineTensor))
    pair_tensor: np.ndarray

    def __post_init__(self):
        if len(self.nuclei) != 2:
            raise InputError("exactly two nuclei are supported")
        t = np.asarray(self.pair_tensor, dtype=float)
        if t.shape != (3, 3) or not np.isfinite(t).all():
            raise InputError("pair_tensor must be a finite 3x3 array")
        object.__setattr__(self, "pair_tensor", t)

    @classmethod
    def from_geometry(cls, d, field, nucleus1, nucleus2):
        """nucleus: (SpinSpecies, HyperfineTensor, position (A))."""
        sp1, hf1, p1 = nucleus1
        sp2, hf2, p2 = nucleus2
        return cls(d, field, ((sp1, hf1), (sp2, hf2)), dipolar_tensor(p1, p2, sp1, sp2))

    @property
    def c_zz(self) -> float:
        return float(self.pair_tensor[2, 2])


def _operators():
    """The 16x16 spin operators build_hamiltonian scales and sums.

    Returns (Sz^2, electron (Sx, Sy, Sz), per-nucleus (Ix, Iy, Iz), per-nucleus
    hyperfine combinations (Sz Iz, Sz Ix + Sx Iz, Sz Iy + Sy Iz), internuclear
    products pair[a][b] = I1_a I2_b).
    """
    sx, sy, sz = spin_matrices(1.5)
    ix, iy, iz = spin_matrices(0.5)
    one_e = np.eye(4, dtype=complex)
    one_n = np.eye(2, dtype=complex)

    def kron3(a, b, c):
        return np.kron(a, np.kron(b, c))

    ex, ey, ez = kron3(sx, one_n, one_n), kron3(sy, one_n, one_n), kron3(sz, one_n, one_n)
    nuc = (
        (kron3(one_e, ix, one_n), kron3(one_e, iy, one_n), kron3(one_e, iz, one_n)),
        (kron3(one_e, one_n, ix), kron3(one_e, one_n, iy), kron3(one_e, one_n, iz)),
    )
    hyperfine = tuple((ez @ jz, ez @ jx + ex @ jz, ez @ jy + ey @ jz) for jx, jy, jz in nuc)
    pair = tuple(tuple(a @ b for b in nuc[1]) for a in nuc[0])
    return kron3(sz @ sz, one_n, one_n), (ex, ey, ez), nuc, hyperfine, pair


_SZ2, _E_OPS, _NUC_OPS, _HF_OPS, _PAIR_OPS = _operators()


def _hamiltonians(d, field, nuclei, pair_tensor):
    """Dense Hamiltonian(s) in Hz: (16, 16), or (B, 16, 16) when a
    transverse hyperfine entry is a (B, 1, 1) array.

    nuclei: per nucleus (species, a_zz, a_zx, a_zy); a_zx and a_zy may be
    scalars or (B, 1, 1) arrays, one value per stacked Hamiltonian.
    """
    # Each entry of a cached operator product is one product of two matrix
    # entries, one of them a spin-1/2 entry (+-1/2 or +-i/2), so scaling the
    # product gives the same bits as multiplying a scaled operator.  Keep the
    # order of the additions: summing the terms in another order changes the
    # rounding of the spectrum.  The A_zx and A_zy terms are added out of
    # place, so a stacked one broadcasts h to (B, 16, 16) with the same
    # elementwise sums.
    bx, by, bz = field.b_vec_tesla
    ge = field.electron_gamma
    ex, ey, ez = _E_OPS
    h = d * _SZ2
    h += ge * (bx * ex + by * ey + bz * ez)
    for (species, a_zz, a_zx, a_zy), (jx, jy, jz), (hzz, hzx, hzy) in zip(nuclei, _NUC_OPS, _HF_OPS):
        gn = species.gyromagnetic_ratio
        h += gn * (bx * jx + by * jy + bz * jz)
        # measured z-row plus its symmetric transpose
        h += a_zz * hzz
        h = h + a_zx * hzx
        h = h + a_zy * hzy
    for a in range(3):
        for b in range(3):
            cab = pair_tensor[a, b]
            if cab != 0.0:
                h += cab * _PAIR_OPS[a][b]
    return h


def build_hamiltonian(spec: SpinSystemSpec) -> np.ndarray:
    """Dense 16x16 Hamiltonian in Hz (Hermitian)."""
    nuclei = [(sp, hf.a_zz, hf.a_zx, hf.a_zy) for sp, hf in spec.nuclei]
    return _hamiltonians(spec.d, spec.field, nuclei, spec.pair_tensor)


def eigenenergy_zeroth(spec: SpinSystemSpec, label: EigenstateLabel) -> float:
    """Closed-form secular eigenenergy of |m_s, m_I1, m_I2> in Hz."""
    bz = spec.field.b_z_tesla
    ge = spec.field.electron_gamma
    (sp1, hf1), (sp2, hf2) = spec.nuclei
    ms, m1, m2 = label.m_s, label.m_i1, label.m_i2
    return (
        ms * ms * spec.d
        + ge * bz * ms
        + sp1.gyromagnetic_ratio * bz * m1
        + sp2.gyromagnetic_ratio * bz * m2
        + ms * m1 * hf1.a_zz
        + ms * m2 * hf2.a_zz
        + m1 * m2 * spec.c_zz
    )


def _label(hs, overlap_threshold):
    """Diagonalize a (B, 16, 16) stack in one call and match each point's
    eigenstates to secular basis labels.

    Returns the energies by basis index, shape (B, 16).  The first point
    that fails a check raises.
    """
    if not np.isfinite(hs).all():
        raise InputError("the Hamiltonian has non-finite entries")
    evals, evecs = np.linalg.eigh(hs)
    overlap = np.abs(evecs) ** 2  # overlap[point, basis, eig]
    assignment = np.argmax(overlap, axis=2)
    best = overlap.max(axis=2)  # the entries argmax picked
    for row_assignment, row_best in zip(assignment, best):
        if len(set(row_assignment.tolist())) != 16:
            raise LabelingError("eigenstate-to-label assignment is not one-to-one")
        if row_best.min() < overlap_threshold:
            idx = int(np.argmin(row_best))
            raise LabelingError(
                f"basis state {idx} has max overlap {row_best.min():.3f} < {overlap_threshold}"
            )
    return np.real(evals[np.arange(len(evals))[:, None], assignment])


def label_eigenstates(spec: SpinSystemSpec):
    """Diagonalize and match eigenstates to secular basis labels.

    Returns the 16 energies by basis index.  Fails loudly when the best
    overlap drops below OVERLAP_THRESHOLD or the match is not one-to-one
    (near level crossings).
    """
    return _label(build_hamiltonian(spec)[None], OVERLAP_THRESHOLD)[0]


def _sedor_lambda(m_s: float, energies) -> float:
    if m_s not in _E_INDEX:
        raise InputError(f"invalid electron projection m_s={m_s}")
    # basis index 4*e + 2*n1 + n2, with n = 0 for m_I = +1/2 and 1 for -1/2
    k = 4 * _E_INDEX[m_s]
    return energies[k] + energies[k + 3] - energies[k + 2] - energies[k + 1]


def sedor_frequency_exact(spec: SpinSystemSpec, m_s: float) -> float:
    """SEDOR frequency from exact eigenenergies in manifold m_s, Hz."""
    energies = label_eigenstates(spec)
    return 0.5 * abs(_sedor_lambda(m_s, energies))


def subspace_averaged_sedor(spec: SpinSystemSpec) -> float:
    """Mean exact SEDOR frequency over the m_s = +-3/2 manifolds."""
    energies = label_eigenstates(spec)
    return 0.5 * (
        0.5 * abs(_sedor_lambda(1.5, energies))
        + 0.5 * abs(_sedor_lambda(-1.5, energies))
    )


@dataclass(frozen=True)
class SecondOrderCorrection:
    """Additive corrections (Hz) to the signed combination 2 f_SEDOR.

    Components follow the standard expansion in the transverse couplings:
    delta1 is the electron-mediated term, delta2_* come from hyperfine x
    internuclear cross terms, delta3_* from transverse-field x internuclear
    cross terms.  delta2_0 and delta3_1 carry the m_s prefactor and are odd
    under m_s -> -m_s.  `total` resums the nuclear-flip denominators
    exactly (valid even when |m_s A_zz| is comparable to the nuclear
    Zeeman splitting).
    """

    delta1: float
    delta2_0: float
    delta2_1: float
    delta3_0: float
    delta3_1: float
    total: float


def sedor_correction_second_order(spec: SpinSystemSpec, m_s: float) -> SecondOrderCorrection:
    """Closed-form second-order SEDOR corrections for m_s = +-3/2."""
    if m_s not in (1.5, -1.5):
        raise InputError("second-order corrections are derived for m_s = +-3/2")
    bx_t, by_t, bz_t = spec.field.b_vec_tesla
    ge = spec.field.electron_gamma
    (sp1, hf1), (sp2, hf2) = spec.nuclei
    t = spec.pair_tensor
    czz = t[2, 2]
    # coupling-tensor entries seen by each flipping nucleus:
    # nucleus 1 flips against the z-column, nucleus 2 against the z-row
    c_vec = [np.array([t[0, 2], t[1, 2]]), np.array([t[2, 0], t[2, 1]])]
    a_vec = [np.array([hf1.a_zx, hf1.a_zy]), np.array([hf2.a_zx, hf2.a_zy])]
    a_zz = [hf1.a_zz, hf2.a_zz]
    gammas = [sp1.gyromagnetic_ratio, sp2.gyromagnetic_ratio]
    b_perp = np.array([bx_t, by_t])

    den_e = m_s * ge * bz_t + 3.0 * spec.d
    if abs(den_e) < 1.0:
        raise SingularityError("electron denominator m_s*gamma_e*B_z + 3D vanishes (delta1)")
    delta1 = 2.25 * float(a_vec[0] @ a_vec[1]) / den_e

    delta2_0 = delta2_1 = delta3_0 = delta3_1 = 0.0
    total_nuclear = 0.0
    for j in range(2):
        gb = gammas[j] * bz_t
        if abs(gb) < 1.0:
            raise SingularityError(f"nuclear Zeeman denominator vanishes for nucleus {j + 1}")
        ac = float(a_vec[j] @ c_vec[j])
        bc = float(b_perp @ c_vec[j])
        delta2_0 += m_s * ac / gb
        delta2_1 += -(m_s * m_s) * a_zz[j] * ac / gb**2
        delta3_0 += bc / bz_t
        delta3_1 += -m_s * a_zz[j] * bc / (gammas[j] * bz_t**2)
        # resummed nuclear-flip contribution with exact denominators
        for sign, m_other in ((1.0, 0.5), (-1.0, -0.5)):
            den = gb + m_s * a_zz[j] + m_other * czz
            if abs(den) < 1.0:
                raise SingularityError(
                    f"nuclear-flip denominator vanishes for nucleus {j + 1} (m'={m_other})"
                )
            w = m_s * a_vec[j] + m_other * c_vec[j] + gammas[j] * b_perp
            total_nuclear += sign * float(w @ w) / (2.0 * den)

    return SecondOrderCorrection(
        delta1=delta1,
        delta2_0=delta2_0,
        delta2_1=delta2_1,
        delta3_0=delta3_0,
        delta3_1=delta3_1,
        total=delta1 + total_nuclear,
    )


@dataclass(frozen=True)
class SweepRecord:
    phi1: float
    phi2: float
    mode: str  # ms_plus_3_2 | ms_minus_3_2 | averaged
    deviation: float  # |f - |C_zz|/2| in Hz


@dataclass(frozen=True)
class SweepResult:
    records: tuple
    max_single: float
    max_averaged: float


_BLOCK = 16  # grid points per stacked build and eigensolve; larger stacks raise peak memory


def deviation_sweep(
    spec_template: SpinSystemSpec,
    phi_grid,
    transverse_field: float = 2.3,
    overlap_threshold: float = OVERLAP_THRESHOLD,
) -> SweepResult:
    """Sweep both nuclei's transverse hyperfine phases (A_zx = cos(phi) A_perp)
    at fixed transverse field (G, applied along x) and record the worst-case
    deviation of the exact SEDOR frequency from |C_zz|/2 per averaging mode.

    The (phi1, phi2) grid is diagonalized in blocks of _BLOCK points: one
    stacked Hamiltonian build and one batched eigensolve per block, with the
    same bits as building and diagonalizing each point on its own.
    """
    phis = list(phi_grid)
    if not phis:
        raise InputError("phi_grid must be non-empty")
    if not all(map(math.isfinite, phis)) or not math.isfinite(transverse_field):
        raise InputError("phi_grid and transverse_field must be finite")
    field = replace(spec_template.field, b_x=transverse_field, b_y=0.0)
    rows = []
    for species, hf in spec_template.nuclei:
        tensors = [HyperfineTensor.from_perp(hf.a_zz, hf.a_perp, phi) for phi in phis]
        a_zx = np.array([t.a_zx for t in tensors])[:, None, None]
        a_zy = np.array([t.a_zy for t in tensors])[:, None, None]
        rows.append((species, hf.a_zz, a_zx, a_zy))
    (sp1, a_zz1, zx1, zy1), (sp2, a_zz2, zx2, zy2) = rows
    f0 = 0.5 * abs(spec_template.c_zz)
    # grid point k is (phis[k // n], phis[k % n]), the order of product(phis, phis)
    i1, i2 = np.divmod(np.arange(len(phis) ** 2), len(phis))
    records = []
    for start in range(0, len(i1), _BLOCK):
        b1, b2 = i1[start:start + _BLOCK], i2[start:start + _BLOCK]
        nuclei = ((sp1, a_zz1, zx1[b1], zy1[b1]), (sp2, a_zz2, zx2[b2], zy2[b2]))
        hs = _hamiltonians(spec_template.d, field, nuclei, spec_template.pair_tensor)
        energies = _label(hs, overlap_threshold)
        # energies.T[k] holds basis state k's energy at each point of the block
        f_plus = 0.5 * np.abs(_sedor_lambda(1.5, energies.T))
        f_minus = 0.5 * np.abs(_sedor_lambda(-1.5, energies.T))
        deviations = zip(
            np.abs(f_plus - f0), np.abs(f_minus - f0), np.abs(0.5 * (f_plus + f_minus) - f0)
        )
        for k1, k2, (dev_plus, dev_minus, dev_averaged) in zip(b1, b2, deviations):
            phi1, phi2 = phis[k1], phis[k2]
            records.append(SweepRecord(phi1, phi2, "ms_plus_3_2", dev_plus))
            records.append(SweepRecord(phi1, phi2, "ms_minus_3_2", dev_minus))
            records.append(SweepRecord(phi1, phi2, "averaged", dev_averaged))
    records = tuple(records)
    max_single = max(
        r.deviation for r in records if r.mode in ("ms_plus_3_2", "ms_minus_3_2")
    )
    max_averaged = max(r.deviation for r in records if r.mode == "averaged")
    return SweepResult(records, max_single, max_averaged)
