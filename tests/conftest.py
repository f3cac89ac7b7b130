import math

import numpy as np
import pytest
from hypothesis import strategies as st

from spinmap.errors import InputError
from spinmap.hamiltonian import SpinSystemSpec
from spinmap.lattice import LatticeParams, SiteTable, build_lattice, reference_site_si1
from spinmap.spinphys import SI29, FieldConfig, HyperfineTensor, dipolar_alpha, species_for_label


@pytest.fixture(scope="session")
def params():
    return LatticeParams()


@pytest.fixture(scope="session")
def table26(params):
    return SiteTable(build_lattice(params, 26.0))


@pytest.fixture(scope="session")
def field_1960():
    return FieldConfig(b_z=1960.9)


@st.composite
def drawn_lattices(draw):
    """Cell constants within 5 % of ideal for a valid stacking, any k variant."""
    stacking = draw(st.sampled_from(["ABCB", "ABCACB", "ABC"]))
    a = draw(st.floats(0.95 * 3.073, 1.05 * 3.073))
    c = a * len(stacking) * math.sqrt(2.0 / 3.0) * draw(st.floats(0.951, 1.049))
    n_k = len(LatticeParams(a=a, c=c, stacking=stacking).k_layers())
    k_variant = draw(st.integers(0, n_k - 1))
    return LatticeParams(a=a, c=c, stacking=stacking, k_variant=k_variant)


def reference_sedor_between(table, i, j, physics):
    """|C_zz|/2 (Hz) between sites i and j, one pair at a time, in scalar
    arithmetic: the values placement.sedor_between must match bit for bit."""
    sp, pos = table.species, table.positions
    nucleus = {"Si": physics.si29, "C": physics.c13}
    alpha = dipolar_alpha(nucleus[sp.item(i)], nucleus[sp.item(j)])
    d = pos[j] - pos[i]
    r2 = float(d @ d)
    return 0.5 * abs(alpha / r2**1.5 * (3.0 * d[2] ** 2 / r2 - 1.0))


def _reference_czz_and_grad(pa, pb, alpha):
    """C_zz (Hz) of one pair and its gradient w.r.t. pb (w.r.t. pa it is the
    negative), in scalar arithmetic."""
    d = pb - pa
    r2 = float(d @ d)
    if r2 < 1e-18:
        raise InputError("coincident spin positions")
    r = math.sqrt(r2)
    inv_r5 = 1.0 / r2**2.5
    czz = alpha * (3.0 * d[2] ** 2 * inv_r5 - 1.0 / r**3)
    grad = alpha * (
        (3.0 * inv_r5 - 15.0 * d[2] ** 2 / r2**3.5) * d
        + np.array([0.0, 0.0, 6.0 * d[2] * inv_r5])
    )
    return czz, grad


def _reference_terms(positions, measurements, physics):
    return [
        (m.spin_a, m.spin_b, m.f_ij, dipolar_alpha(
            species_for_label(m.spin_a, physics), species_for_label(m.spin_b, physics)
        ))
        for m in measurements
        if m.spin_a in positions and m.spin_b in positions
    ]


def reference_residual_and_jacobian(base, x, measurements, signs, anchor, physics):
    """Residual vector r and gauge-reduced Jacobian J of refinement at
    parameters x from base positions (label -> (3,) array), one measured pair
    at a time in scalar arithmetic: the values refine's array kernel must
    match bit for bit.  signs: one +-1.0 per measurement between two labels
    of base."""
    labels = sorted(base)
    p0 = base[anchor]
    gauge, best_rho = None, 1e-9
    for lab in labels:
        rho = math.hypot(base[lab][0] - p0[0], base[lab][1] - p0[1])
        if lab != anchor and rho > best_rho + 1e-12:
            gauge, best_rho = lab, rho
    blocks, offset = {}, 0
    for lab in labels:
        if lab == anchor:
            continue
        if lab == gauge:
            dx, dy = base[lab][0] - p0[0], base[lab][1] - p0[1]
            rho = math.hypot(dx, dy)
            e_rho = np.array([dx / rho, dy / rho, 0.0])
            basis = np.column_stack([e_rho, np.array([0.0, 0.0, 1.0])])
        else:
            basis = np.eye(3)
        blocks[lab] = (offset, basis)
        offset += basis.shape[1]
    pos = {anchor: base[anchor].copy()}
    for lab, (off, basis) in blocks.items():
        pos[lab] = base[lab] + basis @ x[off:off + basis.shape[1]]

    terms = _reference_terms(base, measurements, physics)
    r = np.zeros(len(terms))
    jac = np.zeros((len(terms), offset))
    for k, ((a, b, f, alpha), s) in enumerate(zip(terms, signs)):
        czz, dczz = _reference_czz_and_grad(pos[a], pos[b], alpha)
        r[k] = f - 0.5 * s * czz
        for lab, sign in ((b, 1.0), (a, -1.0)):
            if lab == anchor:
                continue
            off, basis = blocks[lab]
            jac[k, off:off + basis.shape[1]] += (-0.5 * s * sign) * (dczz @ basis)
    return r, jac


def reference_residual_and_gradient(positions, measurements, physics):
    """epsilon and its gradient (label -> (3,) array) one measured pair at a
    time in scalar arithmetic: the values refine.residual_and_gradient must
    match bit for bit."""
    pos = {lab: np.asarray(p, dtype=float) for lab, p in positions.items()}
    grad = {lab: np.zeros(3) for lab in pos}
    eps = 0.0
    for a, b, f, alpha in _reference_terms(pos, measurements, physics):
        czz, dczz = _reference_czz_and_grad(pos[a], pos[b], alpha)
        r_k = f - 0.5 * abs(czz)
        eps += r_k * r_k
        s = 1.0 if czz >= 0 else -1.0
        coeff = -r_k * s
        grad[b] += coeff * dczz
        grad[a] -= coeff * dczz
    return eps, grad


def strong_pair_spec(params, d=35e6, b_x=0.0, b_y=0.0):
    """Strongly coupled fixture: on-axis -4.8 MHz nucleus plus an
    adjacent-bilayer neighbor with substantial transverse hyperfine."""
    si1 = reference_site_si1(params).position
    neighbor = si1 + np.array([0.0, params.a / np.sqrt(3.0), params.c / 4.0])
    field = FieldConfig(b_z=1960.9, b_x=b_x, b_y=b_y)
    return SpinSystemSpec.from_geometry(
        d,
        field,
        (SI29, HyperfineTensor.from_perp(-4.8e6, 0.0), si1),
        (SI29, HyperfineTensor.from_perp(300e3, 80e3), neighbor),
    )


def weak_pair_spec(params, d=35e6, b_x=0.0, b_y=0.0):
    """Weakly coupled fixture: small hyperfine couplings on both nuclei."""
    si1 = reference_site_si1(params).position
    other = si1 + np.array([2.5, 1.0, 3.0])
    field = FieldConfig(b_z=1960.9, b_x=b_x, b_y=b_y)
    return SpinSystemSpec.from_geometry(
        d,
        field,
        (SI29, HyperfineTensor.from_perp(30e3, 3e3), si1),
        (SI29, HyperfineTensor.from_perp(60e3, 3e3), other),
    )
