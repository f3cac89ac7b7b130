"""Continuous least-squares refinement of a discrete placement solution.

The residual is epsilon = sum_k (f_k,exp - f_k,th)^2 with f_th = |C_zz|/2
evaluated at off-lattice coordinates.  A damped least-squares (trust
region) iteration minimizes epsilon over the free coordinates; the anchor
spin stays frozen and one azimuthal direction (about the vertical axis
through the anchor) is pinned so the minimizer is gauge-unique.  The sign
of each coupling is bootstrapped from the initial lattice solution and
re-checked at convergence.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NonConvergenceError
from .spinphys import DEFAULT_PHYSICS, Physics, dipolar_alpha, species_for_label

MAX_ITERATIONS = 500
GRADIENT_TOL_REL = 1e-8  # vs initial gradient norm
STEP_TOL = 1e-6  # angstrom
COST_TOL_REL = 1e-12  # relative decrease treated as stagnation


@dataclass(frozen=True)
class RefinementConfig:
    anchor: str = "Si1"
    physics: Physics = DEFAULT_PHYSICS


@dataclass(frozen=True)
class DisplacementReport:
    rows: dict  # label -> (dx, dy, dz, norm) in angstrom
    mean: float
    max: float
    argmax: str


@dataclass(frozen=True)
class RefinementResult:
    positions: dict  # label -> np.ndarray (3,), angstrom
    residual: float  # Hz^2
    displacements: DisplacementReport
    n_iterations: int
    converged_by: str  # gradient | step | cost
    gradient_norm: float
    hessian_condition: float
    underdetermined: bool
    rank: int
    n_parameters: int
    sign_flips: int


def _pair_terms(positions, measurements, physics):
    labels = set(positions)
    terms = []
    for m in measurements:
        if m.spin_a in labels and m.spin_b in labels:
            alpha = dipolar_alpha(
                species_for_label(m.spin_a, physics), species_for_label(m.spin_b, physics)
            )
            terms.append((m.spin_a, m.spin_b, m.f_ij, alpha))
    return terms


def _czz_and_grad(pa, pb, alpha):
    """C_zz (Hz) and its gradient w.r.t. pb (the gradient w.r.t. pa is the
    negative)."""
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


def residual_and_gradient(positions, measurements, physics: Physics = DEFAULT_PHYSICS):
    """epsilon = sum (f_exp - |C_zz|/2)^2 and d(epsilon)/d(coordinate).

    positions: mapping label -> (3,) array in angstrom.  The gradient is
    returned as a mapping label -> (3,) array (Hz^2 per angstrom) over all
    3N coordinates, before any gauge fixing.
    """
    pos = {lab: np.asarray(p, dtype=float) for lab, p in positions.items()}
    grad = {lab: np.zeros(3) for lab in pos}
    eps = 0.0
    for a, b, f, alpha in _pair_terms(pos, measurements, physics):
        czz, dczz = _czz_and_grad(pos[a], pos[b], alpha)
        r_k = f - 0.5 * abs(czz)
        eps += r_k * r_k
        s = 1.0 if czz >= 0 else -1.0
        coeff = -r_k * s  # d eps/d czz, including the 2 from the square
        grad[b] += coeff * dczz
        grad[a] -= coeff * dczz
    return eps, grad


def displacement_report(initial, refined) -> DisplacementReport:
    """Per-spin displacement table (dx, dy, dz, |d|) plus mean/max summary."""
    if set(initial) != set(refined):
        missing = set(initial) ^ set(refined)
        raise InputError(f"label sets differ: {sorted(missing)}")
    rows = {}
    for lab in sorted(initial):
        d = np.asarray(refined[lab], dtype=float) - np.asarray(initial[lab], dtype=float)
        rows[lab] = (float(d[0]), float(d[1]), float(d[2]), float(np.linalg.norm(d)))
    norms = {lab: r[3] for lab, r in rows.items()}
    argmax = max(sorted(norms), key=lambda lab: norms[lab])
    return DisplacementReport(
        rows=rows,
        mean=float(np.mean(list(norms.values()))),
        max=float(norms[argmax]),
        argmax=argmax,
    )


class _Parameterization:
    """Free coordinates: 3 per non-anchor spin, minus one azimuthal
    direction of the gauge spin (pinned about the anchor's vertical axis)."""

    def __init__(self, labels, positions, anchor):
        self.anchor = anchor
        self.labels = [lab for lab in labels if lab != anchor]
        self.blocks = {}
        offset = 0
        gauge_label = None
        p0 = positions[anchor]
        best_rho = 1e-9
        for lab in self.labels:
            rho = math.hypot(positions[lab][0] - p0[0], positions[lab][1] - p0[1])
            if rho > best_rho + 1e-12:
                best_rho = rho
                gauge_label = lab
        self.gauge_label = gauge_label
        for lab in self.labels:
            if lab == gauge_label:
                p0 = positions[self.anchor]
                dx = positions[lab][0] - p0[0]
                dy = positions[lab][1] - p0[1]
                rho = math.hypot(dx, dy)
                e_rho = np.array([dx / rho, dy / rho, 0.0])
                basis = np.column_stack([e_rho, np.array([0.0, 0.0, 1.0])])
            else:
                basis = np.eye(3)
            self.blocks[lab] = (offset, basis)
            offset += basis.shape[1]
        self.n_params = offset

    def apply(self, base_positions, x):
        out = {self.anchor: base_positions[self.anchor].copy()}
        for lab in self.labels:
            off, basis = self.blocks[lab]
            out[lab] = base_positions[lab] + basis @ x[off:off + basis.shape[1]]
        return out


def _residual_vector_and_jacobian(pos, terms, signs, param):
    m = len(terms)
    r = np.zeros(m)
    jac = np.zeros((m, param.n_params))
    for k, ((a, b, f, alpha), s) in enumerate(zip(terms, signs)):
        czz, dczz = _czz_and_grad(pos[a], pos[b], alpha)
        r[k] = f - 0.5 * s * czz
        for lab, sign in ((b, 1.0), (a, -1.0)):
            if lab == param.anchor:
                continue
            off, basis = param.blocks[lab]
            jac[k, off:off + basis.shape[1]] += (-0.5 * s * sign) * (dczz @ basis)
    return r, jac


def refine(initial, measurements, config: RefinementConfig = RefinementConfig()):
    """Damped least-squares refinement from a discrete solution.

    initial: PlacementSolution or mapping label -> position (angstrom).
    Residuals only ever decrease across accepted steps; convergence is by
    gradient norm, step size or stagnating cost (converged_by "gradient",
    "step" or "cost"), otherwise NonConvergenceError carries the last
    iterate.  A refined residual above the initial one also raises
    NonConvergenceError, with both residuals in its diagnostics.
    """
    base = initial.positions() if hasattr(initial, "positions") else dict(initial)
    base = {lab: np.asarray(p, dtype=float) for lab, p in base.items()}
    if config.anchor not in base:
        raise InputError(f"anchor {config.anchor!r} missing from the assignment")
    labels = sorted(base)
    terms = _pair_terms(base, measurements, config.physics)
    if not terms:
        raise InputError("no measurement connects two assigned spins")
    param = _Parameterization(labels, base, config.anchor)
    signs = []
    for a, b, f, alpha in terms:
        czz, _ = _czz_and_grad(base[a], base[b], alpha)
        signs.append(1.0 if czz >= 0 else -1.0)

    x = np.zeros(param.n_params)
    total_sign_flips = 0
    for sign_round in range(3):
        x, info = _levenberg_marquardt(base, x, terms, signs, param)
        pos = param.apply(base, x)
        flips = 0
        for k, (a, b, f, alpha) in enumerate(terms):
            czz, _ = _czz_and_grad(pos[a], pos[b], alpha)
            s = 1.0 if czz >= 0 else -1.0
            if s != signs[k]:
                signs[k] = s
                flips += 1
        total_sign_flips += flips
        if flips == 0:
            break

    pos = param.apply(base, x)
    r, jac = _residual_vector_and_jacobian(pos, terms, signs, param)
    sv = np.linalg.svd(jac, compute_uv=False) if jac.size else np.array([0.0])
    tol_rank = max(jac.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int((sv > tol_rank).sum())
    underdetermined = rank < param.n_params
    if underdetermined or sv[-1] == 0:
        cond = float("inf")
    else:
        cond = float((sv[0] / sv[-1]) ** 2)  # of J^T J
    eps_init, _ = residual_and_gradient(base, measurements, config.physics)
    eps_final = float(r @ r)
    if eps_final > eps_init + 1e-9 * max(1.0, eps_init):
        raise NonConvergenceError(
            "refined residual exceeds the initial residual",
            diagnostics={"initial_residual": eps_init, "final_residual": eps_final},
        )
    report = displacement_report(base, pos)
    return RefinementResult(
        positions=pos,
        residual=eps_final,
        displacements=report,
        n_iterations=info["iterations"],
        converged_by=info["converged_by"],
        gradient_norm=info["gradient_norm"],
        hessian_condition=cond,
        underdetermined=underdetermined,
        rank=rank,
        n_parameters=param.n_params,
        sign_flips=total_sign_flips,
    )


def _levenberg_marquardt(base, x0, terms, signs, param):
    """Damped least squares with Marquardt scaling and gain-ratio damping
    updates.  Accepted steps strictly decrease the residual."""
    x = x0.copy()
    r, jac = _residual_vector_and_jacobian(param.apply(base, x), terms, signs, param)
    cost = float(r @ r)
    g = jac.T @ r  # half-gradient
    g0 = max(float(np.linalg.norm(2.0 * g)), 1e-30)
    jtj = jac.T @ jac
    lam = 1e-3 * max(float(np.max(np.diag(jtj))), 1e-30)
    nu = 2.0
    iterations = 0
    converged_by = None
    for _ in range(MAX_ITERATIONS):
        if float(np.linalg.norm(2.0 * g)) <= GRADIENT_TOL_REL * g0:
            converged_by = "gradient"
            break
        accepted = False
        for _ in range(80):
            if lam > 1e40:  # no float-representable improving step
                break
            try:
                step = np.linalg.solve(jtj + lam * np.eye(jtj.shape[0]), -g)
            except np.linalg.LinAlgError:
                lam *= nu
                nu *= 2.0
                continue
            pred = float(step @ (lam * step - g))
            r_new, jac_new = _residual_vector_and_jacobian(
                param.apply(base, x + step), terms, signs, param
            )
            cost_new = float(r_new @ r_new)
            decrease = cost - cost_new
            rho = decrease / pred if pred > 0 else -1.0
            if decrease > 0:
                x = x + step
                r, jac, cost = r_new, jac_new, cost_new
                g = jac.T @ r
                jtj = jac.T @ jac
                lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
                accepted = True
                iterations += 1
                break
            lam *= nu
            nu *= 2.0
        if not accepted:
            converged_by = "step"  # no decreasing step exists at float precision
            break
        if float(np.max(np.abs(step))) < STEP_TOL:
            converged_by = "step"
            break
        if decrease <= COST_TOL_REL * max(cost, 1e-30):
            converged_by = "cost"
            break
    if converged_by is None:
        raise NonConvergenceError(
            f"no convergence in {MAX_ITERATIONS} iterations",
            diagnostics={
                "cost": cost,
                "gradient_norm": float(np.linalg.norm(2.0 * g)),
                "x": x.tolist(),
            },
        )
    return x, {
        "iterations": iterations,
        "converged_by": converged_by,
        "gradient_norm": float(np.linalg.norm(2.0 * g)),
    }
