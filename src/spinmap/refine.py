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


@dataclass(frozen=True)
class _Terms:
    """The measurements between assigned spins: pair k couples rows ia[k] and
    ib[k] of a positions array."""

    ia: np.ndarray
    ib: np.ndarray
    f: np.ndarray  # Hz
    alpha: np.ndarray  # Hz*A^3


def _pair_terms(labels, measurements, physics) -> _Terms:
    row = {lab: i for i, lab in enumerate(labels)}
    terms = [
        (row[m.spin_a], row[m.spin_b], m.f_ij, dipolar_alpha(
            species_for_label(m.spin_a, physics), species_for_label(m.spin_b, physics)
        ))
        for m in measurements
        if m.spin_a in row and m.spin_b in row
    ]
    ia, ib, f, alpha = zip(*terms) if terms else ((), (), (), ())
    return _Terms(np.array(ia, dtype=np.intp), np.array(ib, dtype=np.intp),
                  np.array(f, dtype=float), np.array(alpha, dtype=float))


def _czz_with_gradient(pos, terms: _Terms):
    """C_zz (Hz) of every pair, and its gradient (m, 3) w.r.t. pos[ib[k]]
    (the gradient w.r.t. pos[ia[k]] is the negative).

    Each value is bit for bit as if its pair were evaluated alone in scalar
    arithmetic.  So the powers use Python's (libm's) pow per element: numpy's
    array pow, and its x * x for ** 2, differ in the last bit for some values.
    """
    d = pos[terms.ib] - pos[terms.ia]
    r2 = np.vecdot(d, d)  # d @ d per row
    if np.any(r2 < 1e-18):
        raise InputError("coincident spin positions")
    r2s = r2.tolist()
    inv_r5 = 1.0 / np.array([x**2.5 for x in r2s])
    r7 = np.array([x**3.5 for x in r2s])
    r3 = np.array([x**3 for x in np.sqrt(r2).tolist()])
    z = d[:, 2]
    z2 = np.array([v**2 for v in z.tolist()])
    czz = terms.alpha * (3.0 * z2 * inv_r5 - 1.0 / r3)
    along_z = np.zeros_like(d)
    along_z[:, 2] = 6.0 * z * inv_r5
    grad = terms.alpha[:, None] * ((3.0 * inv_r5 - 15.0 * z2 / r7)[:, None] * d + along_z)
    return czz, grad


def _signs(czz):
    return np.where(czz >= 0, 1.0, -1.0)


def _sum_in_order(values) -> float:
    """values[0] + values[1] + ..., left to right like a scalar loop (np.sum
    adds pairwise)."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _position_rows(positions, labels):
    """(L, 3) array of positions[label] (angstrom) in label order;
    InputError naming the first label whose position is not a finite
    3-vector."""
    rows = np.zeros((len(labels), 3))
    for i, lab in enumerate(labels):
        try:
            p = np.asarray(positions[lab], dtype=float)
        except (TypeError, ValueError):
            p = None
        if p is None or p.shape != (3,) or not np.isfinite(p).all():
            raise InputError(f"position of {lab!r} is not a finite 3-vector")
        rows[i] = p
    return rows


def residual_and_gradient(positions, measurements, physics: Physics = DEFAULT_PHYSICS):
    """epsilon = sum (f_exp - |C_zz|/2)^2 and d(epsilon)/d(coordinate).

    positions: mapping label -> (3,) array in angstrom.  The gradient is
    returned as a mapping label -> (3,) array (Hz^2 per angstrom) over all
    3N coordinates, before any gauge fixing.  Both are summed in measurement
    order.
    """
    labels = list(positions)
    pos = _position_rows(positions, labels)
    terms = _pair_terms(labels, measurements, physics)
    czz, dczz = _czz_with_gradient(pos, terms)
    r = terms.f - 0.5 * np.abs(czz)
    step = (-r * _signs(czz))[:, None] * dczz  # d eps/d czz (with the 2 of the square) * dczz
    grad = np.zeros_like(pos)
    np.add.at(grad, np.stack([terms.ib, terms.ia], axis=1).ravel(),
              np.stack([step, -step], axis=1).reshape(-1, 3))
    return _sum_in_order(r * r), dict(zip(labels, grad))


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
    direction of the gauge spin (pinned about the anchor's vertical axis).
    Spins are the rows of the base positions array, in label order."""

    def __init__(self, labels, base, anchor, terms: _Terms):
        self.anchor = labels.index(anchor)
        self.gauge = -1
        p0 = base[self.anchor]
        best_rho = 1e-9
        for i, p in enumerate(base):
            rho = math.hypot(p[0] - p0[0], p[1] - p0[1])
            if i != self.anchor and rho > best_rho + 1e-12:
                best_rho = rho
                self.gauge = i
        width = np.full(len(labels), 3)
        width[self.anchor] = 0
        if self.gauge >= 0:
            width[self.gauge] = 2
        self.free = width == 3  # spins with an identity block of 3 columns
        start = np.cumsum(width) - width
        self.columns = start[:, None] + np.arange(3)
        self.n_params = int(width.sum())
        if self.gauge >= 0:
            self.gauge_column = int(start[self.gauge])
            dx = base[self.gauge, 0] - p0[0]
            dy = base[self.gauge, 1] - p0[1]
            rho = math.hypot(dx, dy)
            e_rho = np.array([dx / rho, dy / rho, 0.0])
            self.gauge_basis = np.column_stack([e_rho, np.array([0.0, 0.0, 1.0])])
        # where pair k's gradient lands in the Jacobian: +grad at spin ib[k],
        # -grad at spin ia[k]; a free spin's 3 columns take it as it is
        spin = np.concatenate([terms.ib, terms.ia])
        row = np.tile(np.arange(len(terms.ib)), 2)
        side = np.repeat([1.0, -1.0], len(terms.ib))
        free = self.free[spin]
        self.free_rows, self.free_sides = row[free], side[free]
        self.free_cells = self.free_rows[:, None] * self.n_params + self.columns[spin[free]]
        gauge = spin == self.gauge
        self.gauge_rows = list(zip(row[gauge].tolist(), side[gauge].tolist()))

    def apply(self, base, x):
        """Positions (L, 3) at parameters x; the anchor stays where it is."""
        delta = np.zeros_like(base)
        delta[self.free] = x[self.columns[self.free]]
        if self.gauge >= 0:
            delta[self.gauge] = self.gauge_basis @ x[self.gauge_column:self.gauge_column + 2]
        pos = base + delta
        pos[self.anchor] = base[self.anchor]
        return pos


def _residual_vector_and_jacobian(pos, terms, signs, param):
    czz, dczz = _czz_with_gradient(pos, terms)
    r = terms.f - 0.5 * signs * czz
    jac = np.zeros((len(r), param.n_params))
    k = param.free_rows
    # += on zeros, not =, so that -0.0 becomes 0.0 as in a scalar accumulation
    jac.reshape(-1)[param.free_cells] += (-0.5 * signs[k] * param.free_sides)[:, None] * dczz[k]
    # one row at a time: a stacked matmul may round the gauge column differently
    for k, side in param.gauge_rows:
        c = param.gauge_column
        jac[k, c:c + 2] += (-0.5 * signs[k] * side) * (dczz[k] @ param.gauge_basis)
    return r, jac


def refine(initial, measurements, config: RefinementConfig = RefinementConfig()):
    """Damped least-squares refinement from a discrete solution.

    initial: PlacementSolution or mapping label -> position (angstrom);
    InputError names a label whose position is not a finite 3-vector.
    Residuals only ever decrease across accepted steps; convergence is by
    gradient norm, step size or stagnating cost (converged_by "gradient",
    "step" or "cost"), otherwise NonConvergenceError carries the last
    iterate.  A refined residual above the initial one also raises
    NonConvergenceError, with both residuals in its diagnostics.
    """
    given = initial.positions() if hasattr(initial, "positions") else dict(initial)
    if config.anchor not in given:
        raise InputError(f"anchor {config.anchor!r} missing from the assignment")
    labels = sorted(given)
    base = _position_rows(given, labels)
    terms = _pair_terms(labels, measurements, config.physics)
    if not len(terms.f):
        raise InputError("no measurement connects two assigned spins")
    param = _Parameterization(labels, base, config.anchor, terms)
    czz, _ = _czz_with_gradient(base, terms)
    signs = _signs(czz)
    r_init = terms.f - 0.5 * np.abs(czz)
    eps_init = _sum_in_order(r_init * r_init)

    x = np.zeros(param.n_params)
    total_sign_flips = 0
    for _ in range(3):
        x, info = _levenberg_marquardt(base, x, terms, signs, param)
        czz, _ = _czz_with_gradient(param.apply(base, x), terms)
        new_signs = _signs(czz)
        flips = int(np.count_nonzero(new_signs != signs))
        signs = new_signs
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
    eps_final = float(r @ r)
    if eps_final > eps_init + 1e-9 * max(1.0, eps_init):
        raise NonConvergenceError(
            "refined residual exceeds the initial residual",
            diagnostics={"initial_residual": eps_init, "final_residual": eps_final},
        )
    order = [param.anchor] + [i for i in range(len(labels)) if i != param.anchor]
    positions = {labels[i]: pos[i] for i in order}  # the anchor first
    report = displacement_report(dict(zip(labels, base)), positions)
    return RefinementResult(
        positions=positions,
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
