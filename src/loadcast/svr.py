"""Linear regressors for the per-hour forecasting sub-models.

Two solver modes:
  * epsilon -- flat-function objective with an epsilon-insensitive tube,
    0.5*||w||^2 + C * sum_i max(0, |y_i - (w.x_i + b)| - eps), minimized by
    ADMM (Boyd et al., "Distributed Optimization and Statistical Learning
    via the Alternating Direction Method of Multipliers", FnT ML 3(1), 2011),
    whose (w, b) step is the ridge normal equations below.
  * ridge -- squared error + lam*||w||^2 (intercept unpenalized), solved in
    closed form by the normal equations.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, NonFiniteValue, SingularSystem


def _finite(x, y) -> tuple[np.ndarray, np.ndarray]:
    """x and y as float64 arrays; NonFiniteValue when either holds a NaN or Inf."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValue("solver inputs hold NaN or Inf")
    return x, y


def _normal_equations(x: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The design with an intercept column, and its Gram matrix with lam
    added to the weight diagonal only (the intercept is unpenalized)."""
    n, d = x.shape
    a = np.hstack([x, np.ones((n, 1))])
    gram = a.T @ a
    gram[np.arange(d), np.arange(d)] += lam
    return a, gram


def fit_ridge(x: np.ndarray, y: np.ndarray, lam: float = 1e-6) -> tuple[np.ndarray, float]:
    """Closed-form ridge fit; returns (w, b).

    Raises NonFiniteValue when x or y holds a NaN or Inf, and SingularSystem
    when lam == 0 and the design (with intercept column) is rank-deficient.
    """
    x, y = _finite(x, y)
    d = x.shape[1]
    a, gram = _normal_equations(x, lam)
    if lam == 0 and np.linalg.matrix_rank(a) < d + 1:
        raise SingularSystem("rank-deficient design with lam = 0")
    try:
        beta = np.linalg.solve(gram, a.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    return beta[:d], float(beta[d])


#: ADMM penalty rho times the sample count, and the absolute and relative
#: tolerances of the primal and dual residuals (Boyd et al. section 3.3.1)
_RHO_N, _ABS_TOL, _REL_TOL = 10.0, 1e-6, 1e-5


def fit_epsilon(x: np.ndarray, y: np.ndarray, epsilon: float = 0.01, c: float = 1.0,
                max_iter: int = 20000) -> tuple[np.ndarray, float]:
    """Scaled ADMM (Boyd et al. 2011, section 3.1.1) on the epsilon-insensitive
    objective; returns (w, b).

    Minimizes 0.5*||w||^2/n + C * mean(hinge(z)) subject to
    z = y - (x.w + b); the 1/n scaling leaves the minimizer unchanged. The
    (w, b) step is a ridge fit to y - z - u with lam = 1/(rho*n), whose
    matrix is inverted once per fit; the z step is the hinge's closed-form
    proximal map. Stops when the primal and dual residuals are both within
    tolerance; raises NonConvergence when max_iter iterations run out first,
    and NonFiniteValue at once when x or y holds a NaN or Inf.
    """
    x, y = _finite(x, y)
    n, d = x.shape
    rho, kappa = _RHO_N / n, c / _RHO_N
    a, gram = _normal_equations(x, 1.0 / _RHO_N)
    inverse, aty = np.linalg.inv(gram), a.T @ y
    z = u = np.zeros(n)  # u is the scaled dual variable
    atz = atu = np.zeros(d + 1)
    for _ in range(max_iter):
        beta = inverse @ (aty - atz - atu)
        fit = a @ beta
        v = y - fit - u
        z = v - np.clip(v - np.clip(v, -epsilon, epsilon), -kappa, kappa)
        primal = fit + z - y
        u = u + primal
        atz_old, atz, atu = atz, a.T @ z, a.T @ u
        scale = max(np.linalg.norm(fit), np.linalg.norm(z), np.linalg.norm(y))
        if (np.linalg.norm(primal) <= np.sqrt(n) * _ABS_TOL + _REL_TOL * scale
                and rho * np.linalg.norm(atz - atz_old)
                <= np.sqrt(d + 1) * _ABS_TOL + _REL_TOL * rho * np.linalg.norm(atu)):
            return beta[:d], float(beta[d])
    raise NonConvergence(f"epsilon-mode ADMM did not converge within {max_iter} iterations")
