"""Linear regressors for the per-hour forecasting sub-models.

Two solver modes:
  * epsilon -- flat-function objective with an epsilon-insensitive tube,
    0.5*||w||^2 + C * sum_i max(0, |y_i - (w.x_i + b)| - eps), minimized by
    deterministic full-batch subgradient descent with adaptive per-coordinate
    step sizes (Adam-style moment scaling; plain fixed-step subgradient
    iterations stall on strongly correlated feature columns).
  * ridge -- squared error + lam*||w||^2 (intercept unpenalized), solved in
    closed form by the normal equations.
"""

from __future__ import annotations

import numpy as np

from .errors import NonConvergence, SingularSystem


def fit_ridge(x: np.ndarray, y: np.ndarray, lam: float = 1e-6) -> tuple[np.ndarray, float]:
    """Closed-form ridge fit; returns (w, b).

    Raises SingularSystem when lam == 0 and the design (with intercept
    column) is rank-deficient.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    a = np.hstack([x, np.ones((n, 1))])
    if lam == 0 and np.linalg.matrix_rank(a) < d + 1:
        raise SingularSystem("rank-deficient design with lam = 0")
    gram = a.T @ a
    gram[np.arange(d), np.arange(d)] += lam
    try:
        beta = np.linalg.solve(gram, a.T @ y)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from None
    return beta[:d], float(beta[d])


#: step size, relative plateau tolerance, and iterations per convergence check
_LR, _TOL, _CHECK_EVERY = 0.003, 1e-3, 250


def fit_epsilon(x: np.ndarray, y: np.ndarray, epsilon: float = 0.01, c: float = 1.0,
                max_iter: int = 20000) -> tuple[np.ndarray, float]:
    """Adaptive subgradient descent on the epsilon-insensitive objective.

    Deterministic and full-batch: every iteration takes one subgradient of
    0.5*||w||^2/n + C * mean(hinge) (the 1/n scaling leaves the minimizer
    unchanged) and steps each coordinate by lr scaled with running first and
    second moments of the subgradients. The best objective seen is tracked
    because subgradient steps are not monotone; convergence is declared after
    two consecutive 250-iteration windows whose best-objective improvement
    falls below 1e-3 (relative). Raises NonConvergence when max_iter is
    exceeded first.

    Returns the (w, b) with the best objective visited.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    m_w = np.zeros(d)
    v_w = np.zeros(d)
    m_b = v_b = 0.0
    beta1, beta2, eps_hat = 0.9, 0.999, 1e-8

    best = np.inf
    best_w, best_b = w.copy(), b
    window_start = np.inf
    quiet_windows = 0
    for t in range(1, max_iter + 1):
        res = y - (x @ w + b)
        res_abs = np.abs(res)
        hinge = np.maximum(0.0, res_abs - epsilon)
        obj = 0.5 * float(w @ w) / n + c * float(hinge.mean())
        if obj < best:
            best, best_w, best_b = obj, w.copy(), b

        if t % _CHECK_EVERY == 0:
            improved = window_start - best
            if improved <= _TOL * max(abs(window_start), 1e-12):
                quiet_windows += 1
                if quiet_windows >= 2:
                    return best_w, best_b
            else:
                quiet_windows = 0
            window_start = best

        s = np.where(res_abs > epsilon, -np.sign(res), 0.0)
        g_w = w / n + c * (x.T @ s) / n
        g_b = c * float(s.mean())
        m_w = beta1 * m_w + (1.0 - beta1) * g_w
        v_w = beta2 * v_w + (1.0 - beta2) * g_w * g_w
        m_b = beta1 * m_b + (1.0 - beta1) * g_b
        v_b = beta2 * v_b + (1.0 - beta2) * g_b * g_b
        bc1 = 1.0 - beta1 ** t
        bc2 = 1.0 - beta2 ** t
        w = w - _LR * (m_w / bc1) / (np.sqrt(v_w / bc2) + eps_hat)
        b = b - _LR * (m_b / bc1) / (np.sqrt(v_b / bc2) + eps_hat)
    raise NonConvergence(
        f"epsilon-mode solver did not plateau within {max_iter} iterations")
