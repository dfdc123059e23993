import numpy as np
import pytest

from loadcast.errors import NonConvergence, NonFiniteValue, SingularSystem
from loadcast.svr import fit_epsilon, fit_ridge


class TestRidge:
    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(0)
        for n, d in [(20, 3), (100, 10), (500, 50)]:
            x = rng.normal(size=(n, d))
            y = rng.normal(size=n)
            w, b = fit_ridge(x, y, lam=1e-9)
            # independent oracle: least squares via SVD on the augmented design
            a = np.hstack([x, np.ones((n, 1))])
            beta, *_ = np.linalg.lstsq(a, y, rcond=None)
            assert np.max(np.abs(w - beta[:d])) < 1e-6
            assert abs(b - beta[d]) < 1e-6

    def test_constant_targets_flat_solution(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4))
        w, b = fit_ridge(x, np.full(50, 3.5), lam=0.1)
        assert np.max(np.abs(w)) < 1e-9
        assert b == pytest.approx(3.5, rel=1e-9)

    def test_singular_system_with_zero_lambda(self):
        x = np.ones((10, 2))  # duplicate columns and collinear with intercept
        with pytest.raises(SingularSystem):
            fit_ridge(x, np.arange(10.0), lam=0.0)

    def test_lambda_regularizes_singular_design(self):
        x = np.ones((10, 2))
        w, b = fit_ridge(x, np.full(10, 2.0), lam=1e-3)
        assert np.isfinite(w).all() and np.isfinite(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_non_finite_inputs_rejected_before_solving(where, bad):
    # a NaN makes every residual comparison false, so ADMM would spin to max_iter
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 8))
    y = x @ rng.normal(size=8)
    if where == "x":
        x[17, 3] = bad
    else:
        y[17] = bad
    with pytest.raises(NonFiniteValue):
        fit_ridge(x, y)
    with pytest.raises(NonFiniteValue):
        fit_epsilon(x, y, max_iter=50)


class TestEpsilon:
    def test_recovers_noise_free_line(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 1))
        y = 2.0 * x[:, 0] + 1.0
        w, b = fit_epsilon(x, y, epsilon=0.01, c=1.0)
        assert abs(w[0] - 2.0) < 0.05
        assert abs(b - 1.0) < 0.05

    def test_multifeature_recovery(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, size=(300, 4))
        true_w = np.array([1.5, -0.7, 0.3, 2.2])
        y = x @ true_w + 0.4
        w, b = fit_epsilon(x, y, epsilon=0.01, c=2.0)
        pred = x @ w + b
        assert np.max(np.abs(pred - y)) < 0.1

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, size=(80, 2))
        y = x @ np.array([1.0, -2.0]) + 0.5
        assert fit_epsilon(x, y)[1] == fit_epsilon(x, y)[1]
        w1, _ = fit_epsilon(x, y)
        w2, _ = fit_epsilon(x, y)
        assert np.array_equal(w1, w2)

    def test_non_convergence_on_tiny_budget(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(50, 2))
        y = x @ np.array([3.0, -1.0]) + 2.0
        with pytest.raises(NonConvergence):
            fit_epsilon(x, y, max_iter=10)

    def test_kkt_residual_small(self):
        # At the minimum of 0.5*||w||^2 + C*sum(hinge), 0 = w - C*x's and
        # 0 = C*sum(s), where s_i is sign(r_i) outside the tube, 0 inside and
        # t_i*sign(r_i) with t_i in [0, 1] on its edge. Points within delta of
        # the edge get the t that fits best: box-constrained least squares by
        # accelerated projected gradient.
        rng = np.random.default_rng(21)
        delta, worst = 1e-3, 0.0
        for _ in range(20):
            n, d = int(rng.integers(20, 201)), int(rng.integers(1, 9))
            c, epsilon = float(rng.choice([0.1, 1.0, 10.0])), float(rng.choice([0.01, 0.1]))
            x = rng.normal(size=(n, d))
            y = x @ rng.normal(size=d) + rng.normal() + rng.normal(0, 0.3, size=n)
            w, b = fit_epsilon(x, y, epsilon=epsilon, c=c)
            r = y - (x @ w + b)
            s = np.where(np.abs(r) > epsilon + delta, np.sign(r), 0.0)
            edge = np.abs(np.abs(r) - epsilon) <= delta
            a = np.hstack([x, np.ones((n, 1))])
            g = np.append(w, 0.0) - c * a.T @ s
            m = c * a[edge].T * np.sign(r[edge])
            step = 1.0 / max(np.linalg.norm(m, 2) ** 2, 1e-12)
            t = t_old = np.full(edge.sum(), 0.5)
            for k in range(1, 3001):
                look = t + (k - 1) / (k + 2) * (t - t_old)
                t_old, t = t, np.clip(look + step * m.T @ (g - m @ look), 0.0, 1.0)
            worst = max(worst, float(np.linalg.norm(g - m @ t) / np.linalg.norm(w)))
        assert worst < 1e-2
