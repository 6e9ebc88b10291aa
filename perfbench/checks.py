"""Correctness checks, computed apart from the program.

Each check returns a list of failure messages; an empty list is a pass.
Reference values are vectorised numpy computations written here, closed
forms from ``carasim.fixtures`` and ``bb_closed_forms``, or properties the
method must have.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

TOL = 1e-10


def close(name: str, got, want, tol: float = TOL) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != {want.shape}"]
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    dev = float(np.max(np.abs(got - want))) if want.size else 0.0
    return [] if dev <= tol * scale else [f"{name}: max deviation {dev:.3e} > {tol * scale:.1e}"]


def matrix(m: dict) -> np.ndarray:
    """A ``{"shape", "data"}`` matrix from the program's JSON output."""
    return np.asarray(m["data"], dtype=float).reshape(m["shape"])


def theory_from_json(doc: dict) -> dict:
    out = {k: matrix(doc[k]) for k in ("v", "dg", "info", "V", "sigma1", "sigma2", "sigma")}
    out["conditional"] = [matrix(c["sigma"]) for c in doc["conditional"]]
    out["nodes"] = int(doc["method"]["size"])
    out["stderr"] = doc["method"]["stderr"]
    return out


def theory_from_report(rep) -> dict:
    out = {k: np.asarray(getattr(rep, k)) for k in ("v", "dg", "info", "V", "sigma1", "sigma2", "sigma")}
    out["conditional"] = [c.sigma for c in rep.conditional]
    out["nodes"] = int(rep.method.size)
    out["stderr"] = rep.method.stderr
    return out


# ---------------------------------------------------------------------------
# Vectorised reference for rules, information and the limit covariances
# ---------------------------------------------------------------------------


def rule_kernel(rule, Z: np.ndarray):
    """(pi, d pi / d z) for linear predictors Z (N, K); None if not covered."""
    if rule.kind in ("exponential", "odds-ratio") or (rule.kind == "ratio-of-g" and rule.g_name == "exp"):
        T = rule.T if rule.kind == "exponential" else 1.0
        e = np.exp(T * (Z - Z.max(axis=1, keepdims=True)))
        pi = e / e.sum(axis=1, keepdims=True)
        dpi = T * (pi[:, :, None] * np.eye(Z.shape[1]) - pi[:, :, None] * pi[:, None, :])
        return pi, dpi
    if rule.kind == "ratio-of-g" and rule.g_name == "one-plus-z-squared":
        g, gp = 1.0 + Z * Z, 2.0 * Z
        s = g.sum(axis=1, keepdims=True)
        pi = g / s
        dpi = (gp[:, :, None] * np.eye(Z.shape[1]) - pi[:, :, None] * gp[:, None, :]) / s[:, :, None]
        return pi, dpi
    return None


def _jac(dpi: np.ndarray, X: np.ndarray) -> np.ndarray:
    """d pi_k / d theta_{j,l} = d pi_k / d z_j * x_l, as (N, K, K*d)."""
    N, K, _ = dpi.shape
    return (dpi[:, :, :, None] * X[:, None, None, :]).reshape(N, K, K * X.shape[1])


def _fisher_weights(model, theta: np.ndarray, X: np.ndarray) -> np.ndarray:
    Z = X @ theta.T
    W = np.empty_like(Z)
    for k, arm in enumerate(model.arms):
        if arm.family == "logistic":
            p = expit(Z[:, k])
            W[:, k] = p * (1.0 - p)
        else:
            W[:, k] = 1.0 / arm.dispersion
    return W


def _sandwich_blocks(dg: np.ndarray, V: np.ndarray, d: int) -> np.ndarray:
    return sum(dg[:, k * d:(k + 1) * d] @ V[k] @ dg[:, k * d:(k + 1) * d].T for k in range(V.shape[0]))


def reference_theory(model, rule, pts: np.ndarray, w: np.ndarray, x_list) -> dict | None:
    theta, d = model.true_theta, model.d
    kern = rule_kernel(rule, pts @ theta.T)
    if kern is None:
        return None
    pi, dpi = kern
    v = w @ pi
    dg = np.tensordot(w, _jac(dpi, pts), axes=(0, 0))
    info = np.einsum("n,nk,ni,nj->kij", w, pi * _fisher_weights(model, theta, pts), pts, pts)
    V = np.linalg.inv(info)
    s1 = np.diag(v) - np.outer(v, v)
    s2 = _sandwich_blocks(dg, V, d)
    conditional = []
    for x in x_list:
        x = np.asarray(x, dtype=float)[None, :]
        mass = float(w[np.all(pts == x, axis=1)].sum())
        px, dx = rule_kernel(rule, x @ theta.T)
        jx = _jac(dx, x)[0]
        conditional.append(np.diag(px[0]) - np.outer(px[0], px[0])
                           + 2.0 * mass * _sandwich_blocks(jx, V, d))
    return {"v": v, "dg": dg, "info": info, "V": V, "sigma1": s1, "sigma2": s2,
            "sigma": s1 + 2.0 * s2, "conditional": conditional}


def check_theory(got: dict, model, rule, pts, w, x_list, label: str) -> list[str]:
    """Reference values on the same nodes, plus properties the limits must have."""
    out: list[str] = []
    ref = reference_theory(model, rule, pts, w, x_list)
    if ref is not None:
        for key in ("v", "dg", "info", "V", "sigma"):
            out += close(f"{label} {key} vs numpy reference", got[key], ref[key])
        for q, (a, b) in enumerate(zip(got["conditional"], ref["conditional"])):
            out += close(f"{label} Sigma|x{q + 1} vs numpy reference", a, b)
    if got["nodes"] != pts.shape[0]:
        out.append(f"{label}: report says {got['nodes']} nodes, expected {pts.shape[0]}")
    out += close(f"{label} sum of v", got["v"].sum(), 1.0, 1e-12)
    out += close(f"{label} column sums of dg", got["dg"].sum(axis=0), 0.0 * got["dg"][0], 1e-12)
    out += close(f"{label} row sums of Sigma", got["sigma"].sum(axis=1), 0.0 * got["v"], 1e-10)
    eig = np.linalg.eigvalsh(0.5 * (got["sigma"] + got["sigma"].T))
    if eig.min() < -1e-10:
        out.append(f"{label}: Sigma has eigenvalue {eig.min():.3e}")
    for k in range(model.K):
        out += close(f"{label} V_{k + 1} I_{k + 1}", got["V"][k] @ got["info"][k],
                      np.eye(model.d), 1e-8)
    return out


def check_sandwich(lse, model, rule, pts, w, label: str) -> list[str]:
    """E[pi_k xi'xi] and E[pi_k Var(Y_k|xi) xi'xi] against numpy on the same nodes."""
    kern = rule_kernel(rule, pts @ model.true_theta.T)
    if kern is None:
        return []
    pi = kern[0]
    W = _fisher_weights(model, model.true_theta, pts)
    var = np.where([arm.family == "logistic" for arm in model.arms], W, 1.0 / W)
    info_x = np.einsum("n,nk,ni,nj->kij", w, pi, pts, pts)
    info_y = np.einsum("n,nk,ni,nj->kij", w, pi * var, pts, pts)
    return (close(f"{label} sandwich E[pi xx']", lse.info_x, info_x)
            + close(f"{label} sandwich E[pi Var xx']", lse.info_y, info_y))


def check_plugin(rep, history, model, rule, label: str) -> list[str]:
    """Plug-in dg and I_k against sample averages over the history's rows."""
    n = history.n
    X, arms = history.covariates[:n], history.arms[:n]
    theta = np.asarray(history.current_theta)
    kern = rule_kernel(rule, X @ theta.T)
    out: list[str] = []
    if kern is not None:
        out += close(f"{label} plug-in dg", rep.dg_hat, _jac(kern[1], X).mean(axis=0), 1e-9)
    W = _fisher_weights(model, theta, X)[np.arange(n), arms]
    for k in range(model.K):
        mask = arms == k
        info_k = (X[mask] * W[mask, None]).T @ X[mask] / n
        out += close(f"{label} plug-in I_{k + 1}", rep.info_hat[k], info_k, 1e-9)
    return out


def tensor_quadrature_v(model, rule, nodes_per_dim: int = 12) -> np.ndarray:
    """v by tensor Gauss-Legendre over (1, U(lo, hi)...) covariates."""
    gx, gw = np.polynomial.legendre.leggauss(nodes_per_dim)
    coords = model.covariates.coords
    grids = [np.array([c.value]) if not hasattr(c, "lo") else 0.5 * (c.lo + c.hi) + 0.5 * (c.hi - c.lo) * gx
             for c in coords]
    weights = [np.array([1.0]) if not hasattr(c, "lo") else 0.5 * gw for c in coords]
    pts = np.stack([g.ravel() for g in np.meshgrid(*grids, indexing="ij")], axis=1)
    w = np.prod(np.stack([g.ravel() for g in np.meshgrid(*weights, indexing="ij")], axis=1), axis=1)
    return w @ rule_kernel(rule, pts @ model.true_theta.T)[0]


def check_monte_carlo(got: dict, model, rule, label: str, z: float = 5.0) -> list[str]:
    ref = tensor_quadrature_v(model, rule)
    dev = float(np.max(np.abs(got["v"] - ref)))
    se = got["stderr"]
    if se is None or dev > z * se:
        return [f"{label}: Monte Carlo v off the quadrature value by {dev:.3e} (stderr {se})"]
    return []


# ---------------------------------------------------------------------------
# Estimation and replicate statistics
# ---------------------------------------------------------------------------


def newton_logistic(X: np.ndarray, y: np.ndarray, iters: int = 100) -> np.ndarray:
    beta = np.zeros(X.shape[1])
    for _ in range(iters):
        p = expit(X @ beta)
        step = np.linalg.solve((X * (p * (1.0 - p))[:, None]).T @ X, X.T @ (y - p))
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13:
            break
    return beta


def check_interior_mle(history, model, label: str) -> list[str]:
    """Each interior arm's final estimate is the MLE on that arm's own rows."""
    out: list[str] = []
    n = history.n
    for k in range(model.K):
        th = history.current_theta[k]
        if not (np.all(th > model.box_lo[k]) and np.all(th < model.box_hi[k])):
            continue
        mask = history.arms[:n] == k
        ref = newton_logistic(history.covariates[:n][mask], history.responses[:n][mask])
        out += close(f"{label} arm {k + 1} estimate vs Newton", th, ref, 1e-6)
    return out


def check_replicate_stats(report: dict, label: str, alloc_var: float, mu_var: float | None = None,
                          alloc_spread: bool = True) -> list[str]:
    """Allocation mean and variance ratios in bands derived from R and the limit theory.

    The variance band is the chi-square interval at two-sided level 1e-4 for
    R - 1 degrees of freedom, widened by the 15% the gate allows for finite
    n; the mean band is 4.5 standard errors plus the gate's 0.09.
    """
    from scipy.stats import chi2  # imported here: it is slow to import and only the gate uses it

    out: list[str] = []
    R = int(report["replicates"]) - len(report["failures"])
    emp = report["empirical"]
    lo = chi2.ppf(5e-5, R - 1) / (R - 1) / 1.15
    hi = chi2.ppf(1.0 - 5e-5, R - 1) / (R - 1) * 1.15
    mean = matrix(emp["alloc_dev_mean"])[0]
    if abs(mean) > 4.5 * np.sqrt(alloc_var / R) + 0.09:
        out.append(f"{label}: allocation mean deviation {mean:.3f} outside its band")
    ratios = [("allocation", matrix(emp["alloc_dev_cov"])[0, 0] / alloc_var)] if alloc_spread else []
    if mu_var is not None:
        ratios.append(("mu_1", matrix(emp["theta_dev_cov"])[0, 0] / mu_var))
    for name, ratio in ratios:
        if not lo <= ratio <= hi:
            out.append(f"{label}: {name} variance ratio {ratio:.3f} outside [{lo:.3f}, {hi:.3f}]")
    return out


def check_csv_counts(csv_text: str, K: int, n: int, label: str) -> list[str]:
    """Every replicate row's arm counts sum to n."""
    rows = [line.split(",") for line in csv_text.strip().splitlines()[1:]]
    bad = [r[0] for r in rows if sum(int(c) for c in r[2:2 + K]) != n]
    return [f"{label}: replicates {bad} have counts not summing to {n}"] if bad else []


def check_same_trial(a, b, label: str) -> list[str]:
    """Two histories are bit-for-bit the same trial."""
    out = []
    for name in ("arms", "responses", "probs", "covariates", "current_theta"):
        x, y = np.asarray(getattr(a, name)), np.asarray(getattr(b, name))
        if x.shape != y.shape or not np.array_equal(x, y):
            out.append(f"{label}: {name} differs")
    return out
