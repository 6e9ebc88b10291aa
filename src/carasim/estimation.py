"""Per-arm maximum likelihood / least squares with box-clamped estimates.

Logistic fits run on one core, :func:`fit_logistic_cells`: Newton's method
(IRLS) with step halving, so the log-likelihood never decreases along the
iteration, for C independent cells at once.  Cell c owns a segment of
consecutive rows of one (N, d) block (covariate points, trial counts and
successes), so cells of any sizes share one array program.  Every sum over a
cell's rows is an ``np.add.reduceat`` over its own segment and every other
step is elementwise, so a cell's fit gives the same bits whatever cells
share the call; each cell stops by its own tests (gradient, step, iteration
limit, singular system) and the rows of the cells still iterating are
gathered again.  A batch of one calls the same arithmetic helpers but reads
its tests off its one cell, without the live-cell masks.
``fit_grouped_logistic_mle`` (binomial counts at distinct points) is that
batch of one, and the rowwise ``fit_logistic_mle`` the unit-trial case of
it.  The engine refits all its logistic cells of one patient in one call.

Normal-linear arms are fitted by the normal equations.  Final estimates are
always clamped coordinatewise into the arm's parameter box; ``projected``
records whether the clamp moved the point.  With
``check_conditioning=False`` (the engine's refits) IRLS skips its
condition-number guard on the Hessian; an exactly singular system still
ends the fit as singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

__all__ = [
    "ArmSample",
    "FitResult",
    "EstimationError",
    "EmptySampleError",
    "fit_logistic_mle",
    "fit_grouped_logistic_mle",
    "fit_logistic_cells",
    "CellFits",
    "fit_linear_lse",
]

# Machine-readable failure reasons carried on non-converged fits.
SINGULAR_HESSIAN = "singular-hessian"
DEGENERATE_DESIGN = "degenerate-design"
MAX_ITERATIONS = "max-iterations"


class EstimationError(Exception):
    pass


class EmptySampleError(EstimationError):
    pass


@dataclass(frozen=True)
class ArmSample:
    """Design rows and responses observed on one arm."""

    X: np.ndarray  # (n, d)
    y: np.ndarray  # (n,)

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.X, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"X has {X.shape[0]} rows but y has {y.shape[0]} entries")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]


# IRLS converges when the gradient's or the Newton step's largest component
# falls to its tolerance, and gives up after _MAX_ITER iterations; a step is
# halved at most _MAX_HALVINGS times to keep the log-likelihood from
# decreasing.  A matrix whose condition number exceeds COND_MAX is singular;
# with ``check_conditioning`` an IRLS Hessian that is not finite or that
# exceeds it ends the fit as singular.
_GRAD_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITER = 100
_MAX_HALVINGS = 30
COND_MAX = 1e12


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single-arm fit; ``reason`` is empty on success."""

    theta_hat: np.ndarray
    converged: bool
    projected: bool
    iterations: int
    reason: str = ""


def _check_box(lo: np.ndarray, hi: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    lo = np.asarray(lo, dtype=float).ravel()
    hi = np.asarray(hi, dtype=float).ravel()
    if lo.shape != (d,) or hi.shape != (d,):
        raise ValueError(f"box bounds must have shape ({d},)")
    if not np.all(lo < hi):
        raise ValueError("box needs lo < hi coordinatewise")
    return lo, hi


def _clamp(theta: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, bool]:
    clipped = np.clip(theta, lo, hi)
    return clipped, bool(np.any(clipped != theta))


def solve_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every system ``A[i] x = b[i]`` of a stack, (C, d, d) and (C, d).

    A singular system gives a row of NaN.  ``np.linalg.solve`` fails the
    whole stack when one system is singular; the systems are then solved one
    by one, which gives the same bits for every regular one.
    """
    try:
        if A.shape[0] == 1:
            return np.linalg.solve(A[0], b[0])[None]
        return np.linalg.solve(A, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        for i in range(A.shape[0]):
            try:
                x[i] = np.linalg.solve(A[i], b[i])
            except np.linalg.LinAlgError:
                pass
        return x


@dataclass(frozen=True)
class CellFits:
    """Logistic fits of C cells by :func:`fit_logistic_cells`, one row per cell."""

    theta: np.ndarray  # (C, d) estimates, clamped to each cell's box
    converged: np.ndarray  # (C,) bool
    projected: np.ndarray  # (C,) bool
    iterations: np.ndarray  # (C,) int
    singular: np.ndarray  # (C,) bool: the fit ended on a singular Newton system

    def result(self, c: int) -> FitResult:
        """Cell ``c``'s fit."""
        converged = bool(self.converged[c])
        reason = (SINGULAR_HESSIAN if self.singular[c]
                  else "" if converged else MAX_ITERATIONS)
        return FitResult(theta_hat=self.theta[c], converged=converged,
                         projected=bool(self.projected[c]),
                         iterations=int(self.iterations[c]), reason=reason)


# The arithmetic of an IRLS step, shared by a batch of cells and a batch of
# one.  Xt (d, N) holds the rows' covariates, XX (d * d, N) their products
# x_i x_j in row-major order, and Z (d + d * d, N) is scratch space; a cell's
# rows are one segment, starting at ``starts``.  Every sum over a cell's rows
# is an ``np.add.reduceat`` over its own segment and every other operation is
# elementwise.

def _design(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Xt, XX and Z for the rows X (N, d)."""
    Xt = np.ascontiguousarray(X.T)
    d, N = Xt.shape
    return Xt, (Xt[:, None] * Xt[None]).reshape(d * d, N), np.empty((d + d * d, N))


def _segments(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First row of each cell, and each row's cell."""
    return np.cumsum(sizes) - sizes, np.repeat(np.arange(sizes.size), sizes)


def _row_sums(P: np.ndarray) -> np.ndarray:
    """Each column's sum of the (d, N) block P, added row after row."""
    # A reduction over the first axis of a (d, N > 1) block adds row after
    # row; numpy sums a single contiguous run pairwise instead, so a (d, 1)
    # block is added row by row here.
    if P.shape[1] > 1:
        return np.add.reduce(P, axis=0)
    total = P[0].copy()
    for j in range(1, P.shape[0]):
        total += P[j]
    return total


def _loglik(mu, t, s, starts) -> np.ndarray:
    """Each cell's log-likelihood at the linear predictors ``mu`` of its rows."""
    lae = np.logaddexp(0.0, mu)
    return np.add.reduceat(s * mu - (lae if t is None else t * lae), starts)


def _newton_sums(Xt, XX, Z, t, s, mu, starts) -> np.ndarray:
    """Each cell's gradient (d rows) and Hessian terms (d * d rows, row-major)."""
    d = Xt.shape[0]
    p = expit(mu)
    tp = p if t is None else t * p
    np.multiply(Xt, s - tp, out=Z[:d])
    np.multiply(XX, tp * (1.0 - p), out=Z[d:])
    return np.add.reduceat(Z, starts, axis=1)


def _ill_conditioned(H: np.ndarray) -> np.ndarray:
    """Which of the (C, d, d) matrices are not finite or exceed ``COND_MAX``."""
    out = ~np.isfinite(H).all(axis=(1, 2))
    if not out.all():
        out[~out] = np.linalg.cond(H[~out]) > COND_MAX
    return out


_ONE_CELL = np.zeros(1, dtype=np.intp)


def _fit_one(X, t, s, lo, hi, init, check_conditioning) -> CellFits:
    """The batch of one of :func:`fit_logistic_cells`: the same arithmetic, with
    each test read off the one cell instead of masks over live cells."""
    d = init.size
    Xt, XX, Z = _design(X)
    theta, converged, singular = init, False, False
    mu = _row_sums(Xt * theta[:, None])
    ll = _loglik(mu, t, s, _ONE_CELL)[0]
    for it in range(1, _MAX_ITER + 1):
        sums = _newton_sums(Xt, XX, Z, t, s, mu, _ONE_CELL)[:, 0]
        if np.abs(sums[:d]).max() <= _GRAD_TOL:
            converged, it = True, it - 1
            break
        H = sums[d:].reshape(1, d, d)
        delta = solve_stack(H, sums[None, :d])[0]
        dmax = np.abs(delta).max()
        if not math.isfinite(dmax) or (check_conditioning and _ill_conditioned(H)[0]):
            singular = True
            break
        # Step halving, as in fit_logistic_cells (1.0 * delta is delta).
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = theta + scale * delta
            mu_c = _row_sums(Xt * cand[:, None])
            ll_c = _loglik(mu_c, t, s, _ONE_CELL)[0]
            if ll_c >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            scale, cand, mu_c, ll_c = 0.0, theta, mu, ll
        theta, mu, ll = cand, mu_c, ll_c
        if scale * dmax <= _STEP_TOL:
            converged = True
            break
    raw = init if singular else theta
    clipped = np.minimum(np.maximum(raw, lo), hi)
    return CellFits(theta=clipped[None], converged=np.array([converged]),
                    projected=np.array([(clipped != raw).any()]),
                    iterations=np.array([it]), singular=np.array([singular]))


def fit_logistic_cells(X: np.ndarray, trials: np.ndarray | None, successes: np.ndarray,
                       sizes: np.ndarray, lo: np.ndarray, hi: np.ndarray, init: np.ndarray,
                       check_conditioning: bool = False) -> CellFits:
    """IRLS for C independent logistic fits at once.

    Cell c owns ``sizes[c]`` consecutive rows of ``X`` (N, d), ``trials``
    (None: one trial per row) and ``successes`` (N,), after the rows of the
    cells before it; ``lo``, ``hi`` and ``init`` are (C, d).  Every sum over
    a cell's rows is an ``np.add.reduceat`` over the cell's own segment of a
    (terms, N) block and every other operation is elementwise, so each cell's
    fit takes the same floating-point steps, and gives the same bits,
    whatever cells share the call.  A cell leaves the iteration when it
    converges, when its Newton system is singular or not finite, or after
    ``_MAX_ITER`` iterations; the rows of the cells still iterating are then
    gathered again.  A batch of one runs the same steps without the masks.
    """
    C, d = init.shape
    if C == 1:
        return _fit_one(X, trials, successes, lo[0], hi[0], init[0], check_conditioning)
    raw = np.array(init, dtype=float)  # each cell's unclamped result
    converged, singular = np.zeros((2, C), dtype=bool)
    iterations = np.zeros(C, dtype=int)

    # The cells still iterating, with their rows and iterates.
    live = np.arange(C)
    sizes = np.asarray(sizes, dtype=np.intp)
    starts, seg = _segments(sizes)
    Xt, XX, Z = _design(X)
    t, s = trials, successes
    theta = init

    def leave(out, count, flag, values=None):
        """Record the cells flagged in ``out`` as finished after ``count``
        iterations, with ``values`` as their estimates (by default their
        initial value); returns the mask of the cells that go on, or None
        when none does."""
        nonlocal live, sizes, starts, seg, Xt, XX, Z, t, s, theta, mu, ll
        last = out.all()
        done = live if last else live[out]
        flag[done] = True
        iterations[done] = count
        if values is not None:
            raw[done] = values if last else values[out]
        if last:
            return None
        keep = ~out
        rows = keep[seg]
        live, sizes, theta, mu, ll = live[keep], sizes[keep], theta[keep], mu[rows], ll[keep]
        starts, seg = _segments(sizes)
        Xt, XX, s = Xt[:, rows], XX[:, rows], s[rows]
        t = None if t is None else t[rows]
        Z = np.empty((Z.shape[0], Xt.shape[1]))
        return keep

    mu = _row_sums(Xt * theta.T[:, seg])
    ll = _loglik(mu, t, s, starts)
    for it in range(1, _MAX_ITER + 1):
        sums = _newton_sums(Xt, XX, Z, t, s, mu, starts)
        gmax = np.abs(sums[:d]).max(axis=0)
        if np.fmin.reduce(gmax) <= _GRAD_TOL:
            keep = leave(gmax <= _GRAD_TOL, it - 1, converged, theta)
            if keep is None:
                break
            sums = sums[:, keep]
        H = sums[d:].T.reshape(-1, d, d)
        delta = solve_stack(H, sums[:d].T)
        # The largest step component; not finite when the system is singular.
        dmax = np.abs(delta).max(axis=1)
        out = ~np.isfinite(dmax)
        if check_conditioning:
            out |= _ill_conditioned(H)
        if out.any():
            keep = leave(out, it, singular)
            if keep is None:
                break
            delta, dmax = delta[keep], dmax[keep]
        # Step halving: a cell whose log-likelihood would fall below its
        # current value halves its step, at most _MAX_HALVINGS times, and
        # otherwise stays where it is.
        cand = theta + delta
        mu_c = _row_sums(Xt * cand.T[:, seg])
        ll_c = _loglik(mu_c, t, s, starts)
        floor = ll - 1e-12
        ok = ll_c >= floor
        if not ok.all():
            scale = np.ones(live.size)
            for _ in range(1, _MAX_HALVINGS):
                scale[~ok] *= 0.5
                retry = theta + scale[:, None] * delta
                mu_r = _row_sums(Xt * retry.T[:, seg])
                ll_r = _loglik(mu_r, t, s, starts)
                redo = ~ok[seg]
                cand[~ok], ll_c[~ok], mu_c[redo] = retry[~ok], ll_r[~ok], mu_r[redo]
                ok = ll_c >= floor
                if ok.all():
                    break
            else:
                redo = ~ok[seg]
                scale[~ok] = 0.0
                cand[~ok], ll_c[~ok], mu_c[redo] = theta[~ok], ll[~ok], mu[redo]
            dmax = scale * dmax
        theta, mu, ll = cand, mu_c, ll_c
        if np.fmin.reduce(dmax) <= _STEP_TOL and leave(dmax <= _STEP_TOL, it, converged,
                                                       theta) is None:
            break
    else:
        iterations[live] = _MAX_ITER
        raw[live] = theta

    clipped = np.minimum(np.maximum(raw, lo), hi)
    return CellFits(theta=clipped, converged=converged,
                    projected=np.any(clipped != raw, axis=1),
                    iterations=iterations, singular=singular)


def fit_grouped_logistic_mle(points: np.ndarray, trials: np.ndarray,
                             successes: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                             init: np.ndarray | None = None,
                             check_conditioning: bool = True) -> FitResult:
    """Logistic MLE from binomial counts at distinct covariate points: the
    batch of one of :func:`fit_logistic_cells`."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.asarray(trials, dtype=float).ravel()
    s = np.asarray(successes, dtype=float).ravel()
    if X.shape[0] != t.shape[0] or X.shape[0] != s.shape[0]:
        raise ValueError("points, trials and successes must have matching lengths")
    if t.sum() <= 0.0:
        raise EmptySampleError("logistic fit requires at least one observation")
    d = X.shape[1]
    lo, hi = _check_box(lo, hi, d)
    if init is None:
        init = 0.5 * (lo + hi)
    else:
        init = np.asarray(init, dtype=float).ravel()
        if init.shape != (d,):
            raise ValueError(f"init must have shape ({d},)")
        if (init < lo).any() or (init > hi).any():
            raise ValueError("init must lie inside the box")
    fits = fit_logistic_cells(X, None if np.all(t == 1.0) else t, s, np.array([X.shape[0]]),
                              lo[None], hi[None], init[None], check_conditioning=check_conditioning)
    return fits.result(0)


def fit_logistic_mle(sample: ArmSample, lo: np.ndarray, hi: np.ndarray,
                     init: np.ndarray | None = None) -> FitResult:
    """Logistic MLE on per-observation rows (binary y)."""
    if sample.n == 0:
        raise EmptySampleError("logistic fit requires at least one observation")
    return fit_grouped_logistic_mle(sample.X, np.ones(sample.n), sample.y, lo, hi, init=init)


def fit_linear_lse(sample: ArmSample, lo: np.ndarray, hi: np.ndarray) -> FitResult:
    """Least squares by the normal equations; degenerate designs fail soft."""
    if sample.n == 0:
        raise EmptySampleError("least-squares fit requires at least one observation")
    d = sample.X.shape[1]
    lo, hi = _check_box(lo, hi, d)
    A = sample.X.T @ sample.X
    degenerate = FitResult(theta_hat=0.5 * (lo + hi), converged=False, projected=False,
                           iterations=0, reason=DEGENERATE_DESIGN)
    if sample.n < d or np.linalg.cond(A) > COND_MAX:
        return degenerate
    try:
        theta = np.linalg.solve(A, sample.X.T @ sample.y)
    except np.linalg.LinAlgError:
        return degenerate
    theta_c, projected = _clamp(theta, lo, hi)
    return FitResult(theta_hat=theta_c, converged=True, projected=projected, iterations=1)
