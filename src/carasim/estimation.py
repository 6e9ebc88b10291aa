"""Per-arm maximum likelihood and least squares.

Logistic fits run on one core, :func:`fit_logistic_cells`: Newton's method
(IRLS) with step halving, so the log-likelihood never decreases along the
iteration, for C independent cells at once.  The rows come as one
(1 + d, N) block, the successes and then the covariates, in the layout the
engine keeps them (trial counts, for grouped rows, come beside it); cell c
owns a segment of consecutive columns, so cells of any sizes share one array
program, and each fit builds the products x_i x_j once.  Every sum over a
cell's rows is an ``np.add.reduceat`` over its own segment and every other
step is elementwise, so a cell's fit gives the same bits whatever cells
share the call; each cell stops by its own tests (gradient, step, iteration
limit, singular system), and the columns of the cells still iterating are
kept by one ``np.compress`` of the block.  One cell, :func:`fit_one_cell`,
calls the same arithmetic helpers but reads its tests off its one cell,
without the live-cell masks, on Python floats (where NaN and inf end a fit
as numpy's reductions end it in the batch).  The engine refits the logistic
cells of one patient in one call of ``fit_logistic_cells``, and a single
cell by ``fit_one_cell``, which is also the standalone
``fit_grouped_logistic_mle`` (binomial counts at distinct points) and its
unit-trial case, the rowwise ``fit_logistic_mle``.

The log-likelihood serves step halving alone (a candidate is kept when its
cell's value does not fall); no output stores it.  :func:`_loglik` takes
each row's softplus log(1 + e^mu) as ``np.log1p(np.exp(mu))``, on numpy's
SIMD loops, within a few ulp of the scalar ``np.logaddexp(0, mu)``.  Where
``exp`` overflows (mu > 709.78, which Newton candidates of tiny separated
cells reach), log(1 + e^mu) rounds to mu, and the row takes mu, the value
``logaddexp`` gives: only a cell sum that is not finite sends the call to
that fix, which replaces the overflowed rows alone, so a row's value
depends on its own mu and a cell's on its own rows.

Newton systems are solved by :func:`solve_stack`, one call of numpy's
private LAPACK gufunc behind ``np.linalg.solve``; a singular system gives a
row of NaN, which ends its cell's fit as singular.  Every fit call enters
:func:`solve_errstate` once, not once per Newton step (``fit_logistic_cells``,
``fit_grouped_logistic_mle``, and the engine's patient loop around
``fit_one_cell``).  ``test_solve_stack_is_numpys_solve_system_by_system``
pins the gufunc, verified on numpy 2.4.6.

Normal-linear arms are fitted by the normal equations, solved by
``solve_stack`` as the engine solves them.  The logistic cores return
unclipped estimates (a singular fit its start): the parameter box, the
``projected`` flag and the failure rule belong to the caller.  The
standalone fits clamp into the arm's box and report ``projected`` when
that moved the estimate.  Only a standalone fit guards IRLS by the
condition number of its Hessian (``fit_one_cell``'s ``check_conditioning``,
which ``fit_grouped_logistic_mle`` always sets, starting from the box
midpoint); the engine's refits and every batched fit do not, and there an
exactly singular system still ends the fit as singular.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import solve1 as _solve1
from scipy.special import expit

from .allocation import fold_columns

__all__ = [
    "ArmSample",
    "FitResult",
    "EmptySampleError",
    "fit_logistic_mle",
    "fit_grouped_logistic_mle",
    "fit_logistic_cells",
    "fit_linear_lse",
]

# Machine-readable failure reasons carried on non-converged fits.
SINGULAR_HESSIAN = "singular-hessian"
DEGENERATE_DESIGN = "degenerate-design"
MAX_ITERATIONS = "max-iterations"


class EmptySampleError(ValueError):
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
# with ``check_conditioning`` (fit_one_cell) an IRLS Hessian that is not
# finite or that exceeds it ends the fit as singular.
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


def solve_errstate() -> np.errstate:
    """The floating-point error state that ``np.linalg.solve`` enters around
    its LAPACK gufunc (invalid, overflow, divide-by-zero and underflow
    ignored), without its hook that raises on a singular system.  Every fit
    entry point enters it once per fit call, and the engine's patient loop
    once per call, so that :func:`solve_stack` reports a singular system by
    NaN alone."""
    return np.errstate(invalid="ignore", over="ignore", divide="ignore", under="ignore")


def solve_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve every system ``A[i] x = b[i]`` of a float stack, (C, d, d) and
    (C, d); one system, (d, d) and (d,), gives (d,).

    One call of ``_solve1``, the gufunc that ``np.linalg.solve`` wraps
    (LAPACK ``gesv`` on each system in turn), so every regular system gives
    the bits that ``np.linalg.solve`` gives on it alone.  A system that
    LAPACK finds singular gets a row of NaN within the same call, and the
    call raises the invalid-value flag: run it under :func:`solve_errstate`,
    as the fits and the engine do, or numpy warns.  ``_solve1`` is private
    to numpy and verified on numpy 2.4.6;
    ``test_solve_stack_is_numpys_solve_system_by_system`` fails if a release
    changes what it gives.
    """
    return _solve1(A, b)


# The arithmetic of an IRLS step, shared by a batch of cells and a batch of
# one.  A cell's rows are one segment of columns, starting at ``starts``, of a
# (1 + d, N) block of rows: the successes, then the covariates.  A fit builds
# the products x_i x_j once per call (:func:`_products`: m = d (d + 1) / 2
# rows, i <= j), and Z (d + m, N) is scratch space.  Every sum over a cell's
# rows is an ``np.add.reduceat`` over its own segment and every other
# operation is elementwise.

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
    """Each cell's log-likelihood at the linear predictors ``mu`` of its rows,
    with the softplus and its overflow rule of the module docstring; runs
    under :func:`solve_errstate` (``exp`` may overflow)."""
    softplus = np.exp(mu)
    np.log1p(softplus, out=softplus)
    ll = np.add.reduceat(s * mu - (softplus if t is None else t * softplus), starts)
    # An overflowed row makes its cell's sum -inf or NaN; the Python sum is
    # the cheapest test of every cell.
    if not math.isfinite(sum(ll.tolist())):
        np.copyto(softplus, mu, where=np.isinf(softplus))
        ll = np.add.reduceat(s * mu - (softplus if t is None else t * softplus), starts)
    return ll


def _products(Xt: np.ndarray, out: np.ndarray) -> None:
    """The products x_i x_j, i <= j, of the covariate rows ``Xt`` (d, N) into
    ``out`` (m, N), row-major over the upper triangle.  x_j x_i is the same
    number, so both Hessian entries of a pair read one sum
    (:func:`_hessian_rows`)."""
    d, r = Xt.shape[0], 0
    for i in range(d):
        np.multiply(Xt[i], Xt[i:], out=out[r:r + d - i])
        r += d - i


@functools.cache
def _hessian_rows(d: int) -> np.ndarray:
    """The row of :func:`_newton_sums` that holds each Hessian entry, (d, d)."""
    tri = np.zeros((d, d), dtype=np.intp)
    tri[np.triu_indices(d)] = np.arange(d, d + d * (d + 1) // 2)
    rows = np.maximum(tri, tri.T)
    rows.setflags(write=False)  # one array serves every fit
    return rows


def _newton_sums(Xt, XX, Z, t, s, mu, starts) -> np.ndarray:
    """Each cell's gradient (d rows) and Hessian terms (m rows, the products
    ``XX`` of :func:`_products`)."""
    d = Xt.shape[0]
    p = expit(mu)
    tp = p if t is None else t * p
    np.multiply(Xt, s - tp, out=Z[:d])
    np.multiply(XX, tp * (1.0 - p), out=Z[d:])
    return np.add.reduceat(Z, starts, axis=1)


_ONE_CELL = np.zeros(1, dtype=np.intp)

# The tests of the batched loop reduce by the ufuncs' ``reduce``: the same
# reductions as ``ndarray.max``, ``.any`` and ``.all`` without their Python
# wrappers.  The one-cell loop reads its d-vectors as Python floats, cheaper
# than one reduction of a few entries.


def _vector_max(v: list) -> float:
    """``np.maximum.reduce(np.abs(v))`` of the floats ``v`` where that is
    finite, else NaN or inf: Python's ``max`` drops a NaN after the first
    entry, so a NaN sum (a NaN entry, or inf - inf) gives NaN."""
    top = max(map(abs, v))
    return math.nan if math.isnan(sum(v)) else top


def fit_one_cell(rows, t, init, check_conditioning):
    """The batch of one of :func:`fit_logistic_cells`: the same arithmetic, with
    each test read off the one cell instead of masks over live cells.
    ``rows`` (1 + d, N) holds the successes and the covariates and ``t`` the
    trials (None: one per row).  Returns the unclipped estimate (d,) (the
    start, when the fit is singular), converged, iterations and singular;
    runs under :func:`solve_errstate`.  With ``check_conditioning`` (the standalone
    fits) a Hessian that is not finite or whose condition number exceeds
    ``COND_MAX`` also ends the fit as singular."""
    d = init.size
    s, Xt = rows[0], rows[1:]
    N = Xt.shape[1]
    m, hessian = d * (d + 1) // 2, _hessian_rows(d)
    XX = np.empty((m, N))
    _products(Xt, XX)
    Z = np.empty((d + m, N))
    theta, converged, singular = init, False, False
    mu = _row_sums(Xt * theta[:, None])
    ll = _loglik(mu, t, s, _ONE_CELL).item()  # log-likelihoods compare as Python floats
    for it in range(1, _MAX_ITER + 1):
        sums = _newton_sums(Xt, XX, Z, t, s, mu, _ONE_CELL)[:, 0]
        if _vector_max(sums[:d].tolist()) <= _GRAD_TOL:
            converged, it = True, it - 1
            break
        H = sums[hessian]
        delta = solve_stack(H, sums[:d])
        dmax = _vector_max(delta.tolist())
        if not math.isfinite(dmax) or (check_conditioning and not (
                np.isfinite(H).all() and np.linalg.cond(H) <= COND_MAX)):
            singular = True
            break
        # Step halving, as in fit_logistic_cells (1.0 * delta is delta).
        scale, cand = 1.0, theta + delta
        for _ in range(_MAX_HALVINGS):
            mu_c = _row_sums(Xt * cand[:, None])
            ll_c = _loglik(mu_c, t, s, _ONE_CELL).item()
            if ll_c >= ll - 1e-12:
                break
            scale *= 0.5
            cand = theta + scale * delta
        else:
            scale, cand, mu_c, ll_c = 0.0, theta, mu, ll
        theta, mu, ll = cand, mu_c, ll_c
        if scale * dmax <= _STEP_TOL:
            converged = True
            break
    return init if singular else theta, converged, it, singular


@solve_errstate()
def fit_logistic_cells(rows: np.ndarray, trials: np.ndarray | None, sizes: np.ndarray,
                       init: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """IRLS for C independent logistic fits at once.

    Cell c owns ``sizes[c]`` consecutive columns of ``rows`` (1 + d, N: the
    successes, then the covariates) and of ``trials`` (None: one trial per
    row), after the columns of the cells before it; ``init`` is (C, d).
    Every sum over a cell's rows is an ``np.add.reduceat`` over the cell's
    own segment of a (terms, N) block and every other operation is
    elementwise, so each cell's fit takes the same floating-point steps, and
    gives the same bits, whatever cells share the call.  A cell leaves the
    iteration when it converges, when its Newton system is singular or not
    finite (the :func:`solve_stack` row of a singular system is NaN), or
    after ``_MAX_ITER`` iterations; the columns of the cells still iterating
    are then kept by one ``np.compress`` of the block that holds their rows,
    products and trials.  :func:`fit_one_cell` takes the same steps on one
    cell without the masks.  Returns per cell the unclipped estimate (a
    singular cell's start), converged, iterations and singular.  The call
    runs under :func:`solve_errstate`, entered once whatever the number of
    Newton steps.
    """
    C, d = init.shape
    raw = np.array(init, dtype=float)  # each cell's unclamped result
    converged, singular = np.zeros((2, C), dtype=bool)
    iterations = np.zeros(C, dtype=int)

    # The cells still iterating, with their columns of one block (successes,
    # covariates, products x_i x_j and trials), their rows' linear
    # predictors, and their iterates.
    live = np.arange(C)
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = sizes.cumsum() - sizes
    N = rows.shape[1]
    dd = 1 + d + d * (d + 1) // 2
    block = np.empty((dd + (trials is not None), N))
    block[:1 + d] = rows
    _products(rows[1:], block[1 + d:dd])
    if trials is not None:
        block[dd] = trials
    s, Xt, XX, t = block[0], block[1:1 + d], block[1 + d:dd], None if trials is None else block[dd]
    Z = np.empty((dd - 1, N))
    hessian = _hessian_rows(d)
    theta = init

    def leave(out, count, flag, values=None):
        """Record the cells flagged in ``out`` as finished after ``count``
        iterations, with ``values`` as their estimates (by default their
        initial value); returns the mask of the cells that go on, or None
        when none does."""
        nonlocal live, sizes, starts, block, s, Xt, XX, t, Z, theta, mu, ll
        last = np.logical_and.reduce(out)
        done = live if last else live[out]
        flag[done] = True
        iterations[done] = count
        if values is not None:
            raw[done] = values if last else values[out]
        if last:
            return None
        keep = ~out
        columns = keep.repeat(sizes)
        live, sizes, theta, ll = live[keep], sizes[keep], theta[keep], ll[keep]
        starts = sizes.cumsum() - sizes
        block = block.compress(columns, axis=1)
        mu = mu.compress(columns)
        s, Xt, XX = block[0], block[1:1 + d], block[1 + d:dd]
        t = None if t is None else block[dd]
        Z = np.empty((Z.shape[0], block.shape[1]))
        return keep

    mu = _row_sums(Xt * theta.T.repeat(sizes, axis=1))
    ll = _loglik(mu, t, s, starts)
    for it in range(1, _MAX_ITER + 1):
        sums = _newton_sums(Xt, XX, Z, t, s, mu, starts)
        gmax = fold_columns(np.maximum, np.abs(sums[:d].T))
        if np.fmin.reduce(gmax) <= _GRAD_TOL:
            keep = leave(gmax <= _GRAD_TOL, it - 1, converged, theta)
            if keep is None:
                break
            sums = sums[:, keep]
        H = sums.T.take(hessian, axis=1)
        delta = solve_stack(H, sums[:d].T)
        # The largest step component; not finite when the system is singular
        # (a sum that is finite has no such component).
        dmax = fold_columns(np.maximum, np.abs(delta))
        if not math.isfinite(np.add.reduce(dmax)):
            out = ~np.isfinite(dmax)
            if np.logical_or.reduce(out):
                keep = leave(out, it, singular)
                if keep is None:
                    break
                delta, dmax = delta[keep], dmax[keep]
        # Step halving, as in fit_one_cell: a cell whose log-likelihood would
        # fall halves its step, at most _MAX_HALVINGS times, or else stays where
        # it is; a cell that stopped halving recomputes the same bits.
        scale, cand, floor = 1.0, theta + delta, ll - 1e-12
        for _ in range(_MAX_HALVINGS):
            mu_c = _row_sums(Xt * cand.T.repeat(sizes, axis=1))
            ll_c = _loglik(mu_c, t, s, starts)
            ok = ll_c >= floor
            if np.logical_and.reduce(ok):
                break
            scale = np.where(ok, scale, 0.5 * scale)
            cand = theta + scale[:, None] * delta
        else:
            scale[~ok] = 0.0
            cand[~ok], ll_c[~ok] = theta[~ok], ll[~ok]
            np.copyto(mu_c, mu, where=(~ok).repeat(sizes))
        theta, mu, ll = cand, mu_c, ll_c
        dmax = scale * dmax
        if np.fmin.reduce(dmax) <= _STEP_TOL and leave(dmax <= _STEP_TOL, it, converged,
                                                       theta) is None:
            break
    else:
        iterations[live] = _MAX_ITER
        raw[live] = theta
    return raw, converged, iterations, singular


def fit_grouped_logistic_mle(points: np.ndarray, trials: np.ndarray,
                             successes: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> FitResult:
    """Logistic MLE from binomial counts at distinct covariate points, by
    :func:`fit_one_cell` (the engine's one-cell refit) from the box
    midpoint, with the conditioning guard on."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    t = np.asarray(trials, dtype=float).ravel()
    s = np.asarray(successes, dtype=float).ravel()
    if X.shape[0] != t.shape[0] or X.shape[0] != s.shape[0]:
        raise ValueError("points, trials and successes must have matching lengths")
    if t.sum() <= 0.0:
        raise EmptySampleError("logistic fit requires at least one observation")
    d = X.shape[1]
    lo, hi = _check_box(lo, hi, d)
    # The core's block, in C order: ``np.vstack`` of X.T would keep X's
    # layout, and every op of the fit would run along strided rows.
    rows = np.empty((1 + d, X.shape[0]))
    rows[0], rows[1:] = s, X.T
    with solve_errstate():
        raw, converged, iterations, singular = fit_one_cell(
            rows, None if np.all(t == 1.0) else t, 0.5 * (lo + hi), True)
    theta, projected = _clamp(raw, lo, hi)
    reason = SINGULAR_HESSIAN if singular else "" if converged else MAX_ITERATIONS
    return FitResult(theta_hat=theta, converged=converged, projected=projected,
                     iterations=iterations, reason=reason)


def fit_logistic_mle(sample: ArmSample, lo: np.ndarray, hi: np.ndarray) -> FitResult:
    """Logistic MLE on per-observation rows (binary y)."""
    if sample.n == 0:
        raise EmptySampleError("logistic fit requires at least one observation")
    return fit_grouped_logistic_mle(sample.X, np.ones(sample.n), sample.y, lo, hi)


def fit_linear_lse(sample: ArmSample, lo: np.ndarray, hi: np.ndarray) -> FitResult:
    """Least squares by the normal equations, solved as the engine solves
    them (:func:`solve_stack`); degenerate designs fail soft."""
    if sample.n == 0:
        raise EmptySampleError("least-squares fit requires at least one observation")
    d = sample.X.shape[1]
    lo, hi = _check_box(lo, hi, d)
    A = sample.X.T @ sample.X
    degenerate = FitResult(theta_hat=0.5 * (lo + hi), converged=False, projected=False,
                           iterations=0, reason=DEGENERATE_DESIGN)
    if sample.n < d or np.linalg.cond(A) > COND_MAX:
        return degenerate
    with solve_errstate():  # a singular system gives a row of NaN
        theta = solve_stack(A, sample.X.T @ sample.y)
    if np.isnan(theta).any():
        return degenerate
    theta_c, projected = _clamp(theta, lo, hi)
    return FitResult(theta_hat=theta_c, converged=True, projected=projected, iterations=1)
