"""Anderson-accelerated fixed point coupling the HJB and FPK sweeps.

The equilibrium is a fixed point of price -> value -> control -> density ->
price. The map depends on the density only through the price, so the
iterate is the price series: the ev price, or the phev grid price ``r1``
(the fuel price ``r2`` is fixed). It has one entry per time node, which
keeps the acceleration history small.

The first price is that of the initial density held constant in time. Each
pass computes value and control (one sweep) and density from the current
price; the residual is the time-sup of the per-slice L1 change between this
density and the previous pass's (the initial iterate on the first pass),
which is scale free because every slice has unit mass. The next price comes
from type-II Anderson acceleration (Walker & Ni, SIAM J. Numer. Anal. 49(4),
2011) over the last ``ANDERSON_DEPTH`` pairs of price and price update
``f = price(density) - price``. With fewer than two pairs it takes the
plain step ``price + damping * f``; whenever the residual grows, the
history is dropped, so the next step is a plain one. Non-convergence is an
outcome, not an exception: the best available fields are still returned.

The stored solution is always self-consistent: price, value and control are
recomputed once from the final density, so audits that recompute the chain
see zero deviation on price and control, and one extra density pass moves
the solution by about the final residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ScenarioError, as_float, as_int

# Pairs (price, price update) the acceleration keeps: up to four difference
# columns in a least-squares problem with one row per time node.
ANDERSON_DEPTH = 5


@dataclass
class SolverOptions:
    """Fixed-point settings.

    ``max_iters`` caps the density passes, ``tol`` is the residual (sup-t L1
    density change between passes) that counts as converged, and ``damping``
    weights the plain step ``price + damping * f`` taken on the first pass
    and after each history reset.
    """

    max_iters: int = 200
    tol: float = 1e-6
    damping: float = 0.5

    def __post_init__(self) -> None:
        self.max_iters = as_int(self.max_iters, "solver.max_iters")
        if self.max_iters < 1:
            raise ScenarioError("solver.max_iters", "must be at least 1")
        self.tol = as_float(self.tol, "solver.tol")
        if self.tol <= 0.0:
            raise ScenarioError("solver.tol", "must be positive")
        self.damping = as_float(self.damping, "solver.damping")
        if not 0.0 < self.damping <= 1.0:
            raise ScenarioError("solver.damping", "must be in (0, 1]")


@dataclass
class MfeSolution:
    """The fixed point's value ``v``, density ``m``, price ``p`` and control ``alpha``, one field per axis."""

    v: np.ndarray
    m: np.ndarray
    p: np.ndarray
    alpha: tuple[np.ndarray, ...]
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    tol: float = 1e-6


@dataclass
class VerifyReport:
    price_deviation: float
    control_deviation: float
    density_deviation: float
    threshold: float
    passed: bool

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status}: price dev {self.price_deviation:.3e}, "
            f"control dev {self.control_deviation:.3e}, "
            f"density dev {self.density_deviation:.3e} "
            f"(threshold {self.threshold:.3e})"
        )


def _sup_l1(a: np.ndarray, b: np.ndarray, cell_volume: float) -> float:
    """Time-sup of the per-slice L1 distance between two density fields."""
    diff = np.asarray(a) - np.asarray(b)
    np.abs(diff, out=diff)  # in place: one field-sized temporary, not two
    return float(diff.reshape(a.shape[0], -1).sum(axis=1).max() * cell_volume)


def solve_mfe(model, options: SolverOptions) -> MfeSolution:
    """Iterate price/HJB/control/FPK to a mean field equilibrium.

    The iterate is the price series, accelerated as the module docstring
    describes; the solve stops when two successive density passes differ
    by at most ``options.tol`` or after ``options.max_iters`` passes. The
    residual of every pass is kept in ``MfeSolution.residuals``.
    """
    vol = model.cell_volume
    m_prev = model.initial_iterate()
    p = model.price(m_prev)
    history: list[tuple[np.ndarray, np.ndarray]] = []
    residuals: list[float] = []
    last_residual = np.inf
    converged = False
    iterations = 0
    m_new = m_prev
    # Each pass sweeps into the last pass's value and control and into the
    # density before it (``spare``), so the fields are allocated once per
    # solve. Fields freed and allocated anew on every pass let glibc trim
    # the heap and fault the pages back in: about a fifth of the 2D solve.
    fields = spare = None
    for iterations in range(1, options.max_iters + 1):
        fields = model.hjb(p, fields)
        m_new = model.fpk(fields[1], spare)
        residual = _sup_l1(m_new, m_prev, vol)
        residuals.append(residual)
        if residual <= options.tol:
            converged = True
            break
        if residual > last_residual:
            history.clear()
        last_residual = residual
        history.append((p, model.price(m_new) - p))
        del history[:-ANDERSON_DEPTH]
        p = _anderson_step(history, options.damping)
        spare, m_prev = m_prev, m_new
    # Final consistency pass: all stored fields derive from the final density.
    m_final = m_new
    p_final = model.price(m_final)
    v_final, alpha_final = model.hjb(p_final, fields)
    return MfeSolution(
        v=v_final,
        m=m_final,
        p=p_final,
        alpha=alpha_final,
        residuals=residuals,
        converged=converged,
        iterations=iterations,
        tol=options.tol,
    )


def _anderson_step(history: list[tuple[np.ndarray, np.ndarray]], damping: float) -> np.ndarray:
    """Next price from the (price, update) history, newest pair last.

    Type II: gamma minimises |f - dF gamma| over the differences of
    successive pairs, and the step is x + f - (dX + dF) gamma.
    """
    x, f = history[-1]
    if len(history) < 2:
        return x + damping * f
    dx = np.column_stack([b[0] - a[0] for a, b in zip(history, history[1:])])
    df = np.column_stack([b[1] - a[1] for a, b in zip(history, history[1:])])
    gamma = _least_squares(df, f)
    return x + f - ((dx + df) * gamma).sum(axis=1)


def _least_squares(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A minimiser of |b - a g| by modified Gram-Schmidt on the few columns of a.

    A column that is numerically dependent on the earlier ones gets g = 0.
    Elementwise numpy on purpose: the package makes no LAPACK call (its one
    BLAS use is the dot product inside ``np.convolve``), and the first one
    (``np.linalg.lstsq`` here) adds about 1 MB of resident memory.
    """
    n = a.shape[1]
    q = np.zeros_like(a)
    r = np.zeros((n, n))
    kept = []
    for j in range(n):
        w = a[:, j].copy()
        for i in kept:
            r[i, j] = (q[:, i] * w).sum()
            w -= r[i, j] * q[:, i]
        norm = np.sqrt((w * w).sum())
        if norm > 1e-12 * np.sqrt((a[:, j] ** 2).sum()):
            r[j, j] = norm
            q[:, j] = w / norm
            kept.append(j)
    g = np.zeros(n)
    for j in reversed(kept):
        g[j] = ((q[:, j] * b).sum() - (r[j, j + 1:] * g[j + 1:]).sum()) / r[j, j]
    return g


def verify_solution(sol: MfeSolution, model) -> VerifyReport:
    """Audit a solution by recomputing the equilibrium chain once.

    Recomputes the price from the stored density, the control from the
    stored value and recomputed price, and one density pass from that
    control; reports the max deviations against the stored fields. Passes
    iff every deviation is within 10x the solve tolerance. The recomputed
    control holds |a - b| at the end, so ``model.control`` must return
    fresh arrays.
    """
    threshold = 10.0 * sol.tol
    p_re = model.price(sol.m)
    price_dev = float(np.abs(p_re - sol.p).max())
    alpha_re = model.control(sol.v, p_re)
    m_re = model.fpk(alpha_re)
    density_dev = _sup_l1(m_re, sol.m, model.cell_volume)
    for a, b in zip(alpha_re, sol.alpha, strict=True):  # in place, once the density pass has read it
        np.abs(np.subtract(a, b, out=a), out=a)
    control_dev = float(np.max([a.max() for a in alpha_re]))
    passed = price_dev <= threshold and control_dev <= threshold and density_dev <= threshold
    return VerifyReport(
        price_deviation=price_dev,
        control_deviation=control_dev,
        density_deviation=density_dev,
        threshold=threshold,
        passed=passed,
    )
