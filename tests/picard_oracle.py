"""Plain Banach-Picard iteration m <- Phi[m] on the best-response mean map.

The fixed-point route of lqmfg solves the same affine equation by one
backward sweep; the tests hold it to this iteration's mean path, and check
the iteration's own properties (geometric residual decay, one fixed point
from two starting guesses) here.
"""
import numpy as np

from lqmfg.equilibrium import NonConvergenceError, _finalize, apply_phi
from lqmfg.model import ModelParams, TimeGrid, Trajectory
from lqmfg.riccati import Beta

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200


def solve_picard(params: ModelParams, beta: Beta, grid: TimeGrid,
                 tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                 initial: Trajectory | None = None):
    """Iterate m <- Phi[m] from initial (default the constant m0) until the
    sup-norm step is <= tol; iterations counts the steps, and residual is
    that of the returned iterate itself.  NonConvergenceError ("max_iter")
    after max_iter steps."""
    if initial is None:
        initial = Trajectory(grid, np.full(grid.n_steps + 1, params.m0))
    m = initial
    history: list[float] = []
    for it in range(1, max_iter + 1):
        phi, _ = apply_phi(params, beta, m, grid)
        res = float(np.max(np.abs(phi.values - m.values)))
        history.append(res)
        m = phi
        if res <= tol:
            final, alpha = apply_phi(params, beta, m, grid)
            res = float(np.max(np.abs(final.values - m.values)))
            return _finalize(params, beta, m, alpha, grid, it, res,
                             history=tuple(history))
    raise NonConvergenceError(history, "max_iter")
