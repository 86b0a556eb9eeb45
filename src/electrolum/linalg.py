"""Stationary state of a continuous-time Markov chain, in plain numpy.

``stationary_distribution`` takes the chain's rate matrix
``rates[to, from]``, checks that its off-diagonal rates are real, finite
and non-negative and that its stationary state is unique, then solves
for it by GTH state reduction, which is accurate entry by entry however
far the rates and populations spread.  The diagonal is ignored: the
generator's diagonal is minus the column sums of the off-diagonal
rates, so it carries nothing the solver needs.
"""

from __future__ import annotations

import numpy as np

from . import LinalgError


class NullSpaceError(LinalgError):
    """Kernel dimension is not one."""


def _closure(step: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean one-step relation."""
    reach = step | np.eye(step.shape[0], dtype=bool)
    while True:
        # squaring doubles the path length covered; counting paths in
        # floating point uses BLAS, and > 0 turns counts back into reach
        r = reach.astype(float)
        wider = (r @ r) > 0
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def stationary_distribution(rates) -> np.ndarray:
    """Probability vector p with M p = 0, M the generator of ``rates``.

    ``rates[i, j]`` (i != j) is the rate j -> i, non-negative; M is
    ``rates`` with its diagonal replaced by minus the column sums of the
    off-diagonal rates.  The diagonal of ``rates`` is never read, so a
    generator, a zero-diagonal rate matrix or anything in between gives
    the same p.  The stationary state is unique exactly when the rate
    graph has one closed communicating class.  It lives on that class,
    so every transient level gets exactly 0.  On the class it is
    computed by GTH state reduction (Grassmann, Taksar & Heyman, Oper.
    Res. 33, 1107 (1985)): levels are eliminated one at a time from the
    off-diagonal rates alone, using only sums, products and quotients
    of non-negative numbers.  With no subtraction, each entry is
    accurate relative to itself, including populations tens of orders
    of magnitude below the largest.

    Raises LinalgError if ``rates`` is not a non-empty, square, finite,
    real matrix with non-negative off-diagonal entries, and
    NullSpaceError if the rate graph has more than one closed class,
    where the kernel is more than one-dimensional.
    """
    a = np.asarray(rates)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise LinalgError(f"expected a non-empty square matrix, got shape {a.shape}")
    if np.iscomplexobj(a) or not np.all(np.isfinite(a)):
        raise LinalgError("a rate matrix must be real and finite")
    rates = np.array(a, dtype=float)
    np.fill_diagonal(rates, 0.0)
    if np.any(rates < 0):
        raise LinalgError("not a rate matrix: negative off-diagonal rate")

    # reach[i, j]: level j can be reached from level i.  A level is
    # recurrent when every level it reaches leads back to it; what a
    # recurrent level reaches is its closed class.  A recurrent level
    # leads its class when no earlier recurrent level reaches it.
    reach = _closure(rates.T > 0)
    recurrent = np.flatnonzero(np.all(reach.T | ~reach, axis=1))
    among = reach[np.ix_(recurrent, recurrent)]
    classes = int(np.sum(~np.triu(among, 1).any(axis=0)))
    if classes != 1:
        raise NullSpaceError(
            f"no unique stationary state: the rate graph has {classes} closed "
            "classes (no electron can enter from |s,0> or leave the one-electron "
            "ground level; open one: gamma_in > 0 with mu >= omega_G, or gamma_out > 0)"
        )
    members = np.flatnonzero(reach[recurrent[0]])

    # q[i, j]: rate i -> j within the class.  Eliminating level k folds
    # every path i -> k -> j into q[i, j]; out[k] is the rate leaving k
    # towards the levels still present, positive because the class is
    # closed and communicating.  Diagonal entries are never read.
    q = rates[np.ix_(members, members)].T.copy()
    size = len(members)
    out = np.zeros(size)
    for k in range(size - 1, 0, -1):
        out[k] = q[k, :k].sum()
        q[:k, :k] += np.outer(q[:k, k], q[k, :k] / out[k])
    # balance of level k in the chain reduced to levels 0..k
    x = np.ones(size)
    for k in range(1, size):
        x[k] = (x[:k] @ q[:k, k]) / out[k]
    p = np.zeros(a.shape[0])
    p[members] = x / x.sum()
    return p
