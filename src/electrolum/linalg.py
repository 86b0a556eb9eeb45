"""Stationary state of a continuous-time Markov chain, in plain numpy.

``stationary_distribution`` takes the chain's rate matrix
``rates[to, from]`` and checks that its off-diagonal rates are real,
finite and non-negative.  One pass of GTH state reduction then counts
the closed classes of the rate graph and, when there is one, solves for
the stationary state, accurate entry by entry however far the rates and
populations spread.  The diagonal is never read.
"""

from __future__ import annotations

import numpy as np

from . import LinalgError


class NullSpaceError(LinalgError):
    """Kernel dimension is not one."""


def stationary_distribution(rates) -> np.ndarray:
    """Probability vector p with M p = 0, M the generator of ``rates``.

    ``rates[i, j]`` (i != j) is the rate j -> i, non-negative; M is
    ``rates`` with its diagonal replaced by minus the column sums of the
    off-diagonal rates.  The diagonal of ``rates`` is never read, so a
    generator, a zero-diagonal rate matrix or anything in between gives
    the same p.  The stationary state is unique exactly when the rate
    graph has one closed communicating class.  It lives on that class,
    so every transient level gets exactly 0.  It is computed by GTH
    state reduction (Grassmann, Taksar & Heyman, Oper. Res. 33, 1107
    (1985)): levels are eliminated one at a time, from the last down,
    using only sums, products and quotients of non-negative numbers.
    With no subtraction, each entry is accurate relative to itself,
    including populations tens of orders of magnitude below the
    largest.  The same pass counts the closed classes: a level whose
    censored out-rate (towards the levels still present) is 0 is the
    lowest level of one.  A censored out-rate that underflows to 0.0
    counts as a closed class too.

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

    # q[i, j]: rate i -> j, diagonal unread.  Eliminating level k folds
    # every path i -> k -> j into q[i, j]; out[k] is the rate from k to
    # the levels still present: those below k and the roots.  A level
    # that reaches a closed class reaches its lowest level, which reaches
    # no lower level and no other root: roots (out[k] == 0) and closed
    # classes match one to one.  A closed class reaches no transient
    # level, so eliminating those leaves its rates unchanged.
    q = rates.T.copy()
    size = a.shape[0]
    out = np.zeros(size)
    roots = []
    for k in range(size - 1, -1, -1):
        out[k] = q[k, :k].sum()
        if roots:
            out[k] += q[k, roots].sum()
        if out[k] == 0.0:
            roots.append(k)
            continue
        q[:k, :k] += np.outer(q[:k, k], q[k, :k] / out[k])
        if roots:
            q[:k, roots] += np.outer(q[:k, k], q[k, roots] / out[k])
    if len(roots) != 1:
        raise NullSpaceError(
            f"no unique stationary state: the rate graph has {len(roots)} closed "
            "classes (no electron can enter from |s,0> or leave the one-electron "
            "ground level; open one: gamma_in > 0 with mu >= omega_G, or gamma_out > 0)"
        )
    # balance of level k in the chain reduced to levels 0..k; levels below
    # the root are transient and stay exactly 0
    x = np.zeros(size)
    x[roots[0]] = 1.0
    for k in range(roots[0] + 1, size):
        x[k] = (x[:k] @ q[:k, k]) / out[k]
    return x / x.sum()
