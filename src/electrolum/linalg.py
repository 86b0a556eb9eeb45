"""Dense complex linear algebra used by all other modules.

Matrices are plain ``numpy.ndarray`` of ``complex128`` in C (row-major)
order; no wrapper types.  The two entry points wrap LAPACK through
numpy/scipy but enforce the contracts the rest of the package relies on:
a Hermiticity check before ``eigh`` and a kernel-dimension check before
accepting a null vector.

Tolerances are relative to the input scale with an absolute floor of
1e-14, so the contracts behave the same for rate-scaled (~1e-6) and
order-one matrices.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

ABS_FLOOR = 1e-14


class LinalgError(ValueError):
    """Base class for contract violations in this module."""


class NonHermitianError(LinalgError):
    """Input promised to be Hermitian is not (or is not square)."""


class NullSpaceError(LinalgError):
    """Kernel dimension is not one within tolerance."""


def _as_square_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    return a


def hermiticity_defect(m) -> float:
    """Largest entry of ``M - M^dagger`` (absolute value)."""
    a = _as_square_matrix(m)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def eig_hermitian(m, rtol: float = 1e-12):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real and
    ascending and eigenvectors as orthonormal columns.

    Raises NonHermitianError if the input is not square or departs from
    Hermiticity by more than ``rtol * max|entry|`` (floored at 1e-14).
    """
    a = _as_square_matrix(m)
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    tol = max(rtol * scale, ABS_FLOOR)
    defect = hermiticity_defect(a)
    if defect > tol:
        raise NonHermitianError(
            f"matrix is not Hermitian: defect {defect:.3e} exceeds {tol:.3e}"
        )
    vals, vecs = np.linalg.eigh(a)
    return vals, vecs


def null_vector(a, rtol: float = 1e-9, kernel_gap: float = 1e3):
    """Unit-norm vector spanning the one-dimensional kernel of ``A``.

    The vector is the right singular direction of the smallest singular
    value, refined by one step of inverse iteration (the refinement
    matters for generators whose slowest nonzero mode is many orders of
    magnitude below the matrix norm).  A second singular value within
    ``kernel_gap`` times the smallest one means the kernel dimension is
    ambiguous and NullSpaceError is raised.
    """
    a = _as_square_matrix(a)
    if a.shape[0] == 0:
        raise LinalgError("empty matrix has no kernel vector")
    scale = float(np.linalg.norm(a, ord=2)) if a.size else 0.0
    _, svals, vh = sla.svd(a)
    smallest = svals[-1]
    second = svals[-2] if len(svals) > 1 else np.inf
    threshold = max(rtol * scale, ABS_FLOOR)
    if smallest > threshold:
        raise NullSpaceError(
            f"no kernel within tolerance: smallest singular value "
            f"{smallest:.3e} exceeds {threshold:.3e}"
        )
    if second <= max(kernel_gap * smallest, ABS_FLOOR * scale):
        raise NullSpaceError(
            f"kernel dimension ambiguous: singular values "
            f"{smallest:.3e} and {second:.3e} are not separated"
        )
    x = vh[-1].conj()
    # One inverse-iteration step scrubs the contamination of the slowest
    # nonzero mode out of the SVD direction (error ~ eps*||A||/sigma_2).
    # An exact zero pivot is retried with a tiny diagonal shift, which
    # leaves the iteration convergent toward the same kernel direction.
    for shift in (0.0, 1e-13 * scale):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(a + shift * np.eye(a.shape[0]) if shift else a)
                with np.errstate(all="ignore"):
                    y = sla.lu_solve((lu, piv), x)
        except (np.linalg.LinAlgError, ValueError):
            continue
        norm = np.linalg.norm(y)
        if np.all(np.isfinite(y)) and norm > 0:
            x = y / norm
            break
    x = x / np.linalg.norm(x)
    # Fix the overall phase so results are deterministic run to run.
    k = int(np.argmax(np.abs(x)))
    phase = x[k] / abs(x[k])
    return x / phase
