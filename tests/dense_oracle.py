"""Dense references the production path is tested against.

The bare operators and the Hamiltonian are built here as dense complex
matrices from Kronecker products, with no use of the parity chains the
package diagonalizes.  The Lindblad generator works on the full
D^2 x D^2 superoperator in the bare basis and makes no use of the block
structure the package exploits.
Each jump operator is rebuilt from the columns of ``basis.states`` as
|to><from|; nothing is read from ``SecularGenerator``.  The kernel is
taken with an SVD (``null_vector``), not with the production GTH
reduction, which only applies to real rate generators.

Operators are vectorized by column stacking: vec(rho) stacks the columns
of rho, so vec(A rho B) = (B^T kron A) vec(rho).
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg as sla

from electrolum.hilbert import ELECTRONIC_LABELS
from electrolum.liouvillian import SteadyStateError
from electrolum.linalg import LinalgError, NullSpaceError

# absolute floor of the kernel tolerances of null_vector
ABS_FLOOR = 1e-14


def basis_state(space, label: str, n: int) -> np.ndarray:
    v = np.zeros(space.dim, dtype=complex)
    v[space.index(label, n)] = 1.0
    return v


def annihilation(space) -> np.ndarray:
    """Photon annihilation a (identity on the electronic label)."""
    ladder = np.diag(np.sqrt(np.arange(1, space.n_photon, dtype=float)), k=1)
    return np.kron(np.eye(3), ladder).astype(complex)


def transition(space, from_label: str, to_label: str) -> np.ndarray:
    """Electronic transition |to><from| tensored with the photon identity."""
    for label in (from_label, to_label):
        if label not in ELECTRONIC_LABELS:
            raise ValueError(f"unknown electronic label {label!r}")
    el = np.zeros((3, 3), dtype=complex)
    el[ELECTRONIC_LABELS.index(to_label), ELECTRONIC_LABELS.index(from_label)] = 1.0
    return np.kron(el, np.eye(space.n_photon, dtype=complex))


def number_electron(space) -> np.ndarray:
    """Electron number: 0 on |s,n>, 1 on |g,n> and |e,n>."""
    return transition(space, "g", "g") + transition(space, "e", "e")


def number_photon(space) -> np.ndarray:
    """Photon number a^dagger a."""
    a = annihilation(space)
    return a.conj().T @ a


def ground_photon_number(basis, space) -> float:
    """<G| a^dagger a |G>: bound photons in the dressed ground state."""
    g = basis.states[:, basis.index_ground]
    return float(np.real(g.conj() @ number_photon(space) @ g))


def parity(space) -> np.ndarray:
    """Excitation parity exp(i pi (a^dagger a + |e><e|)), diagonal in the bare basis."""
    diag = np.empty(space.dim)
    for k in range(space.dim):
        el, n = divmod(k, space.n_photon)
        diag[k] = (-1.0) ** (n + (1 if ELECTRONIC_LABELS[el] == "e" else 0))
    return np.diag(diag).astype(complex)


def quadrature(space) -> np.ndarray:
    a = annihilation(space)
    return a + a.conj().T


def injection_operator(space) -> np.ndarray:
    return transition(space, "s", "g") + transition(space, "s", "e")


def extraction_operator(space) -> np.ndarray:
    return transition(space, "g", "s") + transition(space, "e", "s")


def hamiltonian(params, space) -> np.ndarray:
    """H = a+a + omega_e |e><e| - omega_s |s><s| + rabi (a + a+)(|e><g| + |g><e|)."""
    a = annihilation(space)
    x = a + a.conj().T
    sigma = transition(space, "g", "e") + transition(space, "e", "g")
    return (
        a.conj().T @ a
        + params.omega_e * transition(space, "e", "e")
        - params.omega_s * transition(space, "s", "s")
        + params.eta * (x @ sigma)
    )


def assemble(h, space) -> np.ndarray:
    """A block-form Hamiltonian of the package as a dense matrix in the bare basis."""
    m = np.zeros((space.dim, space.dim))
    empty = [space.index("s", n) for n in range(space.n_photon)]
    m[empty, empty] = h.empty
    for p, (diag, off) in enumerate(h.chains):
        sites = space.chain_sites(p)
        m[np.ix_(sites, sites)] = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return m


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(rho, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray) -> np.ndarray:
    n = int(round(np.sqrt(v.size)))
    if n * n != v.size:
        raise ValueError(f"vector of length {v.size} is not a stacked square matrix")
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def jump_operator(basis, to_index: int, from_index: int) -> np.ndarray:
    """|to><from| of one channel, in the bare basis."""
    return np.outer(basis.states[:, to_index], basis.states[:, from_index].conj())


def summed_rates(channels) -> np.ndarray:
    """Rate matrix [to, from] of the three baths together; each nonzero entry is one jump."""
    return channels.cavity + channels.electron_in + channels.electron_out


def liouvillian(h: np.ndarray, basis, rates: np.ndarray) -> np.ndarray:
    """L(rho) = -i[H, rho] + sum_k rate_k D[A_k](rho) as a dense superoperator.

    Every nonzero entry rates[to, from] is one channel A_k = |to><from|
    of that rate.  D[A](rho) = A rho A^dagger - (A^dagger A rho + rho
    A^dagger A) / 2.  With A = |v_to><v_from|, conj(A) kron A is the
    outer product of kron(conj(v_to), v_to) and kron(conj(v_from),
    v_from), so the jump part collapses into one matrix product.
    """
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    eye = np.eye(dim, dtype=complex)
    mat = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    to, frm = np.nonzero(rates)
    if not to.size:
        return mat
    weights = rates[to, frm]
    v_to = basis.states[:, to]
    v_from = basis.states[:, frm]
    w_to = np.stack([np.kron(u.conj(), u) for u in v_to.T], axis=1)
    w_from = np.stack([np.kron(u.conj(), u) for u in v_from.T], axis=1)
    mat += (w_to * weights) @ w_from.conj().T
    # sum_k rate_k A_k^dagger A_k = sum_k rate_k |v_from><v_from|
    anticomm = (v_from * weights) @ v_from.conj().T
    mat -= 0.5 * (np.kron(eye, anticomm) + np.kron(anticomm.T, eye))
    return mat


def system_liouvillian(system) -> np.ndarray:
    return liouvillian(hamiltonian(system.params, system.basis.space), system.basis,
                       summed_rates(system.channels))


def apply(mat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """L(rho) through the superoperator-vector product."""
    rho = np.asarray(rho, dtype=complex)
    dim = int(round(np.sqrt(mat.shape[0])))
    if rho.shape != (dim, dim):
        raise ValueError(f"density operator shape {rho.shape} does not match dimension {dim}")
    return unvec(mat @ vec(rho))


def lindblad_rhs(h: np.ndarray, basis, rates: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Direct evaluation of the master-equation right-hand side, channel by channel."""
    drho = -1j * (h @ rho - rho @ h)
    for to, frm in zip(*np.nonzero(rates)):
        a = jump_operator(basis, to, frm)
        ad = a.conj().T
        ada = ad @ a
        drho += rates[to, frm] * (a @ rho @ ad - 0.5 * (ada @ rho + rho @ ada))
    return drho


def null_vector(a, rtol: float = 1e-9, kernel_gap: float = 1e3):
    """Unit-norm vector spanning the one-dimensional kernel of ``A``.

    The vector is the right singular direction of the smallest singular
    value, refined by one step of inverse iteration (the refinement
    matters for generators whose slowest nonzero mode is many orders of
    magnitude below the matrix norm).  A second singular value within
    ``kernel_gap`` times the smallest one means the kernel dimension is
    ambiguous and NullSpaceError is raised.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise LinalgError(f"expected a non-empty square matrix, got shape {a.shape}")
    scale = float(np.linalg.norm(a, ord=2))
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


def generator(rates) -> np.ndarray:
    """Pauli rate generator of off-diagonal ``rates[to, from]``; columns sum to zero.

    The diagonal of ``rates`` is dropped and rebuilt as minus the column
    sums of the off-diagonal rates: the tests' one copy of the formula
    that the production solver never builds.
    """
    rates = np.array(rates, dtype=float)
    np.fill_diagonal(rates, 0.0)
    return rates - np.diag(rates.sum(axis=0))


def steady_state(mat: np.ndarray) -> np.ndarray:
    """Kernel of the dense generator, Hermitized and trace-normalized."""
    try:
        v = null_vector(mat)
    except NullSpaceError as err:
        raise SteadyStateError(f"no unique stationary state: {err}") from err
    rho = unvec(v)
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho)


def emission_spectrum(mat: np.ndarray, rho_ss: np.ndarray, x_minus: np.ndarray,
                      x_plus: np.ndarray, grid, gamma_cav: float) -> np.ndarray:
    """S(w) = (gamma_cav/pi) Re Tr[X+ R(w) (X- rho_ss)], R(w) = -(L - i w)^(-1).

    The stationary mode is deflated from the source; the generator is
    Schur-factorized once, then each grid point is one triangular solve.
    """
    omegas = np.asarray(grid, dtype=float)
    source = vec(x_minus @ rho_ss)
    source = source - vec(rho_ss) * np.trace(x_minus @ rho_ss)
    t, q = sla.schur(mat, output="complex")
    w = q.conj().T @ source
    # Tr[X+ M] = vec(X+^T)^T vec(M); fold the Q rotation into the probe
    probe = q.T @ vec(x_plus.T)
    t_diag = t.diagonal().copy()
    values = np.empty_like(omegas)
    for k, omega in enumerate(omegas):
        t[np.diag_indices_from(t)] = t_diag - 1j * omega
        y = sla.solve_triangular(t, -w, lower=False)
        values[k] = (gamma_cav / np.pi) * np.real(probe @ y)
    return values
