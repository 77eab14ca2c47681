"""Hamiltonians and observables for the two battery models.

Lattice model (one two-level system per cavity, photons hop between
cavities):

    H = sum_c w_c a+_c a_c  +  sum_c w_a s+_c s-_c
        + beta sum_c (a_c s+_c + a+_c s-_c)
        - kappa sum_<c,c'> (a+_c' a_c + a+_c a_c')

Collective model (N two-level systems sharing a single mode, expressed on
the symmetric ladder ``(n, q)`` with q systems in the ground state and
collective weight j = N/2, m_j = N/2 - q):

    diagonal  w_c n + w_a (N - q)        [measured from the all-ground,
                                          zero-photon state]
    coupling  g  * [a J+ + a+ J-]        rotating,        g  from beta
            + g' * [a J- + a+ J+]        counter-rotating, g' from beta'

where g = beta / sqrt(N) under the default normalization and g = beta when
normalization is NONE (same for beta').

Both models are assembled by one path, ``build_csr``: numpy computes the
diagonal and one half of every Hermitian pair of off-diagonal elements
over the whole array basis at once, locating each target state with the
basis ``rank``; the pairs are then mirrored, so exact bitwise symmetry
holds.  The dense matrix of the exact engine is the same CSR's
``toarray()``.

Every automorphism of the hopping graph permutes the cavities without
changing H, the quench state or the stored energy.  ``symmetry_orbits``
labels each chain state with its orbit under the group those site
permutations generate, from which the engine builds the fully symmetric
sector that the quench never leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse

from .basis import (
    BasisIndex,
    DickeBasis,
    JchBasis,
    build_dicke_basis,
    build_jch_sector,
    dicke_dim,
    jch_sector_dim,
)

__all__ = [
    "Model",
    "Topology",
    "Normalization",
    "ModelParams",
    "BasisMismatchError",
    "MissingStateError",
    "build_basis",
    "build_csr",
    "symmetry_orbits",
    "jz_diagonal",
    "initial_index",
    "initial_state",
]


class Model(Enum):
    JCH = "jch"
    DICKE = "dicke"


class Topology(Enum):
    LINE = "line"
    RING = "ring"
    ALL_TO_ALL = "all"


class Normalization(Enum):
    SQRT_N = "sqrt-n"
    NONE = "none"


class BasisMismatchError(ValueError):
    """Basis passed to a builder was constructed for different parameters."""


class MissingStateError(LookupError):
    """The quench initial state is not contained in the basis."""


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of one battery configuration.

    ``n`` is the number of cavities (lattice) or two-level systems
    (collective); ``m`` the number of photons prepared per cavity, so the
    quench starts with ``n * m`` photons and every two-level system in its
    ground state.  ``beta_prime=None`` means "same as beta".  ``n_max`` is
    the collective-model photon cutoff, defaulting to ``5 * n * m``.

    ``literal_elements`` switches the collective matrix to an alternative
    printed convention in which the photon energy multiplies the coupling
    block and the diagonal reads w_c (n + N/2 - q); at the default
    operating point w_c = w_a = 1 the two conventions agree up to a
    constant diagonal shift, which leaves the extracted energy unchanged.
    """

    model: Model
    n: int
    beta: float
    m: int = 1
    omega_c: float = 1.0
    omega_a: float = 1.0
    beta_prime: float | None = None
    kappa: float = 0.0
    topology: Topology = Topology.LINE
    normalization: Normalization = Normalization.SQRT_N
    n_max: int | None = None
    literal_elements: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        # Each comparison is false for NaN, so these also reject NaN and infinity.
        for name in ("beta", "beta_prime", "kappa"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not (0 < self.omega_c < math.inf and 0 < self.omega_a < math.inf):
            raise ValueError("mode and two-level energies must be finite and positive")
        if self.n_max is not None and self.n_max < 0:
            raise ValueError(f"n_max must be nonnegative, got {self.n_max}")

    @property
    def delta(self) -> float:
        """Two-level/mode detuning."""
        return self.omega_a - self.omega_c

    @property
    def beta_prime_value(self) -> float:
        return self.beta if self.beta_prime is None else self.beta_prime

    @property
    def n_max_value(self) -> int:
        return 5 * self.n * self.m if self.n_max is None else self.n_max

    def with_cutoff(self, multiplier: int) -> "ModelParams":
        """Copy with the collective photon cutoff set to ``multiplier * n * m``."""
        if multiplier < 1:
            raise ValueError(f"cutoff multiplier must be positive, got {multiplier}")
        return replace(self, n_max=multiplier * self.n * self.m)


def build_basis(params: ModelParams, max_dim: int | None = None) -> BasisIndex:
    """Build the basis matching ``params`` (sector for JCH, truncated ladder for DICKE)."""
    kwargs = {} if max_dim is None else {"max_dim": max_dim}
    if params.model is Model.JCH:
        return build_jch_sector(params.n, params.m, **kwargs)
    return build_dicke_basis(params.n, params.n_max_value, **kwargs)


def _check_basis(params: ModelParams, basis: BasisIndex) -> None:
    if params.model is Model.JCH:
        if not isinstance(basis, JchBasis) or basis.photons.shape[1] != params.n:
            raise BasisMismatchError("basis does not describe a chain with n cavities")
        if basis.excitations != params.n * params.m:
            raise BasisMismatchError(
                f"basis sector has {basis.excitations} excitations, expected {params.n * params.m}"
            )
        if basis.dim != jch_sector_dim(params.n, params.m):
            raise BasisMismatchError("basis size does not match the full excitation sector")
        return
    if not isinstance(basis, DickeBasis):
        raise BasisMismatchError("basis does not hold collective (n, q) states")
    if basis.n_systems != params.n or basis.dim != dicke_dim(params.n, basis.n_max):
        raise BasisMismatchError("basis was built for a different system size")
    if basis.n_max != params.n_max_value:
        raise BasisMismatchError(
            f"basis photon cutoff {basis.n_max} does not match requested {params.n_max_value}"
        )


def _jch_bonds(params: ModelParams) -> list[tuple[int, int]]:
    n = params.n
    if n == 1:
        return []
    if params.topology is Topology.LINE:
        return [(c, c + 1) for c in range(n - 1)]
    if params.topology is Topology.RING:
        # For n == 2 this intentionally lists the single cavity pair twice:
        # closing the ring adds a second copy of the only bond.
        return [(c, (c + 1) % n) for c in range(n)]
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _jch_symmetries(params: ModelParams) -> list[np.ndarray]:
    """Site permutations that generate the automorphisms of the hopping graph.

    The reversal for the line, the rotation and the reversal for the ring
    (D_N), the rotation and one transposition for all-to-all (S_N); none
    for the collective model or a single cavity.
    """
    n = params.n
    if params.model is not Model.JCH or n == 1:
        return []
    sites = np.arange(n)
    if params.topology is Topology.LINE:
        return [sites[::-1]]
    rotation = np.roll(sites, -1)
    if params.topology is Topology.RING:
        return [rotation, sites[::-1]]
    return [rotation, np.r_[1, 0, sites[2:]]]


def symmetry_orbits(params: ModelParams, basis: BasisIndex) -> np.ndarray:
    """Smallest row of each basis row's orbit under the automorphisms of the hopping graph.

    Every row is its own orbit for a trivial group.  Each generator's image
    of every row comes from the basis ``rank``; the labels then take the
    minimum over those images, and over themselves, until nothing changes.
    A label never exceeds its row, so the fixed point is constant on each
    orbit and equal to the orbit's smallest row.
    """
    _check_basis(params, basis)
    labels = np.arange(basis.dim)
    images = [basis.rank(basis.photons[:, g], basis.spins[:, g]) for g in _jch_symmetries(params)]
    while images:
        new = labels
        for image in images:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    return labels


def _jch_entries(params: ModelParams, basis: JchBasis):
    """Diagonal, and (source, target, value) of the off-diagonal pairs, of the lattice model.

    Only photon-removing halves of each Hermitian term pair are listed, so
    every off-diagonal matrix element appears once (the doubled bond of a
    two-cavity ring twice).
    """
    photons, spins = basis.photons, basis.spins
    diag = params.omega_c * photons.sum(axis=1) + params.omega_a * spins.sum(axis=1)
    src, dst, vals = [], [], []
    if params.beta != 0.0:
        for c in range(params.n):
            rows = np.flatnonzero((photons[:, c] > 0) & (spins[:, c] == 0))
            p, s = photons[rows], spins[rows]
            vals.append(params.beta * np.sqrt(p[:, c]))
            p[:, c] -= 1
            s[:, c] = 1
            src.append(rows)
            dst.append(basis.rank(p, s))
    if params.kappa != 0.0:
        for a, b in _jch_bonds(params):
            rows = np.flatnonzero(photons[:, a] > 0)
            p = photons[rows]
            vals.append(-params.kappa * np.sqrt(p[:, a]) * np.sqrt(p[:, b] + 1))
            p[:, a] -= 1
            p[:, b] += 1
            src.append(rows)
            dst.append(basis.rank(p, spins[rows]))
    return diag, src, dst, vals


def _dicke_entries(params: ModelParams, basis: DickeBasis):
    """Diagonal, and (source, target, value) of the off-diagonal pairs, of the collective model.

    Ladder amplitudes use j = N/2, m_j = N/2 - q:

        photon absorbed, spin raised  (n, q) -> (n-1, q-1):  sqrt(n) * J+ amplitude, weight g
        photon absorbed, spin lowered (n, q) -> (n-1, q+1):  sqrt(n) * J- amplitude, weight g'

    Their Hermitian partners are the mirrored entries.  Emission targets
    above the photon cutoff are dropped by the truncation.
    """
    nsys = params.n
    scale = 1.0 / math.sqrt(nsys) if params.normalization is Normalization.SQRT_N else 1.0
    g_rot = params.beta * scale
    g_cnt = params.beta_prime_value * scale
    if params.literal_elements:
        g_rot *= params.omega_c
        g_cnt *= params.omega_c
    j = nsys / 2.0
    jj = j * (j + 1.0)
    n, q = basis.n, basis.q
    mj = j - q
    if params.literal_elements:
        diag = params.omega_c * (n + mj)
    else:
        diag = params.omega_c * n + params.omega_a * (nsys - q)
    src, dst, vals = [], [], []
    for g, dq, allowed in ((g_rot, -1, q >= 1), (g_cnt, 1, q <= nsys - 1)):
        if g == 0.0:
            continue
        # m_j (m_j + 1) for J+, m_j (m_j - 1) for J-.
        amp = np.sqrt(n * (jj - mj * (mj - dq)))
        rows = np.flatnonzero((n > 0) & allowed & (amp != 0.0))
        vals.append(g * amp[rows])
        src.append(rows)
        dst.append(basis.rank(n[rows] - 1, q[rows] + dq))
    return diag, src, dst, vals


def build_csr(params: ModelParams, basis: BasisIndex) -> scipy.sparse.csr_array:
    """Sparse symmetric Hamiltonian of either model; ``.toarray()`` gives the dense matrix.

    Each off-diagonal pair is listed once and mirrored; duplicate entries
    are summed by the conversion to CSR.
    """
    _check_basis(params, basis)
    entries = _jch_entries if params.model is Model.JCH else _dicke_entries
    diag, src, dst, vals = entries(params, basis)
    idx = np.arange(basis.dim)
    rows = np.concatenate([idx, *src, *dst])
    cols = np.concatenate([idx, *dst, *src])
    data = np.concatenate([diag, *vals, *vals])
    return scipy.sparse.coo_array((data, (rows, cols)), shape=(basis.dim, basis.dim)).tocsr()


def jz_diagonal(params: ModelParams, basis: BasisIndex) -> np.ndarray:
    """Diagonal of the stored-energy observable: w_a times the number of excited systems."""
    _check_basis(params, basis)
    if params.model is Model.JCH:
        return params.omega_a * basis.spins.sum(axis=1)
    return params.omega_a * (params.n - basis.q)


def initial_index(params: ModelParams, basis: BasisIndex) -> int:
    """Index of the quench state: m photons in every cavity, all systems in the ground state."""
    _check_basis(params, basis)
    try:
        if params.model is Model.JCH:
            return int(basis.rank([params.m] * params.n, [0] * params.n))
        return int(basis.rank(params.n * params.m, params.n))
    except KeyError:
        raise MissingStateError(
            f"initial state ({params.m} photons per cavity, n = {params.n}) is outside the basis; "
            f"for the collective model the cutoff must satisfy n_max >= n * m"
        ) from None


def initial_state(params: ModelParams, basis: BasisIndex) -> np.ndarray:
    psi = np.zeros(basis.dim)
    psi[initial_index(params, basis)] = 1.0
    return psi
