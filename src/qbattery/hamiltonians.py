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

``build_csr`` assembles the collective model on its whole ladder: numpy
computes the diagonal and one half of every Hermitian pair of
off-diagonal elements over the array basis at once, locating each target
state with the basis ``rank``; the pairs are then mirrored, so exact
bitwise symmetry holds.

The chain's off-diagonal terms are listed once, in ``_jch_moves``, as
moves of one quantum between modes (a photon between cavities, or between
a cavity and its two-level system).

Every automorphism of the hopping graph permutes the cavities without
changing H, the quench state or the stored energy, so a chain's quench
never leaves the span of the normalized orbit sums.
``build_quench_block`` builds H on the orbit sums the quench reaches
directly: a breadth-first walk from the quench state that tells orbits
apart by a canonical key, the smallest key of their states, and never
enumerates the full sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse

from .basis import (
    CapacityError,
    DickeBasis,
    _check_int,
    _key_base,
    _pack_keys,
    build_dicke_basis,
    dicke_dim,
)
from .dynamics import state_cap

__all__ = [
    "Model",
    "Topology",
    "Normalization",
    "ModelParams",
    "BasisMismatchError",
    "MissingStateError",
    "build_basis",
    "build_csr",
    "QuenchBlock",
    "build_quench_block",
    "jz_diagonal",
    "initial_index",
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
        for name in ("n", "m") + (("n_max",) if self.n_max is not None else ()):
            _check_int(name, getattr(self, name))
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
        _check_int("cutoff multiplier", multiplier)
        if multiplier < 1:
            raise ValueError(f"cutoff multiplier must be positive, got {multiplier}")
        return replace(self, n_max=multiplier * self.n * self.m)


def _require_ladder(params: ModelParams) -> None:
    if params.model is not Model.DICKE:
        raise BasisMismatchError(
            "a chain has no whole basis: build_quench_block builds its quench block"
        )


def build_basis(params: ModelParams) -> DickeBasis:
    """Build the truncated collective ladder matching ``params``.

    Raises ``BasisMismatchError`` for a chain, whose block only
    ``build_quench_block`` builds.
    """
    _require_ladder(params)
    return build_dicke_basis(params.n, params.n_max_value)


def _check_basis(params: ModelParams, basis: DickeBasis) -> None:
    _require_ladder(params)
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


def _jch_moves(params: ModelParams):
    """The chain's off-diagonal terms as moves of one quantum: ``(source, target, coef)`` arrays.

    Modes 0..N-1 are the cavities' photon numbers and N..2N-1 their
    two-level systems.  A move takes one quantum from its source mode to its
    target mode, with matrix element ``coef * sqrt(x_source) *
    sqrt(x_target + 1)`` (``_jch_amplitudes``).  The photon-removing half of
    each Hermitian pair comes first: cavity c to its own two-level system,
    and cavity a to cavity b along each bond (a, b).  The reverse of each
    move follows, in the same order, so that every neighbour of a state is
    listed.
    """
    n = params.n
    source, target, coef = [], [], []
    if params.beta != 0.0:
        source += range(n)
        target += range(n, 2 * n)
        coef += [params.beta] * n
    if params.kappa != 0.0:
        bonds = _jch_bonds(params)
        source += [a for a, _ in bonds]
        target += [b for _, b in bonds]
        coef += [-params.kappa] * len(bonds)
    source, target, coef = source + target, target + source, coef + coef
    return np.array(source, dtype=np.int64), np.array(target, dtype=np.int64), np.array(coef)


def _jch_applicable(moves, modes: np.ndarray):
    """``(rows, terms)`` of every move that applies to a row of ``modes``.

    ``modes`` holds photons then two-level occupations, one state per row.
    A move needs a quantum in its source mode and, into a two-level
    system, an empty one.
    """
    source, target, _ = moves
    n = modes.shape[1] // 2
    return np.nonzero((modes[:, source] > 0) & ((target < n) | (modes[:, target] == 0)))


def _jch_apply(moves, modes: np.ndarray, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """The state that move ``terms[i]`` leads to from ``modes[rows[i]]``, one per row."""
    source, target, _ = moves
    states = modes[rows]
    k = np.arange(rows.shape[0])
    states[k, source[terms]] -= 1
    states[k, target[terms]] += 1
    return states


def _jch_amplitudes(moves, modes: np.ndarray, rows: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """Matrix element of move ``terms[i]`` out of state ``modes[rows[i]]``."""
    source, target, coef = moves
    return (
        coef[terms]
        * np.sqrt(modes[rows, source[terms]])
        * np.sqrt(modes[rows, target[terms]] + 1)
    )


def _jch_diagonal(params: ModelParams, modes: np.ndarray) -> np.ndarray:
    n = params.n
    return params.omega_c * modes[:, :n].sum(axis=1) + params.omega_a * modes[:, n:].sum(axis=1)


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


def build_csr(params: ModelParams, basis: DickeBasis) -> scipy.sparse.csr_array:
    """Sparse symmetric Hamiltonian of the collective ladder; ``.toarray()`` gives the dense matrix.

    Each off-diagonal pair is listed once and mirrored; duplicate entries
    are summed by the conversion to CSR.  Raises ``BasisMismatchError`` for
    a chain.
    """
    _check_basis(params, basis)
    diag, src, dst, vals = _dicke_entries(params, basis)
    idx = np.arange(basis.dim)
    rows = np.concatenate([idx, *src, *dst])
    cols = np.concatenate([idx, *dst, *src])
    data = np.concatenate([diag, *vals, *vals])
    return scipy.sparse.coo_array((data, (rows, cols)), shape=(basis.dim, basis.dim)).tocsr()


def _jch_group(params: ModelParams) -> np.ndarray | None:
    """Every site permutation of the hopping graph's automorphism group, one per row.

    The identity and the reversal for the line; the N rotations and their
    reversals for the ring (D_N).  ``None`` for all-to-all, whose group
    S_N holds every permutation, so that sorting the sites of a state
    gives the member of its orbit with the smallest key.
    """
    if params.topology is Topology.ALL_TO_ALL:
        return None
    sites = np.arange(params.n)
    if params.topology is Topology.LINE:
        return np.array([sites, sites[::-1]])
    rotations = (sites[None, :] + sites[:, None]) % params.n
    return np.vstack([rotations, rotations[:, ::-1]])


class _Orbits:
    """Orbits of chain states under ``_jch_group``, told apart by linear features.

    The features of a state, rows of photons then spins, are ``modes @
    features``, one column per state: on a line or ring the key of its image
    under each group element (the image under g puts site g[c] at position
    c, so modes g[c] and N + g[c] take the key weights of position c);
    all-to-all the code photons - base*spin of each site.  A move changes
    the features by a fixed amount.  An orbit's key is the smallest key of
    its states: the smallest image key on a line or ring, and all-to-all the
    key of the state with its site codes sorted, which puts the excited
    two-level systems first (the low bits of the spin digit) and the
    smaller photon numbers first within each kind.
    """

    def __init__(self, params: ModelParams, base: int):
        n = params.n
        self.base = base
        self.group = _jch_group(params)
        unit = np.eye(2 * n, dtype=np.int64)
        if self.group is None:
            self.features = unit[:, :n] - base * unit[:, n:]
        else:
            weight = _pack_keys(unit[:, :n], unit[:, n:], base)
            self.features = np.zeros((2 * n, self.group.shape[0]), dtype=np.int64)
            for i, g in enumerate(self.group):
                self.features[np.r_[g, n + g], i] = weight

    def keys(self, feats: np.ndarray) -> np.ndarray:
        """Key of each state's orbit from its features."""
        if self.group is None:
            codes = np.sort(feats.T, axis=1)
            spins = (codes < 0).astype(np.int64)
            return _pack_keys(codes + self.base * spins, spins, self.base)
        return feats.min(axis=0)

    def sizes(self, feats: np.ndarray) -> np.ndarray:
        """Number of states in each orbit: |G| / |stabilizer|.

        The number of distinct images on a line or ring; N! / prod(r!) over
        the runs of r equal site codes all-to-all.
        """
        feats = np.sort(feats.T, axis=1)
        if self.group is not None:
            return 1 + np.count_nonzero(feats[:, 1:] != feats[:, :-1], axis=1)
        n = feats.shape[1]
        pos = np.arange(n)
        run_start = np.ones(feats.shape, dtype=bool)
        run_start[:, 1:] = feats[:, 1:] != feats[:, :-1]
        first = np.maximum.accumulate(np.where(run_start, pos, 0), axis=1)
        # The k-th site of a run contributes k, so a run of r sites gives r!.
        return math.factorial(n) // np.prod(pos - first + 1, axis=1)


@dataclass(frozen=True, eq=False)
class QuenchBlock:
    """The orbits a chain's quench reaches, and H on their normalized orbit sums.

    Row i stands for one orbit of the sector under the automorphisms of the
    hopping graph, and ``sizes[i]`` counts its states.  Rows are in the
    order of the orbits' keys, the smallest ``basis._pack_keys`` key of
    their states.  Row ``start``
    is the quench state, an orbit of its own.  ``h`` is the
    bitwise-symmetric Hamiltonian on the orbit sums, less the energy
    w_c*N*m that every state of the sector has in common, and ``jz`` the
    stored-energy observable.
    """

    sizes: np.ndarray
    h: scipy.sparse.csr_array
    jz: np.ndarray
    start: int

    @property
    def dim(self) -> int:
        return self.sizes.shape[0]


def build_quench_block(params: ModelParams) -> QuenchBlock:
    """Walk a chain's orbits breadth-first from the quench state.

    Each level applies every move (``_jch_moves``) to the orbits
    found last and maps the states reached to their orbits' keys; the
    orbits not seen before make the next level.  With |o| the size of orbit
    o and r_o the state that stands for it, the element between the orbit
    sums is

        h[o', o] = sqrt(|o| / |o'|) * sum over s' in o' of H[s', r_o],

    summed from the moves out of r_o.  Each pair is summed once, from the
    orbit the walk found first, and mirrored, so h is bitwise symmetric.
    Raises ``CapacityError`` before walking when the state keys would not
    fit in int64, and as soon as more than ``state_cap()`` orbits are found.
    """
    if params.model is not Model.JCH:
        raise BasisMismatchError("the orbit walk needs a chain of cavities")
    n = params.n
    orbits = _Orbits(params, _key_base(n, params.m))
    cap = state_cap()
    moves = _jch_moves(params)
    # How each move changes the features, one column per move.
    shift = (orbits.features[moves[1]] - orbits.features[moves[0]]).T
    frontier = np.array([[params.m] * n + [0] * n], dtype=np.int64)
    feats = (frontier @ orbits.features).T
    levels, level_feats, level_keys = [frontier], [feats], [orbits.keys(feats)]
    src, dst, terms = [], [], []
    # The walk numbers a level's orbits on from the level's first number in
    # the order of their keys.  A move leads to the level before, the same
    # level or the next one, so only the last two levels are looked up.
    before = level = (level_keys[0], 0)
    found = 1
    while frontier.shape[0]:
        rows, level_terms = _jch_applicable(moves, frontier)
        reached = feats[:, rows] + shift[:, level_terms]
        uniq, inverse = np.unique(orbits.keys(reached), return_inverse=True)
        index = np.full(uniq.shape[0], -1)
        for keys, first in (before, level):
            at = np.minimum(np.searchsorted(keys, uniq), keys.shape[0] - 1)
            hit = keys[at] == uniq
            index[hit] = first + at[hit]
        new = np.flatnonzero(index < 0)
        index[new] = found + np.arange(new.shape[0])
        # Keep each pair once, from the orbit found first (the diagonal too).
        source, target = level[1] + rows, index[inverse]
        keep = target >= source
        src.append(source[keep])
        dst.append(target[keep])
        terms.append(level_terms[keep])
        # A new orbit is stored as one of its states that this level reached.
        pick = np.empty(uniq.shape[0], dtype=np.int64)
        pick[inverse] = np.arange(inverse.shape[0])
        pick = pick[new]
        frontier = _jch_apply(moves, frontier, rows[pick], level_terms[pick])
        feats = reached[:, pick]
        levels.append(frontier)
        level_feats.append(feats)
        level_keys.append(uniq[new])
        before, level = level, (uniq[new], found)
        found += new.shape[0]
        if found > cap:
            raise CapacityError(
                f"the quench of N={n}, m={params.m} reaches more orbits than the cap of "
                f"{cap} set by physical memory"
            )
    modes = np.concatenate(levels)
    src, terms = np.concatenate(src), np.concatenate(terms)
    # Every state holds n*m excitations, so dropping w_c*n*m from the diagonal
    # changes only a global phase; it keeps the eigenvalues, and so their
    # rounding, of the size of the couplings.
    diagonal = _jch_diagonal(params, modes) - params.omega_c * n * params.m
    values = np.r_[diagonal, _jch_amplitudes(moves, modes, src, terms)]
    diag = np.arange(found)
    pairs = np.r_[diag, np.concatenate(dst)] * found + np.r_[diag, src]
    pairs, inverse = np.unique(pairs, return_inverse=True)
    row, col = np.divmod(pairs, found)
    sizes = orbits.sizes(np.concatenate(level_feats, axis=1))
    h_low = np.bincount(inverse, weights=values) * np.sqrt(sizes[col] / sizes[row])
    # Number the orbits in key order.
    order = np.argsort(np.concatenate(level_keys))
    number = np.empty(found, dtype=np.int64)
    number[order] = diag
    row, col = number[row], number[col]
    off = row != col
    entries = np.r_[h_low, h_low[off]], (np.r_[row, col[off]], np.r_[col, row[off]])
    h = scipy.sparse.coo_array(entries, shape=(found, found)).tocsr()
    return QuenchBlock(
        sizes=sizes[order],
        h=h,
        jz=params.omega_a * modes[order, n:].sum(axis=1),
        start=int(number[0]),
    )


def jz_diagonal(params: ModelParams, basis: DickeBasis) -> np.ndarray:
    """Diagonal of the stored-energy observable: w_a times the number of excited systems."""
    _check_basis(params, basis)
    return params.omega_a * (params.n - basis.q)


def initial_index(params: ModelParams, basis: DickeBasis) -> int:
    """Index of the quench state: n*m photons, all systems in the ground state."""
    _check_basis(params, basis)
    try:
        return int(basis.rank(params.n * params.m, params.n))
    except KeyError:
        raise MissingStateError(
            f"initial state ({params.n * params.m} photons) is outside the basis; "
            f"the cutoff must satisfy n_max >= n * m"
        ) from None
