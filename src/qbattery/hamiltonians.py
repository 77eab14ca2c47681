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

``build_quench_block`` builds the block of H that a quench evolves, for
both models, and is the only builder the engines read.

A chain of cavities conserves its excitation number, so its quench stays
in the sector of N*m excitations.  That sector is never enumerated:
``jch_sector_dim`` gives its size in closed form, and ``_key_base`` and
``_pack_keys`` pack each state (per-cavity photon numbers and two-level
occupations) into one int64 key, a digit per cavity for the photons it
can hold: N*m with hopping, its own m without.  The chain's off-diagonal
terms are listed once, in ``_jch_moves``, as moves of one quantum between
modes (a photon between cavities, or between a cavity and its two-level
system).
Every automorphism of the hopping graph permutes the cavities without
changing H, the quench state or the stored energy, so a chain's quench
never leaves the span of the normalized orbit sums.  The chain's block is
H on the orbit sums the quench reaches: a breadth-first walk from the
quench state that tells orbits apart by a canonical key, the smallest key
of their states.

The collective ladder holds photon numbers 0..n_max and q = 0..N systems
in the ground state, row ``n * (N + 1) + q``.  The ladder's block is built
on the rows its quench reaches, which the conservation laws give: the
rows of the quench's parity of n + q, or the at most N + 1 rows of its
n - q or n + q when one coupling is off.  ``_dicke_entries`` lists H on
those rows: numpy computes the diagonal and one half of every Hermitian
pair of off-diagonal elements at once, finds each target by its ladder
key, and mirrors the pairs, so exact bitwise symmetry holds.
``build_csr`` lists H on the whole ladder, the block's reference.

Both builders give the block as its stored entries, numpy (row, col,
value) triplets with no (row, col) pair listed twice.  The dense engine
scatters them into a matrix (``QuenchBlock.dense``); only the Chebyshev
engine, the disc bound and ``build_csr`` need a SciPy CSR matrix, so
SciPy is imported where one is built and a dense quench never loads it.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .dynamics import state_cap

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "Model",
    "Topology",
    "Normalization",
    "ModelParams",
    "CapacityError",
    "MissingStateError",
    "jch_sector_dim",
    "build_csr",
    "QuenchBlock",
    "build_quench_block",
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


class CapacityError(Exception):
    """A run would need more states than ``state_cap()`` or wider state keys."""


class MissingStateError(LookupError):
    """The quench initial state is not on the collective ladder."""


def _check_int(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer other than a bool.

    A count given as a float, even an integral one, is refused: downstream
    it would be misread (a photon cutoff of 26.0, a quench row rounded from
    n * m).  So is a bool, which ``operator.index`` reads as 0 or 1.
    """
    try:
        operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ModelParams:
    """Physical and numerical parameters of one battery configuration.

    ``n`` is the number of cavities (lattice) or two-level systems
    (collective); ``m`` the number of photons prepared per cavity, so the
    quench starts with ``n * m`` photons and every two-level system in its
    ground state.  ``beta_prime=None`` means "same as beta".  ``n_max`` is
    the collective-model photon cutoff, defaulting to ``5 * n * m``.
    ``model``, ``topology`` and ``normalization`` must be members of their
    enums; their string values are refused.

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
        # A string would compare unequal to every member and quietly take
        # the last branch of each dispatch: "line" would hop all-to-all.
        for name, kind in (
            ("model", Model), ("topology", Topology), ("normalization", Normalization)
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
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


def jch_sector_dim(n_cavities: int, m: int) -> int:
    """Closed-form sector size: sum over k excited spins of C(N,k) photon placements.

    With M = N*m total excitations, k of them stored in two-level systems
    leaves M - k photons distributed over N cavities (stars and bars).
    """
    _check_int("n_cavities", n_cavities)
    _check_int("m", m)
    total = n_cavities * m
    return sum(
        math.comb(n_cavities, k)
        * math.comb(total - k + n_cavities - 1, n_cavities - 1)
        for k in range(min(n_cavities, total) + 1)
    )


def _key_base(n_cavities: int, most: int) -> int:
    """Digit base of the sector's state keys; ``CapacityError`` when a key would overflow int64.

    A key reads the spin pattern as a little-endian bit integer in its top
    digit, then the photon numbers as digits in base ``most + 1``, cavity
    0 first, so every key lies below ``(2 * base) ** N``.  ``most``, the
    most photons a cavity holds, is N*m with hopping and m without.
    """
    base = most + 1
    if (2 * base) ** n_cavities > np.iinfo(np.int64).max:
        raise CapacityError(
            f"N={n_cavities}, {most} photons a cavity: state keys too wide for 64-bit integers"
        )
    return base


def _pack_keys(photons: np.ndarray, spins: np.ndarray, base: int) -> np.ndarray:
    """Key of each row of ``photons`` and ``spins``, in the digit base of ``_key_base``."""
    n_cavities = photons.shape[-1]
    bits = np.int64(1) << np.arange(n_cavities, dtype=np.int64)
    digits = np.int64(base) ** np.arange(n_cavities - 1, -1, -1, dtype=np.int64)
    return (spins @ bits) * np.int64(base) ** n_cavities + photons @ digits


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


def _check_cap(what: str, dim: int) -> None:
    """``CapacityError`` when ``what`` holds more than ``state_cap()`` states."""
    cap = state_cap()
    if dim > cap:
        raise CapacityError(
            f"{what} holds {dim} states, over the cap of {cap} set by physical memory"
        )


def _dicke_ladder(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Photons ``n`` and ground-state systems ``q`` of each row of the whole collective ladder.

    Ordered by ``(n, q)`` ascending over n <= n_max photons and q <= N,
    so row ``n * (N + 1) + q``.  Raises ``ValueError`` for a chain, and
    ``CapacityError`` before enumerating when the ladder holds more than
    ``state_cap()`` states.
    """
    if params.model is not Model.DICKE:
        raise ValueError("a chain has no collective ladder: build_quench_block walks its block")
    nsys, n_max = params.n, params.n_max_value
    dim = (n_max + 1) * (nsys + 1)
    _check_cap(f"ladder for N={nsys}, n_max={n_max}", dim)
    return np.divmod(np.arange(dim, dtype=np.int64), nsys + 1)


def _dicke_entries(
    params: ModelParams, n: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H of the collective model on the ladder rows ``(n, q)``, as entries.

    The rows are in ladder order, and with each row they hold every row its
    couplings absorb a photon into.  Returns ``(rows, cols, values)``,
    numbered in the given rows: the diagonal, then each Hermitian pair of
    off-diagonal elements.  Ladder amplitudes use j = N/2, m_j = N/2 - q:

        photon absorbed, spin raised  (n, q) -> (n-1, q-1):  sqrt(n) * J+ amplitude, weight g
        photon absorbed, spin lowered (n, q) -> (n-1, q+1):  sqrt(n) * J- amplitude, weight g'

    A target is found by its ladder key ``n * (N + 1) + q``.  Their
    Hermitian partners are the mirrored entries, and emission targets
    outside the rows are dropped.  Each pair is listed once and mirrored,
    so no (row, col) pair repeats.
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
    mj = j - q
    if params.literal_elements:
        diag = params.omega_c * (n + mj)
    else:
        diag = params.omega_c * n + params.omega_a * (nsys - q)
    key = n * (nsys + 1) + q
    src, dst, vals = [], [], []
    for g, dq, allowed in ((g_rot, -1, q >= 1), (g_cnt, 1, q <= nsys - 1)):
        if g == 0.0:
            continue
        # m_j (m_j + 1) for J+, m_j (m_j - 1) for J-.
        amp = np.sqrt(n * (jj - mj * (mj - dq)))
        rows = np.flatnonzero((n > 0) & allowed & (amp != 0.0))
        vals.append(g * amp[rows])
        src.append(rows)
        dst.append(np.searchsorted(key, key[rows] - (nsys + 1 - dq)))
    idx = np.arange(n.shape[0])
    rows = np.concatenate([idx, *src, *dst])
    cols = np.concatenate([idx, *dst, *src])
    return rows, cols, np.concatenate([diag, *vals, *vals])


def _csr(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dim: int) -> scipy.sparse.csr_array:
    """CSR matrix of the entries, sorted columns; int32 indices, as dim < state_cap() < 2**31."""
    import scipy.sparse

    coords = (rows.astype(np.int32), cols.astype(np.int32))
    return scipy.sparse.coo_array((values, coords), shape=(dim, dim)).tocsr()


def build_csr(params: ModelParams) -> scipy.sparse.csr_array:
    """Sparse symmetric H on the whole collective ladder; ``.toarray()`` gives the dense matrix.

    Row ``n * (N + 1) + q`` holds n photons and q systems in the ground
    state, n <= n_max.  The reference that the ladder's quench block,
    built from its own rows, is checked against: the block is this matrix
    cut to the rows the quench reaches.  Raises ``ValueError`` for a chain.
    """
    n, q = _dicke_ladder(params)
    return _csr(*_dicke_entries(params, n, q), n.shape[0])


def _jch_group(params: ModelParams) -> np.ndarray | None:
    """Every site permutation of the hopping graph's automorphism group, one per row.

    The identity and the reversal for the line; the N rotations and their
    reversals for the ring (D_N).  ``None`` for S_N, which holds every
    permutation, so that sorting the sites of a state gives the member of
    its orbit with the smallest key: the group of all-to-all, and of every
    chain at kappa = 0, which has no hopping bonds for a permutation to
    break.
    """
    if params.kappa == 0.0 or params.topology is Topology.ALL_TO_ALL:
        return None
    sites = np.arange(params.n)
    if params.topology is Topology.LINE:
        return np.array([sites, sites[::-1]])
    rotations = (sites[None, :] + sites[:, None]) % params.n
    return np.vstack([rotations, rotations[:, ::-1]])


class _Orbits:
    """Orbits of chain states under ``_jch_group``, told apart by linear features.

    The group is S_N all-to-all and, on every topology, at kappa = 0, where
    the walk then finds N + 1 orbits, one per number of excited two-level
    systems.  The features of a state, rows of photons then spins, are
    ``modes @ features``, one column per state: on a line or ring with
    hopping the key of its image under each group element (the image under
    g puts site g[c] at position c, so modes g[c] and N + g[c] take the key
    weights of position c); under S_N the code photons - base*spin of each
    site.  A move changes the features by a fixed amount.  An orbit's key
    is the smallest key of its states: the smallest image key on a line or
    ring, and under S_N the key of the state with its site codes sorted,
    which puts the excited two-level systems first (the low bits of the spin
    digit) and the smaller photon numbers first within each kind.
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
        the runs of r equal site codes under S_N, as exact Python integers,
        since N! outgrows int64 from N = 21.
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
        return math.factorial(n) // np.prod(pos - first + 1, axis=1, dtype=object)


@dataclass(frozen=True, eq=False)
class QuenchBlock:
    """The states a quench reaches, and H on them: the block the engines evolve.

    For a chain, row i stands for one orbit of the sector under the
    automorphisms of the hopping graph, and ``sizes[i]`` counts its states;
    rows are in the order of the orbits' keys, the smallest ``_pack_keys``
    key of their states, and H is the Hamiltonian on the normalized orbit
    sums, less the energy w_c*N*m that every state of the sector has in
    common.  For the collective model every row is one ladder state
    (``sizes`` all 1), in ladder order, and H is ``build_csr``'s matrix
    cut to the rows of the quench's conserved quantities, listed on those
    rows alone (``_ladder_block``).  ``jz`` is the stored-energy
    observable, and row ``start`` is the quench state, an orbit of its own.  ``sector_dim``
    counts the states of the space the block is cut from: the chain's
    excitation sector (``jch_sector_dim``) or the whole ladder,
    (n_max + 1) * (N + 1).

    H is held as its stored entries: ``values[i]`` at ``(rows[i],
    cols[i])``, each pair listed once, each off-diagonal entry beside its
    bitwise-equal mirror.  ``dense()`` scatters them into the matrix that
    ``eigh`` takes; ``h``, the CSR matrix of the Chebyshev engine and the
    disc bound, is built from them on first use, which is the first time
    the block imports SciPy.
    """

    sizes: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    jz: np.ndarray
    start: int
    sector_dim: int

    @property
    def dim(self) -> int:
        return self.sizes.shape[0]

    @functools.cached_property
    def h(self) -> scipy.sparse.csr_array:
        """H as a CSR matrix with sorted columns; built once, on first use."""
        return _csr(self.rows, self.cols, self.values, self.dim)

    def dense(self) -> np.ndarray:
        """H as a dense (dim, dim) array; no entry repeats, so each is written once."""
        out = np.zeros((self.dim, self.dim))
        out[self.rows, self.cols] = self.values
        return out


def build_quench_block(params: ModelParams) -> QuenchBlock:
    """The block of H that the quench of ``params`` evolves, for either model.

    A chain walks its orbits from the quench state (``_chain_block``); the
    collective ladder is built on the rows of its quench's conserved
    quantities (``_ladder_block``).  Raises ``CapacityError`` before a
    builder passes ``state_cap()`` states.
    """
    if params.model is Model.DICKE:
        return _ladder_block(params)
    return _chain_block(params)


def _chain_block(params: ModelParams) -> QuenchBlock:
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
    n = params.n
    orbits = _Orbits(params, _key_base(n, params.m if params.kappa == 0.0 else n * params.m))
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
    h_low = np.bincount(inverse, weights=values) * np.sqrt((sizes[col] / sizes[row]).astype(float))
    # Number the orbits in key order.
    order = np.argsort(np.concatenate(level_keys))
    number = np.empty(found, dtype=np.int64)
    number[order] = diag
    row, col = number[row], number[col]
    off = row != col
    return QuenchBlock(
        sizes=sizes[order],
        rows=np.r_[row, col[off]],
        cols=np.r_[col, row[off]],
        values=np.r_[h_low, h_low[off]],
        jz=params.omega_a * modes[order, n:].sum(axis=1),
        start=int(number[0]),
        sector_dim=jch_sector_dim(n, params.m),
    )


def _ladder_block(params: ModelParams) -> QuenchBlock:
    """H on the rows of the collective ladder that its quench reaches, by the conservation laws.

    The quench state holds N*m photons and every system in its ground
    state; ``MissingStateError`` when the cutoff leaves it off the ladder
    (n_max < N*m).  Every coupling term moves one photon and one two-level
    system, so n + q keeps its parity (the Dicke parity); the rotating
    terms alone conserve n - q and the counter-rotating ones alone n + q.
    With both couplings on, the rows are the whole ladder's rows of the
    quench's parity.  Otherwise they are the rows of its n - q (beta' = 0)
    or n + q (beta = 0), one per q, or its own row alone: at most N + 1,
    checked against ``state_cap()`` with no other row enumerated.  Each row
    is joined to the quench state by nonzero couplings, so the block is
    exactly the set the quench reaches.
    """
    nsys, n_max, photons = params.n, params.n_max_value, params.n * params.m
    if photons > n_max:
        raise MissingStateError(
            f"initial state ({photons} photons) is outside the ladder; "
            f"the cutoff must satisfy n_max >= n * m"
        )
    beta, beta_prime = params.beta, params.beta_prime_value
    if beta != 0.0 and beta_prime != 0.0:
        n, q = _dicke_ladder(params)
        keep = (n + q) % 2 == (photons + nsys) % 2
        n, q = n[keep], q[keep]
    else:
        # In ladder order: n rises with q when beta' = 0 and falls when beta = 0.
        step = 1 if beta_prime == 0.0 else -1
        q = np.arange(nsys + 1)[::step] if beta or beta_prime else np.array([nsys])
        n = photons + step * (q - nsys)
        n, q = n[n <= n_max], q[n <= n_max]
        _check_cap(f"the quench block of N={nsys}, m={params.m}", n.shape[0])
    rows, cols, values = _dicke_entries(params, n, q)
    return QuenchBlock(
        sizes=np.ones(n.shape[0], dtype=np.int64),
        rows=rows,
        cols=cols,
        values=values,
        jz=params.omega_a * (nsys - q),
        start=int(np.searchsorted(n * (nsys + 1) + q, photons * (nsys + 1) + nsys)),
        sector_dim=(n_max + 1) * (nsys + 1),
    )
