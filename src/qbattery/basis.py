"""State spaces for the lattice and collective cavity-QED battery models.

Two basis constructions are provided, both stored as integer arrays with
one row per basis state:

* a fixed-excitation sector for a chain of cavities, each holding one
  two-level system: ``photons`` and ``spins`` are ``(dim, N)`` arrays of
  per-cavity photon numbers and two-level occupations; and
* a photon-number-truncated collective basis ``(n, q)`` for N identical
  two-level systems coupled to a single mode, where the columns ``n``
  count photons and ``q`` counts systems left in their ground state.

Each basis maps states back to their row through ``rank``: a binary
search on packed integer keys for the sector, the closed form
``n * (N + 1) + q`` for the collective ladder.  Both enumerations are
deterministic: building the same basis twice yields states in the same
order, so matrix and vector indices are reproducible.  Both compare their
closed-form size with ``dynamics.state_cap()`` before they enumerate.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import state_cap

__all__ = [
    "JchBasis",
    "DickeBasis",
    "BasisIndex",
    "CapacityError",
    "total_excitations",
    "jch_sector_dim",
    "build_jch_sector",
    "dicke_dim",
    "build_dicke_basis",
]

class CapacityError(Exception):
    """A run would need more states than ``state_cap()`` or wider state keys."""


def _check_int(name: str, value) -> None:
    """Raise ValueError unless ``operator.index`` takes ``value``.

    A count given as a float, even an integral one, is refused: downstream
    it would be misread (a photon cutoff of 26.0, a quench row rounded from
    n * m).
    """
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True, eq=False)
class JchBasis:
    """Excitation sector of the cavity chain, one state per row.

    ``keys`` packs each row into one int64 (``_pack_keys``), strictly
    increasing with the row index, so ``rank`` is a binary search.
    """

    photons: np.ndarray
    spins: np.ndarray
    keys: np.ndarray

    @property
    def dim(self) -> int:
        return self.photons.shape[0]

    @property
    def excitations(self) -> int:
        return int(self.photons[0].sum() + self.spins[0].sum())

    def rank(self, photons, spins) -> np.ndarray:
        """Row index of each state (or of the single state) given by ``photons`` and ``spins``.

        Raises ``ValueError`` for rows of the wrong length and ``KeyError``
        for a state outside this sector.
        """
        photons = np.asarray(photons, dtype=np.int64)
        spins = np.asarray(spins, dtype=np.int64)
        if photons.shape != spins.shape or photons.shape[-1:] != self.photons.shape[1:]:
            raise ValueError("photons and spins must have one entry per cavity")
        base = self.excitations + 1
        # Digits out of range would carry into a neighbour and alias a valid key.
        if np.any((photons < 0) | (photons >= base) | ((spins != 0) & (spins != 1))):
            raise KeyError("state is not in this basis")
        keys = _pack_keys(photons, spins, base)
        idx = np.minimum(np.searchsorted(self.keys, keys), self.dim - 1)
        if not np.array_equal(self.keys[idx], keys):
            raise KeyError("state is not in this basis")
        return idx


@dataclass(frozen=True, eq=False)
class DickeBasis:
    """Collective ladder ``(n, q)``, one state per entry of the columns ``n`` and ``q``."""

    n: np.ndarray
    q: np.ndarray
    n_systems: int

    @property
    def dim(self) -> int:
        return self.n.shape[0]

    @property
    def n_max(self) -> int:
        return int(self.n[-1])

    def rank(self, n, q) -> np.ndarray:
        """Row index ``n * (N + 1) + q``; ``KeyError`` outside the truncated ladder."""
        n = np.asarray(n, dtype=np.int64)
        q = np.asarray(q, dtype=np.int64)
        if np.any((n < 0) | (n > self.n_max) | (q < 0) | (q > self.n_systems)):
            raise KeyError("state is not in this basis")
        return n * (self.n_systems + 1) + q


# Either basis: both have ``dim`` and a ``rank`` from states to rows.
BasisIndex = JchBasis | DickeBasis


def total_excitations(photons, spins) -> np.ndarray:
    """Conserved excitation number of each state: photons plus excited two-level systems."""
    return np.sum(photons, axis=-1) + np.sum(spins, axis=-1)


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


def _key_base(n_cavities: int, m: int) -> int:
    """Digit base of the sector's state keys; ``CapacityError`` when a key would overflow int64.

    A key reads the spin pattern as a little-endian bit integer in its top
    digit, then the photon numbers as digits in base ``N*m + 1``, cavity 0
    first, so every key lies below ``(2 * base) ** N``.
    """
    base = n_cavities * m + 1
    if (2 * base) ** n_cavities > np.iinfo(np.int64).max:
        raise CapacityError(
            f"sector for N={n_cavities}, m={m} has state keys too wide for 64-bit integers"
        )
    return base


def _pack_keys(photons: np.ndarray, spins: np.ndarray, base: int) -> np.ndarray:
    """Key of each row of ``photons`` and ``spins``, in the digit base of ``_key_base``."""
    n_cavities = photons.shape[-1]
    bits = np.int64(1) << np.arange(n_cavities, dtype=np.int64)
    digits = np.int64(base) ** np.arange(n_cavities - 1, -1, -1, dtype=np.int64)
    return (spins @ bits) * np.int64(base) ** n_cavities + photons @ digits


def _photon_rows(total: int, parts: int) -> np.ndarray:
    """All ``parts``-tuples of nonnegative ints summing to ``total``, lexicographic.

    Stars and bars: the positions of ``parts - 1`` bars among
    ``total + parts - 1`` slots, taken in lexicographic order, give the
    compositions in lexicographic order.
    """
    slots = total + parts - 1
    flat = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64,
    )
    bars = flat.reshape(math.comb(slots, parts - 1), parts - 1)
    edges = np.hstack(
        [np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), slots)]
    )
    return np.diff(edges, axis=1) - 1


def build_jch_sector(n_cavities: int, m: int) -> JchBasis:
    """Enumerate the excitation sector reached by quenching m photons into each cavity.

    The sector holds every configuration with ``sum(photons) + sum(spins)
    == n_cavities * m``.  States are ordered by the spin pattern read as a
    little-endian bit integer (cavity 0 is the least significant bit), then
    by the photon tuple in lexicographic order.  Raises ``CapacityError``
    before enumerating when the sector exceeds ``state_cap()`` states or
    its keys would not fit in 64 bits.
    """
    if n_cavities < 1:
        raise ValueError(f"need at least one cavity, got {n_cavities}")
    if m < 1:
        raise ValueError(f"photons per cavity must be positive, got {m}")
    dim = jch_sector_dim(n_cavities, m)
    cap = state_cap()
    if dim > cap:
        raise CapacityError(
            f"sector for N={n_cavities}, m={m} holds {dim} states, "
            f"over the cap of {cap} set by physical memory"
        )
    total = n_cavities * m
    base = _key_base(n_cavities, m)
    patterns = (np.arange(2**n_cavities)[:, None] >> np.arange(n_cavities)) & 1
    left = total - patterns.sum(axis=1)
    blocks = {k: _photon_rows(k, n_cavities) for k in np.unique(left)}
    photons = np.concatenate([blocks[k] for k in left])
    spins = np.repeat(patterns, [blocks[k].shape[0] for k in left], axis=0)
    if photons.shape[0] != dim:
        raise AssertionError("enumerated sector size disagrees with the closed form")
    return JchBasis(photons=photons, spins=spins, keys=_pack_keys(photons, spins, base))


def dicke_dim(n_systems: int, n_max: int) -> int:
    return (n_max + 1) * (n_systems + 1)


def build_dicke_basis(n_systems: int, n_max: int) -> DickeBasis:
    """Enumerate collective states ``(n, q)`` with n <= n_max photons, q of N systems in the ground state.

    Ordered by ``(n, q)`` ascending, so ``index = n * (N + 1) + q``.  Raises
    ``CapacityError`` before enumerating when the ladder exceeds
    ``state_cap()`` states.
    """
    _check_int("n_systems", n_systems)
    _check_int("n_max", n_max)
    if n_systems < 1:
        raise ValueError(f"need at least one two-level system, got {n_systems}")
    if n_max < 0:
        raise ValueError(f"photon cutoff must be nonnegative, got {n_max}")
    dim = dicke_dim(n_systems, n_max)
    cap = state_cap()
    if dim > cap:
        raise CapacityError(
            f"basis for N={n_systems}, n_max={n_max} holds {dim} states, "
            f"over the cap of {cap} set by physical memory"
        )
    n, q = np.divmod(np.arange(dim, dtype=np.int64), n_systems + 1)
    return DickeBasis(n=n, q=q, n_systems=n_systems)
