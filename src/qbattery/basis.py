"""State spaces for the lattice and collective cavity-QED battery models.

A chain of cavities, each holding one two-level system, conserves its
excitation number, so its quench stays in the sector of N*m excitations.
That sector is never enumerated: ``jch_sector_dim`` gives its size in
closed form, and ``_key_base`` and ``_pack_keys`` pack each state (per-cavity
photon numbers and two-level occupations) into one integer key, which the
orbit walk of ``hamiltonians.build_quench_block`` orders its states by.

The collective model's states ``(n, q)`` for N identical two-level systems
coupled to a single mode, where ``n`` counts photons and ``q`` counts
systems left in their ground state, form a photon-number-truncated ladder
stored as integer columns, one row per state.  ``rank`` maps states back
to rows by the closed form ``n * (N + 1) + q``.  The enumeration is
deterministic and compares its closed-form size with
``dynamics.state_cap()`` before it allocates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .dynamics import state_cap

__all__ = [
    "DickeBasis",
    "CapacityError",
    "jch_sector_dim",
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
