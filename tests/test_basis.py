"""Basis enumeration: sizes, ordering, bijectivity, and sector closure."""

import itertools

import numpy as np
import pytest

from qbattery import basis as basis_module
from qbattery.basis import (
    BasisIndex,
    CapacityError,
    build_dicke_basis,
    build_jch_sector,
    dicke_dim,
    jch_sector_dim,
    total_excitations,
)


def brute_force_sector(n, m):
    """Independent enumeration: photons up to N*m per cavity, spins 0/1, fixed total."""
    total = n * m
    states = set()
    for photons in itertools.product(range(total + 1), repeat=n):
        for spins in itertools.product((0, 1), repeat=n):
            if sum(photons) + sum(spins) == total:
                states.add((photons, spins))
    return states


@pytest.mark.parametrize(
    "n, m, expected",
    [(1, 1, 2), (2, 1, 8), (3, 1, 38), (4, 1, 192), (2, 2, 16), (2, 3, 24), (5, 1, 1002)],
)
def test_jch_sector_dimensions(n, m, expected):
    assert jch_sector_dim(n, m) == expected
    assert build_jch_sector(n, m).dim == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_jch_sector_matches_brute_force(n, m):
    basis = build_jch_sector(n, m)
    expected = brute_force_sector(n, m)
    got = {(tuple(p), tuple(s)) for p, s in zip(basis.photons.tolist(), basis.spins.tolist())}
    assert got == expected
    assert basis.dim == len(expected)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 1), (2, 2), (4, 1)])
def test_jch_bijectivity_and_invariants(n, m):
    basis = build_jch_sector(n, m)
    rows = np.hstack([basis.photons, basis.spins])
    assert len({tuple(r) for r in rows.tolist()}) == basis.dim
    assert np.array_equal(basis.rank(basis.photons, basis.spins), np.arange(basis.dim))
    for i in range(basis.dim):
        assert basis.rank(basis.photons[i], basis.spins[i]) == i
    assert basis.photons.shape == basis.spins.shape == (basis.dim, n)
    assert np.all(basis.photons >= 0)
    assert np.all((basis.spins == 0) | (basis.spins == 1))
    assert np.all(total_excitations(basis.photons, basis.spins) == n * m)


def test_jch_enumeration_order_documented():
    # Spins ordered as little-endian bit integers, then photons lexicographic.
    basis = build_jch_sector(2, 1)

    def state(i):
        return basis.photons[i].tolist(), basis.spins[i].tolist()

    assert state(0) == ([0, 2], [0, 0])
    assert state(1) == ([1, 1], [0, 0])
    assert state(2) == ([2, 0], [0, 0])
    # spin_bits = 1 means cavity 0 excited.
    assert state(3) == ([0, 1], [1, 0])
    assert state(-1) == ([0, 0], [1, 1])


def test_determinism_same_ordering():
    a = build_jch_sector(3, 2)
    b = build_jch_sector(3, 2)
    assert np.array_equal(a.photons, b.photons)
    assert np.array_equal(a.spins, b.spins)
    d1 = build_dicke_basis(4, 11)
    d2 = build_dicke_basis(4, 11)
    assert np.array_equal(d1.n, d2.n)
    assert np.array_equal(d1.q, d2.q)


def _jch_neighbors(photons, spins):
    """All (photons, spins) reachable by one Hamiltonian term: photon<->spin swap or a hop."""
    n = len(photons)
    out = []
    for c in range(n):
        p, s = photons[c], spins[c]
        if p > 0 and s == 0:  # photon absorbed, system excited
            out.append(
                (photons[:c] + [p - 1] + photons[c + 1 :], spins[:c] + [1] + spins[c + 1 :])
            )
        if s == 1:  # system relaxes, photon emitted
            out.append(
                (photons[:c] + [p + 1] + photons[c + 1 :], spins[:c] + [0] + spins[c + 1 :])
            )
    for src in range(n):
        for dst in range(n):
            if src != dst and photons[src] > 0:
                moved = list(photons)
                moved[src] -= 1
                moved[dst] += 1
                out.append((moved, spins))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_jch_sector_closed_under_generators(n, m):
    basis = build_jch_sector(n, m)
    for photons, spins in zip(basis.photons.tolist(), basis.spins.tolist()):
        for neighbor in _jch_neighbors(photons, spins):
            basis.rank(*neighbor)  # raises KeyError outside the sector


def test_capacity_cap(monkeypatch, cap_states):
    # 10^12 states under this host's own cap: enumerating them would not fit
    # in memory, so the error must come first.
    with pytest.raises(CapacityError, match="cap of"):
        build_dicke_basis(10**6 - 1, 10**6 - 1)
    # Both bases below hold 192 states: the N=4 sector, and the N=15 ladder
    # up to 11 photons.
    assert jch_sector_dim(4, 1) == dicke_dim(15, 11) == 192

    def refuse(*args):
        raise AssertionError("the sector was enumerated past the cap")

    with monkeypatch.context() as patch:
        patch.setattr(basis_module, "_photon_rows", refuse)
        cap_states(191)
        with pytest.raises(CapacityError, match="cap of 191 set by physical memory"):
            build_jch_sector(4, 1)
        with pytest.raises(CapacityError, match="cap of 191 set by physical memory"):
            build_dicke_basis(15, 11)
    cap_states(192)
    assert build_jch_sector(4, 1).dim == build_dicke_basis(15, 11).dim == 192


def test_key_overflow_raises_before_enumeration(cap_states):
    # 2^16 spin patterns times 17^16 photon digits cannot be packed into int64.
    # The sector (1.5e11 states) would not fit in memory, so the error must
    # come before any enumeration; with a cap above it, the key check decides.
    assert jch_sector_dim(16, 1) > 10**11
    cap_states(10**30)
    with pytest.raises(CapacityError, match="64-bit"):
        build_jch_sector(16, 1)


@pytest.mark.parametrize("n, m", [(0, 1), (1, 0), (-2, 1)])
def test_jch_validation(n, m):
    with pytest.raises(ValueError):
        build_jch_sector(n, m)


def test_jch_sector_refuses_a_float_count():
    # A float count used to reach math.comb and raise TypeError.
    for n, m in ((2, 1.5), (2.0, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            build_jch_sector(n, m)


def test_jch_sector_dim_refuses_a_float_count():
    for n, m in ((2, 1.5), (2.0, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            jch_sector_dim(n, m)


def test_jch_state_length_mismatch():
    basis = build_jch_sector(2, 1)
    with pytest.raises(ValueError):
        basis.rank(photons=(1, 0), spins=(0,))
    with pytest.raises(ValueError):
        basis.rank(photons=(1, 0, 0), spins=(0, 0, 0))


@pytest.mark.parametrize(
    "n, n_max, expected",
    [(2, 10, 33), (20, 100, 2121), (1, 0, 2)],
)
def test_dicke_dimensions(n, n_max, expected):
    assert dicke_dim(n, n_max) == expected
    assert build_dicke_basis(n, n_max).dim == expected


def test_dicke_ordering_and_index_formula():
    n_sys, n_max = 3, 6
    basis = build_dicke_basis(n_sys, n_max)
    assert np.all((0 <= basis.n) & (basis.n <= n_max))
    assert np.all((0 <= basis.q) & (basis.q <= n_sys))
    assert np.array_equal(basis.rank(basis.n, basis.q), basis.n * (n_sys + 1) + basis.q)
    assert np.array_equal(basis.rank(basis.n, basis.q), np.arange(basis.dim))
    assert (basis.n[0], basis.q[0]) == (0, 0)
    assert (basis.n[-1], basis.q[-1]) == (n_max, n_sys)


def test_dicke_validation():
    with pytest.raises(ValueError):
        build_dicke_basis(0, 5)
    with pytest.raises(ValueError):
        build_dicke_basis(2, -1)


def test_dicke_basis_refuses_a_float_count():
    # A cutoff of 4.5 used to build a 17-state ladder holding 5 photons.
    for n, n_max in ((2, 4.5), (2.0, 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            build_dicke_basis(n, n_max)


@pytest.mark.parametrize(
    "photons, spins, expected",
    [((1, 1), (0, 0), 2), ((0, 0), (1, 1), 2), ((3, 0, 2), (1, 0, 1), 7)],
)
def test_total_excitations(photons, spins, expected):
    assert total_excitations(photons, spins) == expected


def test_basis_index_unknown_state():
    basis = build_jch_sector(2, 1)
    # Photon numbers beyond the packing base.
    with pytest.raises(KeyError):
        basis.rank(photons=(5, 5), spins=(0, 0))
    # Valid digits, but the wrong excitation number: the binary search lands
    # on a neighbouring key, which must be told apart from a match.
    for photons, spins in [((0, 0), (0, 0)), ((2, 2), (1, 1)), ((0, 1), (0, 0))]:
        with pytest.raises(KeyError):
            basis.rank(photons=photons, spins=spins)
    # One bad row among valid ones.
    with pytest.raises(KeyError):
        basis.rank(photons=[[1, 1], [0, 0]], spins=[[0, 0], [0, 0]])
    with pytest.raises(KeyError):
        basis.rank(photons=(1, 1), spins=(0, 2))
    dicke = build_dicke_basis(2, 3)
    for n, q in [(4, 0), (0, 3), (-1, 1)]:
        with pytest.raises(KeyError):
            dicke.rank(n, q)


def test_basis_index_is_reusable_mapping():
    basis = build_dicke_basis(2, 3)
    assert isinstance(basis, BasisIndex)
    assert isinstance(build_jch_sector(2, 1), BasisIndex)
    assert basis.dim == len(basis.n) == len(basis.q) == 12
