"""The chain sector and the collective ladder: sizes, ordering, validation and closure."""

import itertools

import numpy as np
import pytest

from qbattery.hamiltonians import (
    CapacityError,
    Model,
    ModelParams,
    Topology,
    _dicke_ladder,
    _jch_applicable,
    _jch_apply,
    _jch_moves,
    build_csr,
    build_quench_block,
    jch_sector_dim,
)

from oracles import chain_sector, dicke_ladder


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **{"beta": 0.5, **kw})


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
    assert chain_sector(n, m).dim == expected


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_jch_sector_matches_brute_force(n, m):
    # The sector the tests take as reference holds every state, once.
    sector = chain_sector(n, m)
    expected = brute_force_sector(n, m)
    got = {(tuple(p), tuple(s)) for p, s in zip(sector.photons.tolist(), sector.spins.tolist())}
    assert got == expected
    assert sector.dim == jch_sector_dim(n, m) == len(expected)


def test_determinism_same_ordering():
    params = dicke(n=4, n_max=11)
    b1, b2 = build_quench_block(params), build_quench_block(params)
    assert np.array_equal(b1.h.toarray(), b2.h.toarray())
    assert np.array_equal(b1.jz, b2.jz) and b1.start == b2.start


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
    # On the complete graph a photon may hop between any two cavities, so the
    # moves the walk applies lead from each state to exactly the states one
    # Hamiltonian term reaches, all inside the sector.
    params = ModelParams(
        model=Model.JCH, n=n, m=m, beta=0.05, kappa=0.1, topology=Topology.ALL_TO_ALL
    )
    sector = chain_sector(n, m)
    modes = np.hstack([sector.photons, sector.spins])
    moves = _jch_moves(params)
    rows, terms = _jch_applicable(moves, modes)
    reached = _jch_apply(moves, modes, rows, terms)
    sector.rank(reached[:, :n], reached[:, n:])  # raises KeyError outside the sector
    for i, (photons, spins) in enumerate(zip(sector.photons.tolist(), sector.spins.tolist())):
        expected = sorted(tuple(p + s) for p, s in _jch_neighbors(photons, spins))
        assert sorted(map(tuple, reached[rows == i].tolist())) == expected


def test_capacity_cap(cap_states):
    # 10^12 states under this host's own cap: enumerating them would not fit
    # in memory, so the error must come first.
    with pytest.raises(CapacityError, match="cap of"):
        build_quench_block(dicke(n=10**6 - 1, n_max=10**6 - 1))
    # The N=15 ladder up to 15 photons holds 256 states.
    params = dicke(n=15, n_max=15)
    cap_states(255)
    for build in (build_csr, build_quench_block):
        with pytest.raises(CapacityError, match="cap of 255 set by physical memory"):
            build(params)
    cap_states(256)
    assert build_csr(params).shape == (256, 256)
    assert build_quench_block(params).sector_dim == 256


@pytest.mark.parametrize("beta, beta_prime", [(0.05, 0.0), (0.0, 0.05)])
def test_one_coupling_cut_enumerates_only_its_rows(cap_states, beta, beta_prime):
    # Either one-coupling cut at N=40, m=1000 holds 41 of the 8,200,041
    # ladder states: the cap judges the cut's own rows, never the ladder.
    params = dicke(n=40, m=1000, beta=beta, beta_prime=beta_prime)
    cap_states(41)
    block = build_quench_block(params)
    assert (block.dim, block.sector_dim) == (41, 8_200_041)
    cap_states(40)
    with pytest.raises(CapacityError, match="holds 41 states, over the cap of 40"):
        build_quench_block(params)


def test_key_overflow_raises_before_enumeration(cap_states):
    # 2^16 spin patterns times 17^16 photon digits cannot be packed into int64,
    # so the walk must stop before it keys a single state.  The sector holds
    # 1.5e11 states; with a cap above it, the key check decides.
    assert jch_sector_dim(16, 1) > 10**11
    cap_states(10**30)
    with pytest.raises(CapacityError, match="64-bit"):
        build_quench_block(ModelParams(model=Model.JCH, n=16, m=1, beta=0.05, kappa=0.05))


def test_jch_sector_dim_refuses_a_float_count():
    for n, m in ((2, 1.5), (2.0, 1)):
        with pytest.raises(ValueError, match="must be an integer"):
            jch_sector_dim(n, m)


@pytest.mark.parametrize(
    "n, n_max, expected",
    [(2, 10, 33), (20, 100, 2121), (1, 0, 2)],
)
def test_dicke_dimensions(n, n_max, expected):
    params = dicke(n=n, n_max=n_max)
    assert build_csr(params).shape == (expected, expected)
    assert _dicke_ladder(params)[0].shape == (expected,)
    if n_max >= n:  # the quench state is on the ladder
        assert build_quench_block(params).sector_dim == expected


def test_dicke_ordering_and_index_formula():
    params = dicke(n=3, n_max=6)
    n, q = _dicke_ladder(params)
    ladder = dicke_ladder(params)
    assert np.array_equal(n, ladder.n) and np.array_equal(q, ladder.q)
    assert np.array_equal(ladder.rank(n, q), np.arange(n.shape[0]))
    assert np.array_equal(n * (3 + 1) + q, np.arange(n.shape[0]))
    assert (n[0], q[0]) == (0, 0)
    assert (n[-1], q[-1]) == (6, 3)


def test_dicke_validation():
    with pytest.raises(ValueError, match="n must be a positive integer"):
        dicke(n=0, m=1, n_max=5)
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        dicke(n=2, m=1, n_max=-1)


def test_dicke_basis_refuses_a_float_count():
    # A cutoff of 4.5 used to build a 17-state ladder holding 5 photons.
    for n, n_max in ((2, 4.5), (2.0, 4)):
        with pytest.raises(ValueError, match="must be an integer"):
            dicke(n=n, n_max=n_max)
