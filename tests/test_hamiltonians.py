"""Hamiltonian assembly against independent operator-level oracles."""

import itertools
import math

import numpy as np
import pytest

from qbattery import hamiltonians
from qbattery.basis import _key_base, build_dicke_basis
from qbattery.hamiltonians import (
    BasisMismatchError,
    MissingStateError,
    Model,
    ModelParams,
    Normalization,
    Topology,
    build_basis,
    build_csr,
    build_quench_block,
    initial_index,
    jz_diagonal,
)

from oracles import chain_sector, flat_index, operator_chain, reference_dense


def jch(**kw):
    return ModelParams(model=Model.JCH, **kw)


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **kw)


def dense(params, basis):
    return build_csr(params, basis).toarray()


# ---------------------------------------------------------------------------
# Independent oracles.


def _boson_ops(cut):
    """Annihilation operator and number operator on a Fock ladder 0..cut."""
    a = np.zeros((cut + 1, cut + 1))
    for p in range(1, cut + 1):
        a[p - 1, p] = math.sqrt(p)
    return a, np.diag(np.arange(cut + 1, dtype=float))


def oracle_jch_sector(params, sector):
    """The operator-built chain H on the product space, cut to the sector's states."""
    cut = params.n * params.m
    rows = flat_index(sector, cut)
    return operator_chain(params, cut)[0][rows][:, rows].toarray()


def oracle_rabi(n_max, beta, beta_prime, omega_c, omega_a):
    """Single two-level system and one mode, rotating + counter-rotating terms."""
    a, num = _boson_ops(n_max)
    sm = np.array([[0.0, 1.0], [0.0, 0.0]])
    nspin = np.array([[0.0, 0.0], [0.0, 1.0]])
    h = omega_c * np.kron(num, np.eye(2)) + omega_a * np.kron(np.eye(n_max + 1), nspin)
    h += beta * (np.kron(a, sm.T) + np.kron(a.T, sm))
    h += beta_prime * (np.kron(a, sm) + np.kron(a.T, sm.T))
    return h


# ---------------------------------------------------------------------------
# Lattice model.


def test_single_cavity_matrix_exact():
    # The quench state, then the state with the photon absorbed, each an
    # orbit of its own; w_c*N*m = 1 is taken off the diagonal.
    block = build_quench_block(jch(n=1, m=1, beta=0.05))
    assert block.start == 0
    assert np.array_equal(block.h.toarray(), np.array([[0.0, 0.05], [0.05, 0.0]]))


def test_uncoupled_is_diagonal():
    # With no coupling the quench state is stationary: the walk finds no move.
    block = build_quench_block(jch(n=3, m=1, beta=0.0, kappa=0.0))
    assert (block.dim, block.start, block.sizes.tolist()) == (1, 0, [1])
    assert np.array_equal(block.h.toarray(), [[0.0]])
    assert np.array_equal(block.jz, [0.0])


@pytest.mark.parametrize("topology", [Topology.LINE, Topology.RING, Topology.ALL_TO_ALL])
@pytest.mark.parametrize(
    "n, m, beta, kappa",
    [(2, 1, 0.05, 0.1), (2, 2, 0.3, 0.7), (3, 1, 0.05, 0.1), (3, 2, 0.11, 0.23)],
)
def test_jch_matches_operator_oracle(n, m, beta, kappa, topology):
    params = jch(n=n, m=m, beta=beta, kappa=kappa, topology=topology)
    sector = chain_sector(n, m)
    h = reference_dense(params, sector)
    expected = oracle_jch_sector(params, sector)
    assert np.max(np.abs(h - expected)) < 1e-14


def test_jch_detuned_matches_oracle():
    params = jch(n=2, m=1, beta=0.2, kappa=0.15, omega_a=1.4, omega_c=0.9)
    sector = chain_sector(2, 1)
    h = reference_dense(params, sector)
    expected = oracle_jch_sector(params, sector)
    assert np.max(np.abs(h - expected)) < 1e-14
    assert params.delta == pytest.approx(0.5)


def test_topology_reduction_at_two_cavities():
    base = dict(n=2, m=1, beta=0.05, kappa=0.3)
    sector = chain_sector(2, 1)
    line = reference_dense(jch(**base, topology=Topology.LINE), sector)
    alltoall = reference_dense(jch(**base, topology=Topology.ALL_TO_ALL), sector)
    ring = reference_dense(jch(**base, topology=Topology.RING), sector)
    assert np.array_equal(line, alltoall)
    # Closing a two-site ring duplicates the single bond: hopping doubles.
    hop_line = line - reference_dense(jch(n=2, m=1, beta=0.05, kappa=0.0), sector)
    hop_ring = ring - reference_dense(jch(n=2, m=1, beta=0.05, kappa=0.0), sector)
    assert np.allclose(hop_ring, 2.0 * hop_line)
    assert not np.array_equal(ring, line)


def test_topologies_differ_at_three_cavities():
    sector = chain_sector(3, 1)
    mats = {
        t: reference_dense(jch(n=3, m=1, beta=0.05, kappa=0.2, topology=t), sector)
        for t in Topology
    }
    assert not np.array_equal(mats[Topology.LINE], mats[Topology.RING])
    # A three-site ring is the complete graph on three nodes.
    assert np.array_equal(mats[Topology.RING], mats[Topology.ALL_TO_ALL])


def test_ring_and_complete_graph_differ_at_four_cavities():
    sector = chain_sector(4, 1)
    ring = reference_dense(jch(n=4, m=1, beta=0.05, kappa=0.2, topology=Topology.RING), sector)
    alltoall = reference_dense(
        jch(n=4, m=1, beta=0.05, kappa=0.2, topology=Topology.ALL_TO_ALL), sector
    )
    assert not np.array_equal(ring, alltoall)


# ---------------------------------------------------------------------------
# Collective model.


def test_dicke_single_system_matches_rabi_oracle():
    params = dicke(n=1, m=1, beta=0.5, n_max=8)
    basis = build_basis(params)
    h = dense(params, basis)
    expected = oracle_rabi(8, 0.5, 0.5, 1.0, 1.0)
    # (n, q) index 2n + q; oracle index 2n + s with s = 1 - q.
    k = np.arange(h.shape[0])
    perm = basis.rank(k // 2, 1 - (k % 2))
    assert np.max(np.abs(h[np.ix_(perm, perm)] - expected)) < 1e-14


def test_dicke_counter_rotating_only_matches_oracle():
    params = dicke(n=1, m=1, beta=0.0, beta_prime=0.7, n_max=6)
    basis = build_basis(params)
    h = dense(params, basis)
    expected = oracle_rabi(6, 0.0, 0.7, 1.0, 1.0)
    k = np.arange(h.shape[0])
    perm = basis.rank(k // 2, 1 - (k % 2))
    assert np.max(np.abs(h[np.ix_(perm, perm)] - expected)) < 1e-14


def test_ladder_amplitude_example():
    # sqrt(k [j(j+1) - m(m+1)]) at k=2, j=1, m=-1 must equal 2; the matching
    # entry couples (n=2, q=2) to (n=1, q=1) with the collective scale applied.
    beta = 0.7
    params = dicke(n=2, m=1, beta=beta, beta_prime=0.0, n_max=10)
    basis = build_basis(params)
    h = dense(params, basis)
    i = basis.rank(1, 1)
    j = basis.rank(2, 2)
    assert h[i, j] == pytest.approx(beta / math.sqrt(2.0) * 2.0, rel=1e-15)


def test_dicke_uncoupled_diagonal():
    params = dicke(n=3, m=1, beta=0.0, beta_prime=0.0, n_max=5)
    basis = build_basis(params)
    h = dense(params, basis)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    assert np.array_equal(np.diag(h), basis.n + (3 - basis.q))


def test_normalization_scales_couplings():
    base = dict(n=4, m=1, beta=0.3, beta_prime=0.1, n_max=8)
    basis = build_dicke_basis(4, 8)
    h_sqrt = dense(dicke(**base, normalization=Normalization.SQRT_N), basis)
    h_none = dense(dicke(**base, normalization=Normalization.NONE), basis)
    off_sqrt = h_sqrt - np.diag(np.diag(h_sqrt))
    off_none = h_none - np.diag(np.diag(h_none))
    assert np.allclose(off_none, 2.0 * off_sqrt, rtol=1e-14, atol=0)
    assert np.array_equal(np.diag(h_sqrt), np.diag(h_none))


def test_truncation_drops_elements_above_cutoff():
    # With cutoff 3 the counter-rotating pair (3, q) <-> (4, q-1) must vanish,
    # while the same entry exists under a larger cutoff.
    b_small, b_large = build_dicke_basis(2, 3), build_dicke_basis(2, 8)
    small = dense(dicke(n=2, m=1, beta=0.5, n_max=3), b_small)
    large = dense(dicke(n=2, m=1, beta=0.5, n_max=8), b_large)
    i = b_large.rank(4, 1)
    j = b_large.rank(3, 2)
    assert large[i, j] != 0.0
    assert np.all(b_small.n <= 3)  # no (4, *) entries exist at all
    assert small.shape == (12, 12)


def test_literal_convention_is_constant_diagonal_shift_at_unit_energies():
    params = dicke(n=3, m=1, beta=0.4, beta_prime=0.2, n_max=6)
    basis = build_basis(params)
    physical = dense(params, basis)
    literal = dense(
        dicke(n=3, m=1, beta=0.4, beta_prime=0.2, n_max=6, literal_elements=True), basis
    )
    diff = physical - literal
    off = diff - np.diag(np.diag(diff))
    assert np.max(np.abs(off)) == 0.0
    shifts = np.diag(diff)
    assert np.allclose(shifts, shifts[0])
    assert shifts[0] == pytest.approx(3 / 2)  # half the two-level count


# ---------------------------------------------------------------------------
# Shared structure.


@pytest.mark.parametrize(
    "params",
    [
        jch(n=3, m=1, beta=0.05, kappa=0.1, topology=Topology.RING),
        jch(n=2, m=2, beta=0.3, kappa=0.5),
        dicke(n=3, m=1, beta=0.5, beta_prime=0.2, n_max=7),
    ],
)
def test_bitwise_symmetry(params):
    if params.model is Model.JCH:
        h = build_quench_block(params).h.toarray()
    else:
        h = dense(params, build_basis(params))
    assert np.array_equal(h, h.T)
    assert np.all(np.isfinite(h))


@pytest.mark.parametrize(
    "params",
    [
        dicke(n=1, m=1, beta=0.2, beta_prime=0.1, n_max=4),
        dicke(n=3, m=2, beta=0.3, beta_prime=0.7, n_max=6, omega_a=1.2),
        dicke(n=4, m=1, beta=0.5, beta_prime=0.3, n_max=9),
    ],
)
def test_sparse_equals_dense(params):
    basis = build_basis(params)
    sparse = build_csr(params, basis).toarray()
    assert np.array_equal(reference_dense(params, basis), sparse)


@pytest.mark.parametrize("topology", list(Topology))
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_walk_group_is_the_automorphism_group_of_the_hopping_graph(n, topology):
    params = jch(n=n, m=1, beta=0.05, kappa=0.1, omega_a=1.2, topology=topology)
    # Brute force: the relabellings of the cavities that keep the bond multiset.
    bonds = sorted(tuple(sorted(b)) for b in hamiltonians._jch_bonds(params))
    automorphisms = {
        perm
        for perm in itertools.permutations(range(n))
        if sorted(tuple(sorted((perm[a], perm[b]))) for a, b in bonds) == bonds
    }
    group = hamiltonians._jch_group(params)
    if group is None:  # all-to-all sorts the sites: every permutation
        assert len(automorphisms) == math.factorial(n)
    else:
        assert {tuple(g) for g in group.tolist()} == automorphisms
    # Each automorphism relabels the sector without changing H (up to the
    # order of the factors in a hopping element).  The walk's orbit keys are
    # the smallest key of each brute-force orbit, and its orbit sizes are
    # theirs.
    sector = chain_sector(n, 1)
    h = reference_dense(params, sector)
    orbits = hamiltonians._Orbits(params, _key_base(n, 1))
    feats = (np.hstack([sector.photons, sector.spins]) @ orbits.features).T
    keys = orbits.keys(feats)
    images = []
    for perm in automorphisms:
        g = list(perm)
        image = sector.rank(sector.photons[:, g], sector.spins[:, g])
        assert np.max(np.abs(h[np.ix_(image, image)] - h)) <= 1e-16
        images.append(image)
    images = np.array(images)
    assert np.array_equal(keys, sector.keys[images].min(axis=0))
    assert orbits.sizes(feats).tolist() == [len(set(orbit)) for orbit in images.T.tolist()]
    # The walk's block is H projected on the normalized orbit sums, cut to
    # the orbits that the quench state's orbit connects to, in key order.
    orbit_keys, orbit_of = np.unique(keys, return_inverse=True)
    sizes = np.bincount(orbit_of)
    sums = np.zeros((sector.dim, orbit_keys.shape[0]))
    sums[np.arange(sector.dim), orbit_of] = 1.0 / np.sqrt(sizes[orbit_of])
    projected = sums.T @ h @ sums
    jz = np.empty(orbit_keys.shape[0])
    jz[orbit_of] = params.omega_a * sector.spins.sum(axis=1)
    quench = orbit_of[sector.rank([1] * n, [0] * n)]
    reached = np.arange(orbit_keys.shape[0]) == quench
    while not np.array_equal(grown := reached | projected[reached].any(axis=0), reached):
        reached = grown
    block = build_quench_block(params)
    shift = params.omega_c * n * np.eye(block.dim)
    assert np.max(np.abs(block.h.toarray() + shift - projected[np.ix_(reached, reached)])) <= 1e-14
    assert np.array_equal(block.sizes, sizes[reached])
    assert np.array_equal(block.jz, jz[reached])
    assert block.start == np.count_nonzero(reached[:quench])


def test_single_cavity_orbits_are_single_states():
    block = build_quench_block(jch(n=1, m=2, beta=0.05))
    assert block.dim == 2 and block.sizes.tolist() == [1, 1]
    with pytest.raises(BasisMismatchError):
        build_quench_block(dicke(n=3, m=1, beta=0.5, n_max=7))


def test_commutes_with_excitation_number_in_sector():
    params = jch(n=3, m=2, beta=0.3, kappa=0.4)
    sector = chain_sector(3, 2)
    h = reference_dense(params, sector)
    x = np.diag((sector.photons.sum(axis=1) + sector.spins.sum(axis=1)).astype(float))
    assert np.max(np.abs(h @ x - x @ h)) == 0.0


def test_excitation_conserving_collective_commutes():
    params = dicke(n=3, m=1, beta=0.5, beta_prime=0.0, n_max=9)
    basis = build_basis(params)
    h = dense(params, basis)
    x = np.diag((basis.n + (3 - basis.q)).astype(float))
    assert np.max(np.abs(h @ x - x @ h)) == 0.0


def test_counter_rotating_violates_excitation_number():
    params = dicke(n=2, m=1, beta=0.0, beta_prime=0.4, n_max=6)
    basis = build_basis(params)
    h = dense(params, basis)
    x = np.diag((basis.n + (2 - basis.q)).astype(float))
    assert np.max(np.abs(h @ x - x @ h)) > 0.0


# ---------------------------------------------------------------------------
# Observable, initial state, errors, and parameter plumbing.


def test_jz_diagonal_values():
    d_params = dicke(n=4, m=1, beta=0.5, n_max=6)
    d_basis = build_basis(d_params)
    d_jz = jz_diagonal(d_params, d_basis)
    assert d_jz[d_basis.rank(0, 0)] == 4.0
    assert d_jz[d_basis.rank(0, 4)] == 0.0
    assert d_jz.shape == (d_basis.dim,)


def test_initial_state_collective():
    params = dicke(n=3, m=1, beta=0.5, n_max=15)
    basis = build_basis(params)
    k = initial_index(params, basis)
    assert (basis.n[k], basis.q[k]) == (3, 3)


def test_initial_state_missing_when_cutoff_too_small():
    params = dicke(n=2, m=1, beta=0.5, n_max=1)
    basis = build_basis(params)
    with pytest.raises(MissingStateError):
        initial_index(params, basis)


def test_basis_mismatch_raises():
    d_params = dicke(n=2, m=1, beta=0.5, n_max=10)
    with pytest.raises(BasisMismatchError):
        build_csr(d_params, build_dicke_basis(2, 8))
    with pytest.raises(BasisMismatchError):
        jz_diagonal(d_params, build_dicke_basis(3, 10))


def test_model_specific_builders_check_model():
    with pytest.raises(BasisMismatchError):
        build_csr(dicke(n=2, m=1, beta=0.5, n_max=10), chain_sector(2, 1))
    # A chain has no whole basis in the package: only the orbit walk builds it.
    chain = jch(n=2, m=1, beta=0.5)
    with pytest.raises(BasisMismatchError):
        build_basis(chain)
    for builder in (build_csr, jz_diagonal, initial_index):
        for basis in (build_dicke_basis(2, 10), chain_sector(2, 1)):
            with pytest.raises(BasisMismatchError):
                builder(chain, basis)


def test_params_validation_and_derived_fields():
    with pytest.raises(ValueError):
        jch(n=0, m=1, beta=0.05)
    with pytest.raises(ValueError):
        jch(n=1, m=1, beta=-0.1)
    with pytest.raises(ValueError):
        jch(n=1, m=1, beta=0.1, kappa=-1.0)
    with pytest.raises(ValueError):
        dicke(n=1, m=1, beta=0.1, beta_prime=-0.5)
    with pytest.raises(ValueError):
        jch(n=1, m=1, beta=0.1, omega_c=0.0)
    for bad in (math.nan, math.inf):
        for values in ({"beta": bad}, {"kappa": bad}, {"omega_c": bad}, {"omega_a": bad}):
            with pytest.raises(ValueError):
                jch(**{"n": 1, "m": 1, "beta": 0.1, **values})
        with pytest.raises(ValueError):
            dicke(n=1, m=1, beta=0.1, beta_prime=bad)
    p = dicke(n=4, m=2, beta=0.5)
    assert p.beta_prime_value == 0.5
    assert dicke(n=4, m=2, beta=0.5, beta_prime=0.0).beta_prime_value == 0.0
    assert p.n_max_value == 40
    assert p.with_cutoff(4).n_max == 32
    with pytest.raises(ValueError):
        p.with_cutoff(0)
    # Counts must be integers: a float is refused, even an integral one.
    for values in ({"m": 1.3}, {"n": 4.0}, {"n_max": 26.0}, {"m": "2"}):
        with pytest.raises(ValueError, match="integer"):
            dicke(**{"n": 4, "m": 1, "beta": 0.5, **values})
    with pytest.raises(ValueError, match="integer"):
        jch(n=3.0, m=1, beta=0.05)
    with pytest.raises(ValueError, match="integer"):
        p.with_cutoff(4.5)
    assert dicke(n=np.int64(4), m=1, beta=0.5).n_max_value == 20
