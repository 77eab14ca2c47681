"""Hamiltonian assembly against independent operator-level oracles."""

import itertools
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from qbattery import hamiltonians
from qbattery.hamiltonians import (
    CapacityError,
    MissingStateError,
    Model,
    ModelParams,
    Normalization,
    Topology,
    _key_base,
    build_csr,
    build_quench_block,
    jch_sector_dim,
)
from qbattery.sweeps import preset_specs, run_sweep

from oracles import (
    bipartite_classes,
    chain_sector,
    dicke_ladder,
    flat_index,
    operator_chain,
    reference_dense,
)


def jch(**kw):
    return ModelParams(model=Model.JCH, **kw)


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **kw)


def dense(params):
    return build_csr(params).toarray()


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
    h = dense(params)
    expected = oracle_rabi(8, 0.5, 0.5, 1.0, 1.0)
    # (n, q) index 2n + q; oracle index 2n + s with s = 1 - q.
    k = np.arange(h.shape[0])
    perm = dicke_ladder(params).rank(k // 2, 1 - (k % 2))
    assert np.max(np.abs(h[np.ix_(perm, perm)] - expected)) < 1e-14


def test_dicke_counter_rotating_only_matches_oracle():
    params = dicke(n=1, m=1, beta=0.0, beta_prime=0.7, n_max=6)
    h = dense(params)
    expected = oracle_rabi(6, 0.0, 0.7, 1.0, 1.0)
    k = np.arange(h.shape[0])
    perm = dicke_ladder(params).rank(k // 2, 1 - (k % 2))
    assert np.max(np.abs(h[np.ix_(perm, perm)] - expected)) < 1e-14


def test_ladder_amplitude_example():
    # sqrt(k [j(j+1) - m(m+1)]) at k=2, j=1, m=-1 must equal 2; the matching
    # entry couples (n=2, q=2) to (n=1, q=1) with the collective scale applied.
    beta = 0.7
    params = dicke(n=2, m=1, beta=beta, beta_prime=0.0, n_max=10)
    ladder = dicke_ladder(params)
    h = dense(params)
    i = ladder.rank(1, 1)
    j = ladder.rank(2, 2)
    assert h[i, j] == pytest.approx(beta / math.sqrt(2.0) * 2.0, rel=1e-15)


def test_dicke_uncoupled_diagonal():
    params = dicke(n=3, m=1, beta=0.0, beta_prime=0.0, n_max=5)
    ladder = dicke_ladder(params)
    h = dense(params)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0
    assert np.array_equal(np.diag(h), ladder.n + (3 - ladder.q))


def test_normalization_scales_couplings():
    base = dict(n=4, m=1, beta=0.3, beta_prime=0.1, n_max=8)
    h_sqrt = dense(dicke(**base, normalization=Normalization.SQRT_N))
    h_none = dense(dicke(**base, normalization=Normalization.NONE))
    off_sqrt = h_sqrt - np.diag(np.diag(h_sqrt))
    off_none = h_none - np.diag(np.diag(h_none))
    assert np.allclose(off_none, 2.0 * off_sqrt, rtol=1e-14, atol=0)
    assert np.array_equal(np.diag(h_sqrt), np.diag(h_none))


def test_truncation_drops_elements_above_cutoff():
    # With cutoff 3 the counter-rotating pair (3, q) <-> (4, q-1) must vanish,
    # while the same entry exists under a larger cutoff.
    small = dense(dicke(n=2, m=1, beta=0.5, n_max=3))
    large_params = dicke(n=2, m=1, beta=0.5, n_max=8)
    large = dense(large_params)
    ladder = dicke_ladder(large_params)
    i = ladder.rank(4, 1)
    j = ladder.rank(3, 2)
    assert large[i, j] != 0.0
    assert small.shape == (12, 12)  # no (4, *) rows exist at all
    assert np.array_equal(small, large[:12, :12])


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
        h = dense(params)
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
    sparse = build_csr(params).toarray()
    assert np.array_equal(reference_dense(params, dicke_ladder(params)), sparse)


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
    orbits = hamiltonians._Orbits(params, _key_base(n, n * params.m))
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
    # Every ladder state is an orbit of its own.
    ladder = build_quench_block(dicke(n=3, m=1, beta=0.5, n_max=7))
    assert ladder.sizes.tolist() == [1] * ladder.dim


def test_commutes_with_excitation_number_in_sector():
    params = jch(n=3, m=2, beta=0.3, kappa=0.4)
    sector = chain_sector(3, 2)
    h = reference_dense(params, sector)
    x = np.diag((sector.photons.sum(axis=1) + sector.spins.sum(axis=1)).astype(float))
    assert np.max(np.abs(h @ x - x @ h)) == 0.0


def test_excitation_conserving_collective_commutes():
    params = dicke(n=3, m=1, beta=0.5, beta_prime=0.0, n_max=9)
    ladder = dicke_ladder(params)
    h = dense(params)
    x = np.diag((ladder.n + (3 - ladder.q)).astype(float))
    assert np.max(np.abs(h @ x - x @ h)) == 0.0


def test_counter_rotating_violates_excitation_number():
    params = dicke(n=2, m=1, beta=0.0, beta_prime=0.4, n_max=6)
    ladder = dicke_ladder(params)
    h = dense(params)
    x = np.diag((ladder.n + (2 - ladder.q)).astype(float))
    assert np.max(np.abs(h @ x - x @ h)) > 0.0


# ---------------------------------------------------------------------------
# Observable, initial state, errors, and parameter plumbing.


def test_jz_diagonal_values():
    params = dicke(n=4, m=1, beta=0.5, n_max=6, omega_a=1.5)
    block = build_quench_block(params)
    # w_a per excited system: none at the quench state, all four at most.
    assert block.jz[block.start] == 0.0
    assert sorted(set(block.jz.tolist())) == [0.0, 1.5, 3.0, 4.5, 6.0]
    assert block.jz.shape == (block.dim,)


def test_initial_state_collective():
    # The quench row stores no energy and holds three photons: w_c * 3 on the diagonal.
    block = build_quench_block(dicke(n=3, m=1, beta=0.5, n_max=15))
    assert block.jz[block.start] == 0.0
    assert block.h[block.start, block.start] == 3.0


def test_initial_state_missing_when_cutoff_too_small():
    params = dicke(n=2, m=1, beta=0.5, n_max=1)
    with pytest.raises(MissingStateError, match="n_max >= n \\* m"):
        build_quench_block(params)
    assert build_csr(params).shape == (6, 6)  # the whole ladder needs no quench state


def test_model_specific_builders_check_model():
    # A chain has no whole ladder in the package: only the orbit walk builds it.
    chain = jch(n=2, m=1, beta=0.5)
    with pytest.raises(ValueError, match="no collective ladder"):
        build_csr(chain)
    assert build_quench_block(chain).sector_dim == jch_sector_dim(2, 1)


def assert_entries_listed_once(block):
    """No (row, col) pair of the block's entries repeats, so both of its matrices hold their bits."""
    pairs = block.rows.astype(np.int64) * block.dim + block.cols
    assert np.unique(pairs).shape == pairs.shape == block.values.shape
    assert block.h.nnz == block.values.shape[0]
    assert block.dense().tobytes() == block.h.toarray().tobytes()


@pytest.mark.parametrize("topology", list(Topology))
def test_chain_entries_are_listed_once(topology):
    block = build_quench_block(jch(n=4, m=2, beta=0.11, kappa=0.23, omega_a=1.2, topology=topology))
    assert_entries_listed_once(block)


def reached_rows(h, start):
    """Rows that the nonzeros of ``h`` connect to ``start``, by repeated sparse products."""
    reached = np.arange(h.shape[0]) == start
    while not np.array_equal(grown := reached | (abs(h) @ reached.astype(float) > 0), reached):
        reached = grown
    return np.flatnonzero(reached)


@pytest.mark.parametrize(
    "params, block_dim",
    [
        (dicke(n=15, m=1, beta=0.5, n_max=75), 608),  # both couplings: parity halves 1,216
        (dicke(n=6, m=1, beta=0.5, beta_prime=0.0), 7),  # excitations conserved: N + 1
        (dicke(n=6, m=1, beta=0.0, beta_prime=0.5), 7),  # n - (N - q) conserved: N + 1
        (dicke(n=6, m=1, beta=0.0, beta_prime=0.0), 1),  # uncoupled
        (dicke(n=4, m=2, beta=0.5, beta_prime=0.3, n_max=8), 23),  # n_max = N*m
        (dicke(n=1, m=1, beta=0.5), 6),  # one system: the parity halves 12
        (dicke(n=4, m=2, beta=0.5, beta_prime=0.3, n_max=9), 25),  # n_max = N*m + 1
        (dicke(n=3, m=2, beta=0.5, beta_prime=0.2), 62),  # odd N, m = 2, default cutoff
        (dicke(n=5, m=1, beta=0.5, normalization=Normalization.NONE), 78),
        (dicke(n=6, m=1, beta=0.05, beta_prime=2.0), 109),  # counter-rotating dominant
    ],
)
def test_ladder_block_is_the_whole_ladder_cut_to_the_states_reached(params, block_dim):
    h = build_csr(params)
    ladder = dicke_ladder(params)
    start = ladder.rank(params.n * params.m, params.n)
    keep = reached_rows(h, start)
    block = build_quench_block(params)
    assert (block.dim, block.sector_dim) == (block_dim, ladder.dim)
    assert np.array_equal(block.sizes, np.ones(block_dim))
    cut = h[keep][:, keep]
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(block.h, name), getattr(cut, name)), name
    assert_entries_listed_once(block)
    assert np.array_equal(block.jz, params.omega_a * (params.n - ladder.q[keep]))
    assert block.start == np.count_nonzero(keep < start)


@pytest.mark.parametrize(
    "params",
    [
        jch(n=n, m=m, beta=0.05, kappa=kappa, topology=topology)
        for topology in Topology
        for n in range(2, 7)
        for kappa in (0.0, 0.05, 0.5)
        for m in (1, 2)
    ]
    + [
        dicke(n=6, m=1, beta=0.5, beta_prime=0.0),
        dicke(n=6, m=1, beta=0.0, beta_prime=0.5),
        dicke(n=15, m=1, beta=0.5, n_max=75),
    ],
)
def test_block_classes_are_those_of_a_breadth_first_search(params):
    # The walk's level parity, or the ladder's parity of N - q, is the
    # parity of each row's distance from the quench state; a move within a
    # level (all-to-all hopping) leaves no two classes.
    block = build_quench_block(params)
    expected = bipartite_classes(block.h, block.start)
    if expected is None:
        assert block.odd is None
    else:
        assert block.odd is not None and block.odd.dtype == bool
        assert np.array_equal(block.odd, expected)


@pytest.mark.parametrize(
    "params",
    [
        jch(n=6, m=1, beta=0.05, kappa=0.5),
        jch(n=4, m=2, beta=0.11, kappa=0.23, omega_a=1.2, topology=Topology.RING),
        jch(n=4, m=2, beta=0.05, kappa=0.3, topology=Topology.ALL_TO_ALL),
        dicke(n=15, m=1, beta=0.5, n_max=75),
        dicke(n=6, m=1, beta=0.0, beta_prime=0.5),
    ],
)
def test_block_arrays_are_the_csr_of_their_entries(params):
    # The entries come in CSR order, so ``h`` only wraps them: its arrays
    # are those SciPy's conversion of the same entries gives, to the bit.
    block = build_quench_block(params)
    coords = (block.rows.astype(np.int32), block.cols.astype(np.int32))
    want = scipy.sparse.coo_array((block.values, coords), shape=(block.dim,) * 2).tocsr()
    for name in ("indptr", "indices", "data"):
        got = getattr(block.h, name)
        assert got.dtype == getattr(want, name).dtype
        assert got.tobytes() == getattr(want, name).tobytes()
    assert block.h.indices.dtype == block.h.indptr.dtype == np.int32


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


def test_counts_refuse_a_bool():
    # operator.index(True) is 1, and a table row would print N and m as "true".
    for values in ({"n": True}, {"m": True}, {"n": True, "m": True}, {"n_max": False}):
        with pytest.raises(ValueError, match="integer"):
            dicke(**{"n": 4, "m": 1, "beta": 0.5, **values})
    with pytest.raises(ValueError, match="integer"):
        jch(n=True, m=True, beta=0.05)
    with pytest.raises(ValueError, match="integer"):
        dicke(n=4, m=1, beta=0.5).with_cutoff(True)


# A string compares unequal to every enum member, so it used to fall through
# to the last branch of a dispatch: topology="line" hopped all-to-all and
# normalization="sqrt-n" ran unnormalized.
def test_params_refuse_a_model_given_as_a_string():
    with pytest.raises(ValueError, match="model must be a Model"):
        ModelParams(model="dicke", n=2, beta=0.5)


def test_params_refuse_a_topology_given_as_a_string():
    with pytest.raises(ValueError, match="topology must be a Topology"):
        jch(n=4, m=1, beta=0.05, kappa=0.5, topology="line")


def test_params_refuse_a_normalization_given_as_a_string():
    with pytest.raises(ValueError, match="normalization must be a Normalization"):
        dicke(n=4, m=1, beta=0.5, normalization="sqrt-n")


@pytest.mark.parametrize(
    "model, field, value, default",
    [
        (Model.DICKE, "kappa", 0.5, 0.0),
        (Model.DICKE, "topology", Topology.RING, Topology.LINE),
        (Model.JCH, "beta_prime", 0.3, None),
        (Model.JCH, "n_max", 1, None),
        (Model.JCH, "normalization", Normalization.NONE, Normalization.SQRT_N),
    ],
)
def test_params_refuse_a_field_the_model_never_reads(model, field, value, default):
    # Ignored without a word, the field would leave the result as without it.
    with pytest.raises(ValueError, match=f"the {model.value} model never reads {field}$"):
        ModelParams(model=model, n=2, beta=0.05, **{field: value})
    ModelParams(model=model, n=2, beta=0.05, **{field: default})


def test_params_name_every_field_the_model_never_reads():
    with pytest.raises(ValueError, match="never reads kappa, topology$"):
        dicke(n=3, beta=0.5, kappa=0.7, topology=Topology.RING)
    with pytest.raises(ValueError, match="never reads n_max$"):
        jch(n=2, beta=0.05).with_cutoff(4)


@pytest.mark.parametrize(
    "params",
    [
        jch(n=4, m=2, beta=0.05, kappa=0.2),
        jch(n=5, m=1, beta=0.05, kappa=0.1, topology=Topology.RING),
        jch(n=5, m=1, beta=0.05, kappa=0.1, topology=Topology.ALL_TO_ALL),
        dicke(n=6, m=2, beta=0.5, beta_prime=0.0),
        dicke(n=6, m=2, beta=0.0, beta_prime=0.5),
    ],
)
def test_quench_row_stores_no_energy(params):
    # The quench state has every two-level system in its ground state, so
    # E(t) = w_c <Jz>(t) needs no offset.
    block = build_quench_block(params)
    assert block.jz[block.start] == 0.0
    assert block.jz.min() == 0.0


# ---------------------------------------------------------------------------
# The walk cache: the points of one chain structure share one walk.


@pytest.fixture
def walks(monkeypatch):
    """Run the test on an empty walk cache; returns the params of each walk it makes."""
    monkeypatch.setattr(hamiltonians, "_walks", {})
    made = []
    walk = hamiltonians._walk

    def counting(params, cap):
        made.append(params)
        return walk(params, cap)

    monkeypatch.setattr(hamiltonians, "_walk", counting)
    return made


def block_fields(block):
    """Every field of a block, arrays as their dtype and bytes (orbit sizes as integers)."""
    out = [block.start, block.sector_dim, block.odd is None]
    for name in ("sizes", "rows", "cols", "values", "jz") + (() if block.odd is None else ("odd",)):
        a = getattr(block, name)
        out += [a.dtype, a.tolist() if a.dtype == object else a.tobytes()]
    return out


FIG4_KAPPAS = tuple(np.geomspace(0.005, 1.0, 13))


@pytest.mark.parametrize(
    "params",
    [jch(n=n, beta=0.05, kappa=kappa) for n in (2, 3) for kappa in FIG4_KAPPAS]
    + [jch(n=n, beta=0.05, kappa=kappa) for n in range(2, 7) for kappa in (0.05, 0.5)]
    + [jch(n=3, m=2, beta=beta, kappa=0.1) for beta in (0.02, 0.3, 1.5)]
    + [
        jch(n=5, m=1, beta=0.05, kappa=0.1, topology=Topology.RING),
        jch(n=4, m=2, beta=0.05, kappa=0.3, topology=Topology.ALL_TO_ALL),
        jch(n=4, m=1, beta=0.05, kappa=0.2, omega_a=1.3),
        jch(n=3, m=2, beta=0.05, omega_c=0.9, omega_a=1.4),
    ],
)
def test_a_cached_walk_gives_the_block_of_a_fresh_one(walks, params):
    # Another point of the same structure walks first; this one reads its walk.
    build_quench_block(replace(params, beta=0.7, kappa=2.5 * params.kappa, omega_a=1.1))
    cached = build_quench_block(params)
    assert len(walks) == 1
    hamiltonians._walks.clear()
    fresh = build_quench_block(params)
    assert len(walks) == 2
    assert block_fields(cached) == block_fields(fresh)


def test_a_kappa_sweep_walks_once_per_structure(walks):
    # fig4: 14 kappas at N = 2 and 3, of which kappa = 0 has its own walk.
    for spec in preset_specs("fig4"):
        assert all(row.error == "" for row in run_sweep(spec))
    assert [(p.n, p.kappa != 0.0) for p in walks] == [(2, False), (2, True), (3, False), (3, True)]
    # Which couplings are on decides which moves the walk takes.
    walks.clear()
    for beta, kappa in ((0.05, 0.0), (0.05, 0.1), (0.0, 0.1), (0.3, 0.0), (0.2, 0.7), (0.0, 0.4)):
        build_quench_block(jch(n=4, m=1, beta=beta, kappa=kappa))
    assert [(p.beta, p.kappa) for p in walks] == [(0.05, 0.0), (0.05, 0.1), (0.0, 0.1)]


def test_cached_arrays_refuse_writes(walks):
    block = build_quench_block(jch(n=3, m=1, beta=0.05, kappa=0.1))
    (walk,) = hamiltonians._walks.values()
    arrays = [v for v in vars(walk).values() if isinstance(v, np.ndarray)]
    assert arrays
    for a in arrays + [block.sizes, block.rows, block.cols, block.odd]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]
    # The values are this point's own.
    assert block.values.flags.writeable and block.jz.flags.writeable


def test_the_cache_keeps_at_most_an_eighth_of_the_cap(walks, cap_states):
    line = jch(n=6, m=1, beta=0.05, kappa=0.5)  # 2,687 orbits
    ring = jch(n=6, m=1, beta=0.05, kappa=0.5, topology=Topology.RING)  # 500
    every = jch(n=6, m=1, beta=0.05, kappa=0.5, topology=Topology.ALL_TO_ALL)  # 65
    cap_states(8 * 2_687 - 1)
    assert build_quench_block(line).dim == 2_687
    assert hamiltonians._walks == {}
    # At the bound it is kept, and the next point reads it.
    cap_states(8 * 2_687)
    for params in (line, line):
        build_quench_block(params)
    assert len(walks) == 2 and len(hamiltonians._walks) == 1
    # Past the bound, the least recently used walk goes first.
    cap_states(8 * 565)
    for params in (ring, every, ring):
        build_quench_block(params)
    assert [w.dim for w in hamiltonians._walks.values()] == [65, 500]
    build_quench_block(replace(every, n=5))  # 36 orbits
    assert [w.dim for w in hamiltonians._walks.values()] == [500, 36]
    assert len(walks) == 5


def test_a_cached_walk_still_meets_the_cap(walks, cap_states):
    params = jch(n=6, m=1, beta=0.05, kappa=0.5)
    build_quench_block(params)
    assert len(hamiltonians._walks) == 1
    cap_states(2_686)
    with pytest.raises(CapacityError, match="reaches more orbits than the cap of 2686"):
        build_quench_block(params)
    assert len(walks) == 1


def test_threads_share_the_walk_cache(walks, cap_states):
    # Eight threads build blocks of five structures (22, 10, 10, 100 and 36
    # orbits) under a bound of 60 orbits, so the cache drops walks as others
    # read it, and never keeps the largest.
    structures = [jch(n=n, m=1, beta=0.05, kappa=0.3, topology=t) for n in (3, 4) for t in Topology][:5]
    expected = [block_fields(build_quench_block(p)) for p in structures]
    hamiltonians._walks.clear()
    cap_states(8 * 60)
    failures, results = [], []

    def build(offset):
        try:
            for i in range(150):
                k = (i + offset) % len(structures)
                results.append(block_fields(build_quench_block(structures[k])) == expected[k])
        except Exception as err:  # a thread's error would otherwise go unseen
            failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and results == [True] * 1200
    assert sum(w.dim for w in hamiltonians._walks.values()) <= 60
