"""Spectra, exact propagation, and the sparse Chebyshev evaluator."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.special import jv

from qbattery import dynamics
from qbattery.dynamics import ChebyshevEngine, EigenEngine, Spectrum, diagonalize
from qbattery.hamiltonians import (
    Model,
    ModelParams,
    Normalization,
    Topology,
    build_csr,
    build_quench_block,
)

from oracles import bipartite_classes, full_quench, scaled_discs_by_columns


def one_point(engine, t):
    """The engine's value at a single time, asked as a grid of one."""
    return float(engine.on_grid(np.array([t]))[0, 0])


def _system(params):
    """H on the whole basis, sparse and dense, with the stored-energy diagonal and the quench state."""
    sparse, jz, psi0 = full_quench(params)
    return sparse, sparse.toarray(), jz, psi0


def jch(**kw):
    return ModelParams(model=Model.JCH, **kw)


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **kw)


# ---------------------------------------------------------------------------
# Diagonalization.


def test_two_by_two_eigenvalues():
    spec = diagonalize(np.array([[1.0, 0.05], [0.05, 1.0]]))
    assert np.allclose(spec.eigenvalues, [0.95, 1.05], atol=1e-12)


def test_diagonal_matrix_spectrum_is_sorted_diagonal():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    spec = diagonalize(np.diag(d))
    assert np.allclose(spec.eigenvalues, np.sort(d), atol=1e-14)
    # Eigenvectors of a diagonal matrix are signed unit vectors.
    assert np.allclose(np.abs(spec.eigenvectors).sum(axis=0), 1.0, atol=1e-14)
    assert np.allclose(np.abs(spec.eigenvectors).max(axis=0), 1.0, atol=1e-14)


def test_random_symmetric_reconstruction_and_orthonormality():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((50, 50))
    h = (a + a.T) / 2.0
    spec = diagonalize(h)
    v, lam = spec.eigenvectors, spec.eigenvalues
    norm = np.max(np.abs(h))
    assert np.max(np.abs(v @ np.diag(lam) @ v.T - h)) <= 1e-9 * norm
    assert np.max(np.abs(v.T @ v - np.eye(50))) <= 1e-10
    assert np.all(np.diff(lam) >= 0)


def test_diagonalize_rejects_nonsquare():
    with pytest.raises(ValueError):
        diagonalize(np.zeros((3, 4)))


# ---------------------------------------------------------------------------
# State preparation: the engine projects the initial vector itself.


def test_prepare_on_eigenvector_gives_indicator():
    spec = diagonalize(np.array([[1.0, 0.05], [0.05, 1.0]]))
    v1 = spec.eigenvectors[:, 1]
    # An eigenvector is stationary: every basis weight keeps its initial value.
    ts = np.linspace(0.0, 100.0, 41)
    for b in range(2):
        indicator = np.eye(2)[b]
        weights = EigenEngine(spec, v1, [indicator]).on_grid(ts)[0]
        assert np.allclose(weights, v1[b] ** 2, atol=1e-12)


def test_prepare_preserves_norm():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((12, 12))
    h = (h + h.T) / 2.0
    psi0 = rng.standard_normal(12)
    psi0 /= np.linalg.norm(psi0)
    engine = EigenEngine(diagonalize(h), psi0, [np.ones(12)])
    assert np.max(np.abs(engine.on_grid(np.linspace(0.0, 50.0, 11)) - 1.0)) <= 1e-10


def test_prepare_dimension_mismatch():
    spec = diagonalize(np.eye(3))
    with pytest.raises(ValueError):
        EigenEngine(spec, np.array([1.0, 0.0]), [np.ones(3)])
    with pytest.raises(ValueError):
        EigenEngine(spec, np.array([1.0, 0.0, 0.0]), [np.ones(2)])


def test_prepare_matches_direct_projection():
    params = jch(n=2, m=1, beta=0.05, kappa=0.1)
    _, h, jz, psi0 = _system(params)
    spec = diagonalize(h)
    engine = EigenEngine(spec, psi0, [jz])
    direct = np.array([spec.eigenvectors[:, j] @ psi0 for j in range(h.shape[0])])
    for t in (0.0, 0.9, 13.0):
        psi = spec.eigenvectors @ (direct * np.exp(-1j * spec.eigenvalues * t))
        assert one_point(engine, t) == pytest.approx(float(jz @ np.abs(psi) ** 2), abs=1e-14)


# ---------------------------------------------------------------------------
# Expectations on the dense path.


def test_expectation_at_zero_matches_initial_value():
    params = jch(n=2, m=2, beta=0.3, kappa=0.2)
    _, h, jz, psi0 = _system(params)
    engine = EigenEngine(diagonalize(h), psi0, [jz])
    assert one_point(engine, 0.0) == pytest.approx(float(jz @ psi0**2), abs=1e-12)


def test_identity_observable_is_one_for_all_times():
    params = jch(n=2, m=1, beta=0.4, kappa=0.3)
    _, h, _, psi0 = _system(params)
    engine = EigenEngine(diagonalize(h), psi0, [np.ones(h.shape[0])])
    ts = np.linspace(0.0, 40.0, 64)
    assert np.max(np.abs(engine.on_grid(ts) - 1.0)) <= 1e-10


def test_single_cavity_oscillation_closed_form():
    params = jch(n=1, m=1, beta=0.05)
    _, h, jz, psi0 = _system(params)
    ts = np.linspace(0.0, 200.0, 400)
    got = EigenEngine(diagonalize(h), psi0, [jz]).on_grid(ts)[0]
    assert np.max(np.abs(got - np.sin(0.05 * ts) ** 2)) <= 1e-12


def test_expectation_rejects_nondiagonal_observable():
    params = jch(n=2, m=1, beta=0.05, kappa=0.1)
    _, h, _, psi0 = _system(params)
    with pytest.raises(ValueError):
        EigenEngine(diagonalize(h), psi0, [h])


@pytest.mark.parametrize(
    "params",
    [jch(n=2, m=2, beta=0.3, kappa=0.4), dicke(n=3, m=1, beta=0.6, beta_prime=0.2, n_max=9)],
)
def test_unitarity_energy_conservation_and_bounds(params):
    _, h, jz, psi0 = _system(params)
    spec = diagonalize(h)
    engine = EigenEngine(spec, psi0, [jz])
    v, lam = spec.eigenvectors, spec.eigenvalues
    c = v.T @ psi0
    h_norm = np.max(np.abs(h))
    e0 = float(c @ (lam * c))
    for t in np.linspace(0.0, 60.0, 31):
        psi = v @ (c * np.exp(-1j * lam * t))
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-10
        assert abs((np.vdot(psi, h @ psi)).real - e0) <= 1e-9 * h_norm
        val = one_point(engine, float(t))
        assert -1e-9 <= val <= params.n * params.omega_a + 1e-9


def test_engine_grid_matches_scalar_calls():
    params = jch(n=2, m=1, beta=0.11, kappa=0.23)
    _, h, jz, psi0 = _system(params)
    engine = EigenEngine(diagonalize(h), psi0, [jz])
    ts = np.array([0.0, 0.7, 3.1, 17.0, 44.4])
    grid = engine.on_grid(ts)[0]
    for t, val in zip(ts, grid):
        assert one_point(engine, float(t)) == pytest.approx(val, abs=1e-12)


def test_real_products_match_complex_formula(monkeypatch):
    params = dicke(n=4, m=1, beta=0.5, beta_prime=0.2, n_max=20)
    _, h, jz, psi0 = _system(params)
    spectrum = diagonalize(h)
    v, lam = spectrum.eigenvectors, spectrum.eigenvalues
    ts = np.linspace(0.0, 150.0, 301)
    psi = v @ ((v.T @ psi0)[:, None] * np.exp(-1j * np.outer(lam, ts)))
    expected = jz @ np.abs(psi) ** 2
    # Small scratch blocks, so the grid runs through several of them.
    monkeypatch.setattr(dynamics, "_GRID_BLOCK_ENTRIES", 20 * lam.shape[0])
    engine = EigenEngine(spectrum, psi0, [jz])
    assert np.max(np.abs(engine.on_grid(ts) - expected)) <= 1e-13
    for t, e in zip(ts[::37], expected[::37]):
        assert one_point(engine, float(t)) == pytest.approx(e, abs=1e-13)


# ---------------------------------------------------------------------------
# Chebyshev propagation vs the exact dense path.


@pytest.mark.parametrize(
    "params",
    [
        jch(n=2, m=1, beta=0.05, kappa=0.1),
        jch(n=3, m=1, beta=0.05, kappa=0.5),
        jch(n=2, m=2, beta=0.3, kappa=0.7),
        dicke(n=2, m=1, beta=2.0, beta_prime=0.3, n_max=10),
        dicke(n=4, m=1, beta=0.5, n_max=20),
    ],
)
def test_chebyshev_matches_eigenbasis(params):
    # The resonant chains are chiral on their whole sector, whose classes
    # the reference search finds.
    sparse, h, jz, psi0 = _system(params)
    exact = EigenEngine(diagonalize(h), psi0, [jz])
    cheb = ChebyshevEngine(sparse, psi0, [jz], odd=bipartite_classes(sparse, np.argmax(psi0)))
    ts = np.linspace(0.0, 150.0, 301)
    assert np.max(np.abs(cheb.on_grid(ts) - exact.on_grid(ts))) <= 1e-10
    for t in (0.0, 0.05, 1.7, 149.3):
        assert one_point(cheb, t) == pytest.approx(one_point(exact, t), abs=1e-10)


def test_chebyshev_unsorted_grid_and_revisits():
    params = jch(n=2, m=1, beta=0.2, kappa=0.3)
    sparse, h, jz, psi0 = _system(params)
    cheb = ChebyshevEngine(sparse, psi0, [jz])
    ts = np.array([40.0, 1.0, 90.0, 1.0, 0.0])
    got = cheb.on_grid(ts)[0]
    exact = EigenEngine(diagonalize(h), psi0, [jz])
    assert np.max(np.abs(got - exact.on_grid(ts))) <= 1e-10
    # Asking for an earlier time after extension must not disturb anything.
    assert one_point(cheb, 1.0) == pytest.approx(got[1], abs=1e-14)


def test_chebyshev_deterministic_across_instances():
    params = dicke(n=3, m=1, beta=0.7, beta_prime=0.4, n_max=12)
    ts = np.linspace(0.1, 80.0, 257)
    runs = []
    for _ in range(2):
        h, jz, psi0 = full_quench(params)
        engine = ChebyshevEngine(h, psi0, [jz])
        runs.append(engine.on_grid(ts))
    assert np.array_equal(runs[0], runs[1])


def test_chebyshev_tracks_multiple_observables():
    # Resonant, so the Chebyshev engine takes the chiral classes it is given
    # at the first jump, and detuned, so it stays on the general path with
    # the same classes.
    for omega_a, chiral in ((1.0, True), (1.1, False)):
        params = jch(n=2, m=1, beta=0.3, kappa=0.2, omega_a=omega_a)
        sparse, h, jz, psi0 = _system(params)
        odd = bipartite_classes(sparse, np.argmax(psi0))
        photons = params.n * params.m - jz / params.omega_a
        spec = diagonalize(h)
        cheb = ChebyshevEngine(sparse, psi0, [jz, photons], odd=odd)
        ts = np.linspace(0.0, 8.0 * cheb._dt, 61)
        engines = (
            (EigenEngine(spec, psi0, [jz, photons]), EigenEngine(spec, psi0, [jz])),
            (cheb, ChebyshevEngine(sparse, psi0, [jz], odd=odd)),
        )
        dense, chebyshev = (both.on_grid(ts) for both, _ in engines)
        assert (cheb._classes is not None) == chiral
        assert dense.shape == chebyshev.shape == (2, ts.shape[0])
        for got, want in zip(chebyshev, dense):
            assert np.max(np.abs(got - want)) <= 1e-10
        # Row 0 comes from the operations that track jz alone, bit for bit.
        for rows, (_, alone) in zip((dense, chebyshev), engines):
            assert np.array_equal(rows[0], alone.on_grid(ts)[0])


@pytest.fixture
def products(monkeypatch):
    """The vector shapes of the engine's sparse products, one per call of ``dynamics._product``."""
    taken = []
    product = dynamics._product

    def counting(h, x, out):
        taken.append(x.shape)
        return product(h, x, out)

    monkeypatch.setattr(dynamics, "_product", counting)
    return taken


def test_first_chebyshev_window_propagates_only_the_real_part(products):
    # Detuned, so the block is not chiral and runs the general path.
    params = jch(n=2, m=1, beta=0.2, kappa=0.3, omega_a=1.1)
    sparse, h, jz, psi0 = _system(params)
    cheb = ChebyshevEngine(sparse, psi0, [jz])
    products.clear()
    order = ChebyshevEngine._WINDOW_ORDER
    jump = ChebyshevEngine._JUMP_ORDER - order
    cheb.extend(0.0)
    assert (len(cheb._windows), len(products)) == (1, order - 1)
    assert cheb._h_twice.shape == (h.shape[0],) * 2
    # The jump from the real state runs one recurrence on; the window at
    # 2 dt expands both parts in one recurrence on [x | y], and its own jump
    # waits for the next window.
    cheb.extend(2.5 * cheb._dt)
    assert (len(cheb._windows), len(products)) == (2, 2 * (order - 1) + jump)
    assert products == [(h.shape[0],)] * (order - 1 + jump) + [(2 * h.shape[0],)] * (order - 1)
    assert cheb._h_twice.shape == (2 * h.shape[0],) * 2
    cheb.extend(4.5 * cheb._dt)
    assert (len(cheb._windows), len(products)) == (3, 3 * (order - 1) + 2 * jump)
    assert cheb._classes is None
    ts = np.linspace(0.0, cheb._t_end, 41)
    exact = EigenEngine(diagonalize(h), psi0, [jz])
    assert np.max(np.abs(cheb.on_grid(ts) - exact.on_grid(ts))) <= 1e-10


def _quench_start(params):
    """The quench block of ``params`` and its initial vector."""
    block = build_quench_block(params)
    psi0 = np.zeros(block.dim)
    psi0[block.start] = 1.0
    return block, psi0


@pytest.mark.parametrize(
    "params",
    [
        jch(n=5, m=1, beta=0.05, kappa=0.5),
        jch(n=6, m=1, beta=0.05, kappa=0.5, topology=Topology.RING),
    ],
)
def test_chiral_windows_run_one_recurrence_and_match_the_eigenbasis(params, products):
    block, psi0 = _quench_start(params)
    exact = EigenEngine(diagonalize(block.h.toarray()), psi0, [block.jz])
    cheb = ChebyshevEngine(block.h, psi0, [block.jz], odd=block.odd)
    products.clear()
    order = ChebyshevEngine._WINDOW_ORDER
    jump = ChebyshevEngine._JUMP_ORDER - order
    dt = cheb._dt
    # One real recurrence per window and per jump: the first window expands
    # the real initial state, the first jump takes the block's classes, and
    # every later window and jump runs on x + y.
    cheb.extend(0.0)
    assert (len(cheb._windows), len(products)) == (1, order - 1)
    assert cheb._classes is None
    cheb.extend(2.5 * dt)
    assert cheb._classes is not None
    assert (len(cheb._windows), len(products)) == (2, 2 * (order - 1) + jump)
    cheb.extend(4.5 * dt)
    assert (len(cheb._windows), len(products)) == (3, 3 * (order - 1) + 2 * jump)
    # Both sides of the centers 2 dt and 4 dt.
    offsets = np.array([-1.0, -0.7, -0.3, 0.0, 0.4, 0.9, 1.0])
    ts = np.concatenate([2 * dt + offsets * dt, 4 * dt + offsets * dt])
    assert np.max(np.abs(cheb.on_grid(ts) - exact.on_grid(ts))) <= 1e-10
    assert len(products) == 3 * (order - 1) + 2 * jump


@pytest.mark.parametrize(
    "params, chiral",
    [
        (jch(n=5, m=1, beta=0.05, kappa=0.5), True),
        (jch(n=4, m=2, beta=0.05, kappa=0.5, topology=Topology.RING), True),
        (jch(n=5, m=1, beta=0.05, kappa=0.0, topology=Topology.RING), True),
        (jch(n=5, m=1, beta=0.05, kappa=0.5, topology=Topology.RING), False),
        (jch(n=3, m=1, beta=0.05, kappa=0.5, topology=Topology.ALL_TO_ALL), False),
        (jch(n=5, m=1, beta=0.05, kappa=0.5, omega_a=1.1), False),
        (dicke(n=15, m=1, beta=0.5, n_max=75), False),
        (dicke(n=6, m=1, beta=0.5, beta_prime=0.0), True),
    ],
)
def test_chiral_detection(params, chiral):
    # A block is chiral when its builder gives it classes and its diagonal
    # is one constant: an odd ring and all-to-all hopping have no classes,
    # and a detuned line and the whole ladder no constant diagonal.
    block, psi0 = _quench_start(params)
    cheb = ChebyshevEngine(block.h, psi0, [block.jz], odd=block.odd)
    cheb.extend(2.5 * cheb._dt)
    assert (cheb._classes is not None) == chiral
    if chiral:
        # In class order, no entry of 2 Hs stays within a class, and the
        # initial state is on the first.
        first, second = cheb._classes
        assert cheb._h_twice.diagonal().tolist() == [0.0] * block.dim
        assert cheb._h_twice[first, first].count_nonzero() == 0
        assert cheb._h_twice[second, second].count_nonzero() == 0
        assert not psi0[np.argsort(block.odd, kind="stable")][second].any()


def test_chiral_classes_must_hold_the_start_and_split_every_coupling():
    block, psi0 = _quench_start(jch(n=5, m=1, beta=0.05, kappa=0.5))
    row = block.h[[block.start]]
    neighbor = row.indices[row.indices != block.start][0]
    ChebyshevEngine(block.h, psi0, [block.jz], odd=block.odd)
    # A start on the odd class, or on both; a coupling within a class.
    both = psi0.copy()
    both[neighbor] = 1.0
    joined = block.odd.copy()
    joined[neighbor] = False
    for start, odd in ((psi0, ~block.odd), (both / np.sqrt(2.0), block.odd), (psi0, joined)):
        with pytest.raises(ValueError, match="chiral"):
            ChebyshevEngine(block.h, start, [block.jz], odd=odd)
    with pytest.raises(ValueError, match="one flag per basis state"):
        ChebyshevEngine(block.h, psi0, [block.jz], odd=block.odd[:-1])


def test_constant_diagonal_without_classes_keeps_the_general_path():
    # A 5-cycle has a zero diagonal, but its odd cycle leaves no classes:
    # the engine pairs 2 Hs at once, expands the real first window with the
    # pair's first block, and runs on both parts from the first jump on.
    cycle = np.roll(np.eye(5), 1, axis=1)
    h = 0.3 * (cycle + cycle.T)
    assert bipartite_classes(h, 0) is None
    psi0 = np.eye(5)[0]
    jz = np.arange(5.0)
    exact = EigenEngine(diagonalize(h), psi0, [jz])
    cheb = ChebyshevEngine(scipy.sparse.csr_array(h), psi0, [jz])
    assert cheb._center == 0.0
    assert cheb._h_pair.shape == (10, 10) and cheb._h_twice.shape == (5, 5)
    dt = cheb._dt
    cheb.extend(4.5 * dt)
    assert len(cheb._windows) == 3
    assert cheb._classes is None and cheb._state.shape == (2, 5)
    ts = np.linspace(0.1, 5.0 * dt, 97)
    assert np.max(np.abs(cheb.on_grid(ts) - exact.on_grid(ts))) <= 1e-10


def test_chebyshev_checks_shapes_and_takes_an_empty_grid():
    h, _, jz, psi0 = _system(jch(n=2, m=1, beta=0.3, kappa=0.2))
    with pytest.raises(ValueError, match="square"):
        ChebyshevEngine(h[:, :-1], psi0, [jz])
    with pytest.raises(ValueError, match="initial vector"):
        ChebyshevEngine(h, psi0[:-1], [jz])
    with pytest.raises(ValueError, match="observable length"):
        ChebyshevEngine(h, psi0, [jz, jz[:-1]])
    cheb = ChebyshevEngine(h, psi0, [jz, jz])
    assert cheb.on_grid(np.empty(0)).shape == (2, 0)
    assert not cheb._windows


def _state_parts(cheb):
    """The state's real and imaginary parts; a chiral block holds them on its two classes."""
    if cheb._classes is None:
        return cheb._state
    parts = [np.zeros_like(cheb._state[0]) for _ in cheb._classes]
    for part, cols in zip(parts, cheb._classes):
        part[cols] = cheb._state[0][cols]
    return parts


def _chebyshev_rows(h_twice, vector, order):
    """T_k(Hs) vector for k < order, from 2 Hs, as rows."""
    rows = [vector, 0.5 * (h_twice @ vector)]
    while len(rows) < order:
        rows.append(h_twice @ rows[-1] - rows[-2])
    return np.array(rows)


def _forms_by_three_products(cheb, diags):
    """The next window's forms from each part's Chebyshev vectors, each Gram block a product of its own."""
    state_re, state_im = _state_parts(cheb)
    order, dim = ChebyshevEngine._WINDOW_ORDER, state_re.shape[0]
    # One block of the engine's 2 Hs, which is block-diagonal once it pairs the parts.
    h_twice = cheb._h_twice[:dim, :dim]
    q_re, q_im = (_chebyshev_rows(h_twice, part, order) for part in (state_re, state_im))
    forms = []
    for diag in diags:
        g_ri = (q_re * diag) @ q_im.T
        gram = (q_re * diag) @ q_re.T + (q_im * diag) @ q_im.T
        forms.append(cheb._fold_re * gram - cheb._fold_im * (g_ri - g_ri.T))
    return forms


def _chain_block_with_photons(params):
    block = build_quench_block(params)
    photons = params.n * params.m - block.jz / params.omega_a
    return block, [block.jz, photons]


def _line_block_with_photons():
    # 2,687 orbits, detuned, so the block is not chiral.
    return _chain_block_with_photons(jch(n=6, m=1, beta=0.05, kappa=0.5, omega_a=1.1))


def _resonant_line_block_with_photons():
    # The same 2,687 orbits at resonance: a chiral block.
    return _chain_block_with_photons(jch(n=6, m=1, beta=0.05, kappa=0.5))


def _dicke_block_with_photons():
    params = dicke(n=15, m=1, beta=0.5, n_max=75)
    block = build_quench_block(params)
    # At w_c = w_a = 1 the diagonal is n + (N - q) and jz is N - q.
    photons = block.h.diagonal() - block.jz
    return block, [block.jz, photons]


@pytest.mark.parametrize(
    "make", [_line_block_with_photons, _dicke_block_with_photons, _resonant_line_block_with_photons]
)
def test_stacked_gram_forms_match_separate_products(make):
    block, diags = make()
    psi0 = np.zeros(block.dim)
    psi0[block.start] = 1.0
    cheb = ChebyshevEngine(block.h, psi0, diags, odd=block.odd)
    # The first window is real; the third, at 4 dt, holds both parts.
    for window in (0, 2):
        while len(cheb._windows) < window:
            cheb._advance_window()
        if cheb._tails:
            cheb._land()
        ordered = diags
        if cheb._classes is not None:
            # A chiral block holds its states in class order from the first jump.
            order = np.argsort(block.odd, kind="stable")
            ordered = [diag[order] for diag in diags]
        expected = _forms_by_three_products(cheb, ordered)
        cheb._advance_window()
        for got, want in zip(cheb._windows[window].forms, expected, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert (cheb._classes is not None) == (make is _resonant_line_block_with_photons)


@pytest.mark.parametrize("bad", [-1e-300, -1.0, np.nan, np.inf])
def test_chebyshev_rejects_a_negative_or_non_finite_diagonal(bad):
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    h, _, jz, psi0 = _system(params)
    diag = jz.copy()
    diag[-1] = bad
    for diags in ([diag], [jz, diag], [diag, jz]):
        with pytest.raises(ValueError, match="nonnegative"):
            ChebyshevEngine(h, psi0, diags)


def _traced_peak(cheb, t):
    """The traced peak of the bytes ``cheb`` allocates while it extends to ``t``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cheb.extend(t)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _window_slack(dim):
    """The windows' Gram matrices and the products that form them, and a
    few state vectors: less than one more (order, dim) array."""
    order = ChebyshevEngine._WINDOW_ORDER
    slack = 10 * 8 * order**2 + 8 * 8 * dim
    assert slack < 8 * order * dim
    return slack


def test_chebyshev_window_memory_is_what_window_bytes_counts():
    # 2,687 orbits: one (order, dim) array of doubles is 2.1 MB, 28 times
    # a real order x order folded Gram matrix.  Detuned, so not chiral.
    block, psi0 = _quench_start(jch(n=6, m=1, beta=0.05, kappa=0.5, omega_a=1.1))
    cheb = ChebyshevEngine(block.h, psi0, [block.jz])
    peak = _traced_peak(cheb, 4.5 * cheb._dt)
    # Both jumps ran, from the real state and from a complex one.
    assert len(cheb._windows) == 3
    assert cheb._classes is None
    assert peak <= ChebyshevEngine.window_bytes(block.dim) + _window_slack(block.dim)


def test_chiral_window_memory_is_half_of_window_bytes():
    # The same 2,687 orbits at resonance.  The first jump puts the states
    # in class order (a copy of the matrix, which the trace would count
    # while not seeing the old one freed); the next two windows and their
    # jumps run on x + y, one (order, dim) array each.
    block, psi0 = _quench_start(jch(n=6, m=1, beta=0.05, kappa=0.5))
    cheb = ChebyshevEngine(block.h, psi0, [block.jz], odd=block.odd)
    cheb.extend(2.5 * cheb._dt)
    assert cheb._classes is not None
    peak = _traced_peak(cheb, 6.5 * cheb._dt)
    assert len(cheb._windows) == 4
    assert peak <= ChebyshevEngine.window_bytes(block.dim) // 2 + _window_slack(block.dim)


@pytest.mark.parametrize("omega_a, chiral", [(1.0, True), (1.1, False)])
def test_one_work_array_holds_what_the_windows_need(omega_a, chiral):
    # Order rows of dim for a chiral block's one recurrence; order rows of
    # [x | y], 2 dim wide, once a general block's state turns complex at the
    # first jump.
    block, psi0 = _quench_start(jch(n=5, m=1, beta=0.05, kappa=0.5, omega_a=omega_a))
    cheb = ChebyshevEngine(block.h, psi0, [block.jz], odd=block.odd)
    order = ChebyshevEngine._WINDOW_ORDER
    cheb.extend(0.0)
    assert cheb._work.shape == (order * block.dim,)
    cheb.extend(4.5 * cheb._dt)
    assert (cheb._classes is not None) == chiral
    assert cheb._work.shape == ((1 if chiral else 2) * order * block.dim,)
    assert cheb._work.nbytes <= ChebyshevEngine.window_bytes(block.dim)


@pytest.mark.parametrize(
    "params",
    [
        jch(n=5, m=1, beta=0.05, kappa=0.5),
        jch(n=4, m=1, beta=0.05, kappa=0.5, topology=Topology.RING),
        jch(n=5, m=1, beta=0.3, kappa=0.1, topology=Topology.RING),
        jch(n=4, m=2, beta=0.05, kappa=0.5, topology=Topology.ALL_TO_ALL),
        dicke(n=4, m=1, beta=2.0, beta_prime=0.3, n_max=20),
        dicke(n=6, m=2, beta=0.5, n_max=30, normalization=Normalization.NONE),
    ],
)
def test_scaled_discs_bound_the_spectrum_within_the_plain_discs(params):
    if params.model is Model.JCH:
        h = build_quench_block(params).h
    else:
        h = build_csr(params)
    lo, hi = ChebyshevEngine._scaled_discs(h)
    eigenvalues = np.linalg.eigvalsh(h.toarray())
    assert lo <= eigenvalues[0] and eigenvalues[-1] <= hi
    d = h.diagonal()
    radius = np.abs(h).sum(axis=1) - np.abs(d)
    assert np.min(d - radius) <= lo and hi <= np.max(d + radius)


@pytest.mark.parametrize(
    "params",
    [
        jch(n=6, m=1, beta=0.05, kappa=0.5),
        jch(n=6, m=1, beta=0.05, kappa=0.05, topology=Topology.ALL_TO_ALL),
        dicke(n=15, m=1, beta=0.5, n_max=75),
    ],
)
def test_scaled_discs_equal_the_column_reference(params):
    h = build_quench_block(params).h
    expected = scaled_discs_by_columns(h, ChebyshevEngine._DISC_STEPS, ChebyshevEngine._DISC_SHIFT)
    assert ChebyshevEngine._scaled_discs(h) == expected


@pytest.mark.parametrize("omega_a, rows", [(1.0, 1), (1.1, 2)])
def test_equal_disc_weights_iterate_one_row(products, omega_a, rows):
    # At resonance the line's diagonal is one constant, so both weight rows
    # are equal: one row takes the power steps, and the bounds are the
    # two-row reference's to the bit.  Detuned, both rows run.
    h = build_quench_block(jch(n=6, m=1, beta=0.05, kappa=0.05, omega_a=omega_a)).h
    expected = scaled_discs_by_columns(h, ChebyshevEngine._DISC_STEPS, ChebyshevEngine._DISC_SHIFT)
    assert ChebyshevEngine._scaled_discs(h) == expected
    # The plain radius, the steps and the scaled radius of each row.
    assert len(products) == 1 + rows * (ChebyshevEngine._DISC_STEPS + 1)
    assert set(products) == {(h.shape[0],)}


@pytest.mark.parametrize(
    "params",
    [
        jch(n=6, m=1, beta=0.05, kappa=0.5),
        jch(n=5, m=1, beta=0.05, kappa=0.5, omega_a=1.1),
        dicke(n=10, m=1, beta=0.5),
    ],
)
def test_direct_products_and_matrices_equal_scipys(params):
    # The engine calls SciPy's CSR kernel itself and builds 2 Hs and
    # |offdiag(H)| from H's arrays; both must equal SciPy's product and
    # arithmetic to the bit.  The resonant line stores a zero diagonal,
    # which centering on it must drop as SciPy's subtraction does.
    block, psi0 = _quench_start(params)
    h, dim = block.h, block.dim
    cheb = ChebyshevEngine(h, psi0, [block.jz])
    twice = (h - scipy.sparse.eye_array(dim, format="csr") * cheb._center) * (2.0 / cheb._half)
    d = h.diagonal()
    off = abs(h - scipy.sparse.diags_array(d)).tocsr()
    for got, want in ((cheb._h_twice, twice), (abs(dynamics._minus_diagonal(h, d)), off)):
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).dtype == getattr(want, name).dtype
            assert np.array_equal(getattr(got, name), getattr(want, name))
    pair = dynamics._pair(twice)[0]
    xy = np.sin(np.arange(2 * dim) + 0.5) * np.exp(-0.01 * np.arange(2 * dim))
    for matrix, vector in ((h, xy[:dim]), (twice, xy[:dim]), (pair, xy)):
        got = dynamics._product(matrix, vector, np.full(vector.shape, np.nan))
        assert np.array_equal(got, matrix @ vector)


def test_minus_diagonal_inserts_missing_diagonals_and_sums_repeats():
    # Rows 1 and 2 store no diagonal, row 0 an explicit zero, and row 3
    # lists its columns out of order with a repeat: h - c I must hold
    # what SciPy's subtraction holds, once SciPy's result is summed into
    # sorted columns too.
    data = np.array([0.0, 1.0, 3.0, 1.0, 5.0, 5.0, -1.0, 3.0, -2.0])
    indices = np.array([0, 1, 3, 0, 2, 1, 3, 0, 3], dtype=np.int32)
    indptr = np.array([0, 3, 5, 6, 9], dtype=np.int32)
    h = scipy.sparse.csr_array((data, indices, indptr), shape=(4, 4))
    for c in (0.0, 0.5, -3.0):
        want = h - scipy.sparse.eye_array(4, format="csr") * c
        want.sum_duplicates()
        got = dynamics._minus_diagonal(h, np.full(4, c))
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
    # The caller's matrix keeps its own order.
    assert h.indices.tolist() == [0, 1, 3, 0, 2, 1, 3, 0, 3]


def test_scaled_discs_are_tight_on_a_line_and_cut_the_windows():
    block = build_quench_block(jch(n=6, m=1, beta=0.05, kappa=0.5))
    lo, hi = ChebyshevEngine._scaled_discs(block.h)
    top = scipy.sparse.linalg.eigsh(block.h, k=1, which="LA", tol=1e-10)[0][0]
    bottom = scipy.sparse.linalg.eigsh(block.h, k=1, which="SA", tol=1e-10)[0][0]
    assert hi - lo <= 1.01 * (top - bottom)
    psi0 = np.zeros(block.dim)
    psi0[block.start] = 1.0
    cheb = ChebyshevEngine(block.h, psi0, [block.jz])
    cheb.extend(178.0)
    # The plain Gershgorin discs, 1.45 times the true width, take 29.
    assert len(cheb._windows) <= 20


def test_bessel_coefficients_match_jv():
    xs = np.array([0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 17.3, 25.0, 33.3, 49.9, 50.0])
    # Times before a window's center take negative arguments.
    xs = np.concatenate([xs, -xs[1:]])
    order = ChebyshevEngine._WINDOW_ORDER
    got = ChebyshevEngine._bessel(xs).reshape(-1, order)[: xs.shape[0]]
    ks = np.arange(order)
    assert np.max(np.abs(got - jv(ks[None, :], xs[:, None]))) <= 5e-15
    for i in range(xs.shape[0]):
        assert np.array_equal(got[i], ChebyshevEngine._bessel(xs[i : i + 1])[0, 0])


def test_expansion_orders_and_jump_coefficients_match_jv():
    # Each order is the first k >= phase + 4 with |J_k(phase)| < 1e-16, plus 4.
    phase = ChebyshevEngine._WINDOW_PHASE
    assert (phase, 2 * phase) == (50.0, 100.0)
    for x, order in ((phase, ChebyshevEngine._WINDOW_ORDER), (2 * phase, ChebyshevEngine._JUMP_ORDER)):
        ks = np.arange(math.ceil(x) + 4, math.ceil(x) + 400)
        assert ks[np.nonzero(np.abs(jv(ks, x)) < 1e-16)[0][0]] + 4 == order
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    sparse, _, jz, psi0 = _system(params)
    cheb = ChebyshevEngine(sparse, psi0, [jz])
    ks = np.arange(ChebyshevEngine._JUMP_ORDER)
    x = 2.0 * cheb._half * cheb._dt
    phases = np.where(ks == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[ks % 4]
    assert np.max(np.abs(cheb._jump / phases - jv(ks, x))) <= 5e-15
    jump = ChebyshevEngine._bessel(np.array([100.0]), ks.shape[0], ChebyshevEngine._JUMP_BESSEL_POINTS)
    assert np.max(np.abs(jump[0, 0] - jv(ks, 100.0))) <= 5e-15


def _short_line_block():
    block = build_quench_block(jch(n=5, m=1, beta=0.05, kappa=0.5))
    return block, [block.jz]


@pytest.mark.parametrize("make", [_short_line_block, _dicke_block_with_photons])
def test_two_sided_windows_match_the_eigenbasis(make, products):
    block, diags = make()
    h = block.h
    psi0 = np.zeros(block.dim)
    psi0[block.start] = 1.0
    exact = EigenEngine(diagonalize(h.toarray()), psi0, diags[:1])
    cheb = ChebyshevEngine(h, psi0, diags[:1], odd=block.odd)
    dt = cheb._dt
    # Both sides of the second and third centers, 2 dt and 4 dt.
    offsets = np.array([-1.0, -0.7, -0.3, 0.0, 0.4, 0.9, 1.0])
    ts = np.concatenate([2 * dt + offsets * dt, 4 * dt + offsets * dt])
    assert np.max(np.abs(cheb.on_grid(ts) - exact.on_grid(ts))) <= 1e-10
    assert [w.center for w in cheb._windows] == [0.0, 2 * dt, 4 * dt]
    # Reaching t takes 1 + ceil((t - dt) / (2 dt)) windows.
    cheb = ChebyshevEngine(h, psi0, diags[:1], odd=block.odd)
    for t in np.array([0.5, 2.9, 3.2, 6.1, 9.7, 13.4]) * dt:
        cheb.extend(t)
        assert len(cheb._windows) == 1 + math.ceil((t - dt) / (2 * dt))
    # The jump to the next center waits for that window, so no time up to
    # the end of the last one takes a sparse product.
    products.clear()
    late = np.linspace(cheb._windows[-1].t0, cheb._t_end, 17)
    assert np.max(np.abs(cheb.on_grid(late) - exact.on_grid(late))) <= 1e-10
    assert len(products) == 0


def test_engines_reject_non_finite_times():
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    sparse, h, jz, psi0 = _system(params)
    # The checks come before the Chebyshev engine extends its windows, so
    # an infinite time cannot append windows forever.
    cheb = ChebyshevEngine(sparse, psi0, [jz])
    for engine in (EigenEngine(diagonalize(h), psi0, [jz]), cheb):
        for ts in ([1.0, np.inf], [np.nan], [np.nan, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                engine.on_grid(np.array(ts))


def test_engines_reject_negative_times():
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    sparse, h, jz, psi0 = _system(params)
    for engine in (EigenEngine(diagonalize(h), psi0, [jz]), ChebyshevEngine(sparse, psi0, [jz])):
        for ts in ([-1.0], [1.0, -2.0]):
            with pytest.raises(ValueError, match="negative"):
                engine.on_grid(np.array(ts))


def test_spectrum_is_plain_data():
    spec = diagonalize(np.eye(4))
    assert isinstance(spec, Spectrum)
    assert spec.eigenvalues.shape == (4,)
    assert spec.eigenvectors.shape == (4, 4)
