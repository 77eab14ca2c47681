"""Spectra, exact propagation, and the sparse Chebyshev evaluator."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse.linalg
from scipy.special import jv

from qbattery import dynamics
from qbattery.battery import _reachable_block
from qbattery.dynamics import ChebyshevEngine, EigenEngine, Spectrum, diagonalize
from qbattery.hamiltonians import (
    Model,
    ModelParams,
    Normalization,
    Topology,
    build_basis,
    build_csr,
    build_quench_block,
    initial_index,
    initial_state,
    jz_diagonal,
)


def one_point(engine, t):
    """The engine's value at a single time, asked as a grid of one."""
    return float(engine.on_grid(np.array([t]))[0])


def _system(params):
    basis = build_basis(params)
    h = build_csr(params, basis).toarray()
    return basis, h, jz_diagonal(params, basis), initial_state(params, basis)


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
        weights = EigenEngine(spec, v1, indicator).on_grid(ts)
        assert np.allclose(weights, v1[b] ** 2, atol=1e-12)


def test_prepare_preserves_norm():
    rng = np.random.default_rng(3)
    h = rng.standard_normal((12, 12))
    h = (h + h.T) / 2.0
    psi0 = rng.standard_normal(12)
    psi0 /= np.linalg.norm(psi0)
    engine = EigenEngine(diagonalize(h), psi0, np.ones(12))
    assert np.max(np.abs(engine.on_grid(np.linspace(0.0, 50.0, 11)) - 1.0)) <= 1e-10


def test_prepare_dimension_mismatch():
    spec = diagonalize(np.eye(3))
    with pytest.raises(ValueError):
        EigenEngine(spec, np.array([1.0, 0.0]), np.ones(3))
    with pytest.raises(ValueError):
        EigenEngine(spec, np.array([1.0, 0.0, 0.0]), np.ones(2))


def test_prepare_matches_direct_projection():
    params = jch(n=2, m=1, beta=0.05, kappa=0.1)
    basis, h, jz, psi0 = _system(params)
    spec = diagonalize(h)
    engine = EigenEngine(spec, psi0, jz)
    direct = np.array([spec.eigenvectors[:, j] @ psi0 for j in range(basis.dim)])
    for t in (0.0, 0.9, 13.0):
        psi = spec.eigenvectors @ (direct * np.exp(-1j * spec.eigenvalues * t))
        assert one_point(engine, t) == pytest.approx(float(jz @ np.abs(psi) ** 2), abs=1e-14)


# ---------------------------------------------------------------------------
# Expectations on the dense path.


def test_expectation_at_zero_matches_initial_value():
    params = jch(n=2, m=2, beta=0.3, kappa=0.2)
    _, h, jz, psi0 = _system(params)
    engine = EigenEngine(diagonalize(h), psi0, jz)
    assert one_point(engine, 0.0) == pytest.approx(float(jz @ psi0**2), abs=1e-12)


def test_identity_observable_is_one_for_all_times():
    params = jch(n=2, m=1, beta=0.4, kappa=0.3)
    _, h, _, psi0 = _system(params)
    engine = EigenEngine(diagonalize(h), psi0, np.ones(h.shape[0]))
    ts = np.linspace(0.0, 40.0, 64)
    assert np.max(np.abs(engine.on_grid(ts) - 1.0)) <= 1e-10


def test_single_cavity_oscillation_closed_form():
    params = jch(n=1, m=1, beta=0.05)
    _, h, jz, psi0 = _system(params)
    ts = np.linspace(0.0, 200.0, 400)
    got = EigenEngine(diagonalize(h), psi0, jz).on_grid(ts)
    assert np.max(np.abs(got - np.sin(0.05 * ts) ** 2)) <= 1e-12


def test_expectation_rejects_nondiagonal_observable():
    params = jch(n=2, m=1, beta=0.05, kappa=0.1)
    _, h, _, psi0 = _system(params)
    with pytest.raises(ValueError):
        EigenEngine(diagonalize(h), psi0, h)


@pytest.mark.parametrize(
    "params",
    [jch(n=2, m=2, beta=0.3, kappa=0.4), dicke(n=3, m=1, beta=0.6, beta_prime=0.2, n_max=9)],
)
def test_unitarity_energy_conservation_and_bounds(params):
    basis, h, jz, psi0 = _system(params)
    spec = diagonalize(h)
    engine = EigenEngine(spec, psi0, jz)
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
    engine = EigenEngine(diagonalize(h), psi0, jz)
    ts = np.array([0.0, 0.7, 3.1, 17.0, 44.4])
    grid = engine.on_grid(ts)
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
    engine = EigenEngine(spectrum, psi0, jz)
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
    basis, h, jz, psi0 = _system(params)
    exact = EigenEngine(diagonalize(h), psi0, jz)
    cheb = ChebyshevEngine(build_csr(params, basis), psi0, [jz])
    ts = np.linspace(0.0, 150.0, 301)
    assert np.max(np.abs(cheb.on_grid(ts) - exact.on_grid(ts))) <= 1e-10
    for t in (0.0, 0.05, 1.7, 149.3):
        assert one_point(cheb, t) == pytest.approx(one_point(exact, t), abs=1e-10)


def test_chebyshev_unsorted_grid_and_revisits():
    params = jch(n=2, m=1, beta=0.2, kappa=0.3)
    basis, h, jz, psi0 = _system(params)
    cheb = ChebyshevEngine(build_csr(params, basis), psi0, [jz])
    ts = np.array([40.0, 1.0, 90.0, 1.0, 0.0])
    got = cheb.on_grid(ts)
    exact = EigenEngine(diagonalize(h), psi0, jz)
    assert np.max(np.abs(got - exact.on_grid(ts))) <= 1e-10
    # Asking for an earlier time after extension must not disturb anything.
    assert one_point(cheb, 1.0) == pytest.approx(got[1], abs=1e-14)


def test_chebyshev_deterministic_across_instances():
    params = dicke(n=3, m=1, beta=0.7, beta_prime=0.4, n_max=12)
    basis = build_basis(params)
    psi0 = initial_state(params, basis)
    jz = jz_diagonal(params, basis)
    ts = np.linspace(0.1, 80.0, 257)
    runs = []
    for _ in range(2):
        engine = ChebyshevEngine(build_csr(params, basis), psi0, [jz])
        runs.append(engine.on_grid(ts))
    assert np.array_equal(runs[0], runs[1])


def test_chebyshev_tracks_multiple_observables():
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    basis, h, jz, psi0 = _system(params)
    photons = basis.photons.sum(axis=1).astype(float)
    cheb = ChebyshevEngine(build_csr(params, basis), psi0, [jz, photons])
    spec = diagonalize(h)
    ts = np.linspace(0.0, 30.0, 61)
    for which, diag in enumerate((jz, photons)):
        exact = EigenEngine(spec, psi0, diag)
        assert np.max(np.abs(cheb.values_on_grid(which, ts) - exact.on_grid(ts))) <= 1e-10


def test_first_chebyshev_window_propagates_only_the_real_part():
    params = jch(n=2, m=1, beta=0.2, kappa=0.3)
    basis, h, jz, psi0 = _system(params)
    cheb = ChebyshevEngine(build_csr(params, basis), psi0, [jz])

    class Counting:
        def __init__(self, matrix):
            self.matrix, self.products = matrix, 0

        def __matmul__(self, vector):
            self.products += 1
            return self.matrix @ vector

    counting = cheb._h_twice = Counting(cheb._h_twice)
    order = cheb._order
    cheb.extend(0.0)
    assert (len(cheb._windows), counting.products) == (1, order - 1)
    cheb.extend(2.5 * cheb._dt)
    assert (len(cheb._windows), counting.products) == (3, 5 * (order - 1))
    ts = np.linspace(0.0, cheb._t_end, 41)
    exact = EigenEngine(diagonalize(h), psi0, jz)
    assert np.max(np.abs(cheb.on_grid(ts) - exact.on_grid(ts))) <= 1e-10


def _forms_by_three_products(cheb, diags):
    """The next window's forms from its Chebyshev vectors, each Gram block a product of its own."""
    order, dim = cheb._order, cheb._state_re.shape[0]
    q_re, q_im = np.empty((order, dim)), np.empty((order, dim))
    cheb._expand(cheb._state_re, q_re)
    cheb._expand(cheb._state_im, q_im)
    forms = []
    for diag in diags:
        g_ri = (q_re * diag) @ q_im.T
        gram = (q_re * diag) @ q_re.T + (q_im * diag) @ q_im.T
        forms.append(cheb._fold_re * gram - cheb._fold_im * (g_ri - g_ri.T))
    return forms


def _line_block_with_photons():
    params = jch(n=6, m=1, beta=0.05, kappa=0.5)
    block = build_quench_block(params)
    photons = params.n * params.m - block.jz / params.omega_a
    return block.h, block.start, [block.jz, photons]


def _dicke_block_with_photons():
    params = dicke(n=15, m=1, beta=0.5, n_max=75)
    basis = build_basis(params)
    h = build_csr(params, basis)
    start = initial_index(params, basis)
    keep = _reachable_block(h, start)
    diags = [jz_diagonal(params, basis)[keep], basis.n[keep].astype(float)]
    return h[keep][:, keep], int(np.searchsorted(keep, start)), diags


@pytest.mark.parametrize("make", [_line_block_with_photons, _dicke_block_with_photons])
def test_stacked_gram_forms_match_separate_products(make):
    h, start, diags = make()
    psi0 = np.zeros(h.shape[0])
    psi0[start] = 1.0
    cheb = ChebyshevEngine(h, psi0, diags)
    # The first window is real; the third holds both parts.
    for window in (0, 2):
        while len(cheb._windows) < window:
            cheb._advance_window()
        expected = _forms_by_three_products(cheb, diags)
        cheb._advance_window()
        for got, want in zip(cheb._windows[window].forms, expected, strict=True):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("bad", [-1e-300, -1.0, np.nan, np.inf])
def test_chebyshev_rejects_a_negative_or_non_finite_diagonal(bad):
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    basis, _, jz, psi0 = _system(params)
    h = build_csr(params, basis)
    diag = jz.copy()
    diag[-1] = bad
    for diags in ([diag], [jz, diag], [diag, jz]):
        with pytest.raises(ValueError, match="nonnegative"):
            ChebyshevEngine(h, psi0, diags)


def test_chebyshev_window_memory_is_what_window_bytes_counts():
    # 2,687 orbits: one (order, dim) array of doubles is 2.1 MB, 28 times
    # a real order x order folded Gram matrix.
    block = build_quench_block(jch(n=6, m=1, beta=0.05, kappa=0.5))
    psi0 = np.zeros(block.dim)
    psi0[block.start] = 1.0
    cheb = ChebyshevEngine(block.h, psi0, [block.jz])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cheb.extend(2.5 * cheb._dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(cheb._windows) == 3
    # The three windows' Gram matrices and the products that form them,
    # and a few state vectors: less than one more (order, dim) array.
    slack = 10 * 8 * cheb._order**2 + 8 * 8 * block.dim
    assert slack < 8 * cheb._order * block.dim
    assert peak <= ChebyshevEngine.window_bytes(block.dim) + slack


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
        h = build_csr(params, build_basis(params))
    lo, hi = ChebyshevEngine._scaled_discs(h)
    eigenvalues = np.linalg.eigvalsh(h.toarray())
    assert lo <= eigenvalues[0] and eigenvalues[-1] <= hi
    d = h.diagonal()
    radius = np.abs(h).sum(axis=1) - np.abs(d)
    assert np.min(d - radius) <= lo and hi <= np.max(d + radius)


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
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    basis, _, jz, psi0 = _system(params)
    cheb = ChebyshevEngine(build_csr(params, basis), psi0, [jz])
    xs = np.array([0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 17.3, 25.0, 33.3, 49.9, 50.0])
    got = cheb._bessel(xs).reshape(-1, cheb._order)[: xs.shape[0]]
    ks = np.arange(cheb._order)
    assert np.max(np.abs(got - jv(ks[None, :], xs[:, None]))) <= 5e-15
    for i in range(xs.shape[0]):
        assert np.array_equal(got[i], cheb._bessel(xs[i : i + 1])[0, 0])


def test_engines_reject_non_finite_times():
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    basis, h, jz, psi0 = _system(params)
    # The checks come before the Chebyshev engine extends its windows, so
    # an infinite time cannot append windows forever.
    cheb = ChebyshevEngine(build_csr(params, basis), psi0, [jz])
    for engine in (EigenEngine(diagonalize(h), psi0, jz), cheb):
        for ts in ([1.0, np.inf], [np.nan], [np.nan, 2.0]):
            with pytest.raises(ValueError, match="finite"):
                engine.on_grid(np.array(ts))


def test_chebyshev_rejects_negative_times():
    params = jch(n=2, m=1, beta=0.3, kappa=0.2)
    basis = build_basis(params)
    engine = ChebyshevEngine(
        build_csr(params, basis), initial_state(params, basis), [jz_diagonal(params, basis)]
    )
    with pytest.raises(ValueError):
        engine.on_grid(np.array([-1.0]))
    with pytest.raises(ValueError):
        engine.on_grid(np.array([1.0, -2.0]))


def test_spectrum_is_plain_data():
    spec = diagonalize(np.eye(4))
    assert isinstance(spec, Spectrum)
    assert spec.eigenvalues.shape == (4,)
    assert spec.eigenvectors.shape == (4, 4)
