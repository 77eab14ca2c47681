"""End-to-end acceptance suite.

Thirteen checks covering closed-form equivalence, scaling laws, conservation,
an independent integrator oracle, two large-m limits and the crossover
between them, and byte-level determinism.  Each test carries an explicit
wall-clock budget and prints one summary line when it passes (visible with
``pytest -s``); the pytest verdict itself is the pass/fail record.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

from qbattery.battery import (
    QuenchSystem,
    SearchConfig,
    SearchNotice,
    charge,
    default_horizon,
    energy_series,
)
from qbattery.cli import main as cli_main
from qbattery.dynamics import ChebyshevEngine, diagonalize
from qbattery.hamiltonians import (
    Model,
    ModelParams,
    Normalization,
    Topology,
    build_csr,
)
from qbattery.sweeps import Axis, Scaling, SweepSpec, convergence_check, fit_power_law, run_sweep

from oracles import (
    C1,
    C2,
    X_STAR,
    Y_STAR,
    chain_sector,
    dicke_ladder,
    driven_limit,
    flat_index,
    full_quench,
    operator_chain,
    reference_dense,
)

BETA = 0.05


def jch(**kw):
    return ModelParams(model=Model.JCH, **kw)


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **kw)


def finish(k, t0, budget, label):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"check {k} took {elapsed:.1f} s, budget {budget:.0f} s"
    print(f"check {k:02d} PASS [{elapsed:.1f} s] {label}")


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# 1. Closed-form oscillation equivalence and quotient-argmax condition.


def test_01_closed_form_equivalence():
    t0 = time.perf_counter()
    worst_e = 0.0
    worst_x = 0.0
    for n in (1, 2, 3, 4):
        for m in (1, 2, 3):
            params = jch(n=n, m=m, beta=BETA)
            omega = BETA * math.sqrt(m)
            period = 2.0 * math.pi / omega
            ts = np.linspace(period / 1000.0, period, 1000)
            energies = energy_series(params, ts)[:, 1]
            exact = n * np.sin(omega * ts) ** 2
            worst_e = max(worst_e, float(np.max(np.abs(energies - exact))))
            result = charge(params, SearchConfig(t_max=period, n_samples=2048, rel_tol=1e-8))
            worst_x = max(worst_x, abs(omega * result.tau - X_STAR) / X_STAR)
    assert worst_e <= 1e-8
    assert worst_x <= 1e-6
    finish(1, t0, 10.0, f"max |E - N sin^2| = {worst_e:.2e}, max rel tau defect = {worst_x:.2e}")


# ---------------------------------------------------------------------------
# 2. Power per cavity flattens as the chain grows.


@pytest.mark.slow
def test_02_power_per_cavity_flattens():
    t0 = time.perf_counter()
    search = SearchConfig(t_max=6.0 * math.pi / BETA, n_samples=1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SearchNotice)
        for kappa in (0.0, 0.05, 0.5):
            spec = SweepSpec(
                base=jch(n=2, m=1, beta=BETA, kappa=kappa),
                axis=Axis.N,
                values=tuple(range(2, 9)),
                scaling=Scaling.PER_N,
                search=search,
            )
            rows = run_sweep(spec, jobs=1)
            assert all(r.error == "" for r in rows)
            ps = {r.n: r.p_scaled for r in rows}
            for chain in ((2, 4, 6, 8), (3, 5, 7)):
                gaps = [abs(ps[b] - ps[a]) for a, b in zip(chain, chain[1:])]
                for prev, nxt in zip(gaps, gaps[1:]):
                    assert nxt < prev or nxt < 1e-9, (
                        f"kappa={kappa}, chain={chain}: gaps {gaps} do not flatten"
                    )
    finish(2, t0, 300.0, "p_max/N same-parity increments shrink for all three hoppings")


# ---------------------------------------------------------------------------
# 3. Power per sqrt(m) converges as the initial photon number grows.


@pytest.mark.slow
def test_03_power_per_sqrt_m_converges():
    t0 = time.perf_counter()
    tails = {}
    for kappa in (0.0, 0.05):
        spec = SweepSpec(
            base=jch(n=2, m=1, beta=BETA, kappa=kappa),
            axis=Axis.M,
            values=tuple(range(1, 21)),
            scaling=Scaling.PER_SQRT_M,
        )
        rows = run_sweep(spec, jobs=1)
        assert all(r.error == "" for r in rows)
        ps = [r.p_scaled for r in rows]
        tails[f"chain kappa={kappa}"] = rel_diff(ps[-1], ps[-2])
    spec = SweepSpec(
        base=dicke(n=10, m=1, beta=0.5),
        axis=Axis.M,
        values=tuple(range(1, 11)),
        scaling=Scaling.PER_SQRT_M,
    )
    rows = run_sweep(spec, jobs=1)
    assert all(r.error == "" for r in rows)
    ps = [r.p_scaled for r in rows]
    tails["collective"] = rel_diff(ps[-1], ps[-2])
    for label, tail in tails.items():
        assert tail < 0.02, f"{label}: last-two relative difference {tail:.4f}"
    finish(3, t0, 600.0, "tail increments " + ", ".join(f"{k}: {v:.2e}" for k, v in tails.items()))


# ---------------------------------------------------------------------------
# 4. Power times hopping rate approaches a constant at strong hopping.


def _kappa_sweep(n, kappas, topology):
    spec = SweepSpec(
        base=jch(n=n, m=1, beta=BETA, kappa=kappas[0], topology=topology),
        axis=Axis.KAPPA,
        values=kappas,
        scaling=Scaling.TIMES_KAPPA,
    )
    rows = run_sweep(spec, jobs=1)
    assert all(r.error == "" for r in rows)
    return rows


def zero_mode_plateau(beta):
    """Strong-hopping limit of p_max for the three-cavity open chain, m = 1.

    The chain's photon mode b0 = (a1 - a3)/sqrt(2) has adjacency eigenvalue
    0 and stays resonant at any hopping.  |1,1,1> holds 0 or 2 photons in
    b0, each with probability 1/2, and b0 couples to two-level systems 1
    and 3 with strength beta/sqrt(2).  The two-photon branch gives
    E(t) = g(x) at x = sqrt(3)*beta*t, with g below.  The quotient g(x)/x
    peaks at 0.724 where x g'(x) = g(x) on (1, 2.5); beyond x = 2.5 the
    bound g <= 16/9 keeps it below 0.712.
    """

    def g(x):
        return (2.0 / 3.0) * math.sin(x) ** 2 + (4.0 / 9.0) * (1.0 - math.cos(x)) ** 2

    def dg(x):
        return (2.0 / 3.0) * math.sin(2.0 * x) + (8.0 / 9.0) * (1.0 - math.cos(x)) * math.sin(x)

    x = brentq(lambda y: y * dg(y) - g(y), 1.0, 2.5, xtol=1e-15)
    return 0.5 * math.sqrt(3.0) * beta * g(x) / x


@pytest.mark.slow
@pytest.mark.parametrize("n", [2, 3])
def test_04_power_scales_inversely_with_hopping(n):
    t0 = time.perf_counter()
    kappas = tuple(float(k) for k in np.geomspace(0.05, 1.0, 7))
    # Every photon normal mode of the two-cavity chain and of the
    # three-cavity ring is detuned by at least kappa, so p_max falls like
    # 1/kappa.  The three-cavity open chain is checked separately below.
    topology = Topology.LINE if n == 2 else Topology.RING
    ps = [r.p_scaled for r in _kappa_sweep(n, kappas, topology)]
    tail = rel_diff(ps[-1], ps[-2])
    assert tail < 0.05, f"N={n} {topology.value}: p_max*kappa tail difference {tail:.4f}"
    label = f"N={n} {topology.value}: largest-two-kappa difference {tail:.2e}"
    if n == 3:
        # The open chain keeps the resonant mode b0 = (a1 - a3)/sqrt(2)
        # (adjacency eigenvalue 0), so p_max levels off at the b0 plateau
        # instead of falling like 1/kappa.  On this grid p_max goes from
        # 0.0789 to 0.0316 against a plateau of 0.0313485.
        p_inf = zero_mode_plateau(BETA)
        # The same plateau is half the two-photon power of the two-system
        # rotating-wave collective model at the mode's coupling.
        two_photon = charge(dicke(n=2, m=1, beta=BETA / math.sqrt(2.0), beta_prime=0.0,
                                  normalization=Normalization.NONE))
        assert rel_diff(0.5 * two_photon.p_max, p_inf) < 1e-9
        # p_max approaches the plateau from above: the deviation is positive
        # and shrinks at every step (1.52 down to 0.0063 on this grid).
        devs = [r.p_max / p_inf - 1.0 for r in _kappa_sweep(n, kappas, Topology.LINE)]
        assert all(d > 0.0 for d in devs), f"open chain dips below the plateau: {devs}"
        assert all(b < a for a, b in zip(devs, devs[1:])), f"deviations {devs} do not shrink"
        assert devs[-1] < 0.01, f"open chain at kappa=1 is {devs[-1]:.2%} off the plateau"
        label += f"; open chain {devs[-1]:.2%} above plateau {p_inf:.6f}"
    finish(4, t0, 120.0, label)


# ---------------------------------------------------------------------------
# 5. Coupling normalization toggles the collective power-law exponent.


@pytest.mark.slow
def test_05_normalization_sets_scaling_exponent():
    t0 = time.perf_counter()
    slopes = {}
    for norm, window in ((Normalization.SQRT_N, (0.9, 1.1)), (Normalization.NONE, (1.4, 1.6))):
        spec = SweepSpec(
            base=dicke(n=4, m=1, beta=0.5, normalization=norm),
            axis=Axis.N,
            values=tuple(range(4, 17)),
            search=SearchConfig(n_samples=2048),
        )
        rows = run_sweep(spec, jobs=1)
        assert all(r.error == "" for r in rows)
        slope, r_squared = fit_power_law(rows)
        slopes[norm.value] = slope
        assert window[0] <= slope <= window[1], (
            f"{norm.value}: exponent {slope:.3f} outside {window}, r^2={r_squared:.4f}"
        )
    finish(5, t0, 300.0, f"exponents: {slopes['sqrt-n']:.3f} (scaled), {slopes['none']:.3f} (bare)")


# ---------------------------------------------------------------------------
# 6. Photon-space truncation is converged at the default multipliers.


@pytest.mark.slow
def test_06_cutoff_convergence():
    t0 = time.perf_counter()
    worst = 0.0
    for beta in (0.05, 0.5):
        for n in (4, 10):
            converged, diff = convergence_check(dicke(n=n, m=1, beta=beta), multipliers=(4, 5))
            assert converged, f"beta={beta}, N={n}: relative difference {diff:.2e}"
            assert diff < 1e-4
            worst = max(worst, diff)
    finish(6, t0, 120.0, f"worst cutoff sensitivity {worst:.2e}")


# ---------------------------------------------------------------------------
# 7. Conservation laws, exactly at the matrix level and along trajectories.


def _diag_commutator_max(h, diag_vec):
    """max |[H, X]| entrywise for diagonal X; exact, no matmul round-off."""
    coo = sp.coo_array(h)
    return float(np.max(np.abs(coo.data * (diag_vec[coo.coords[1]] - diag_vec[coo.coords[0]])))) if coo.nnz else 0.0


def test_07_conservation_laws():
    t0 = time.perf_counter()
    # Chain model: the full-space Hamiltonian commutes exactly with the total
    # excitation count, and the sector matrix is its restriction.
    for n in (1, 2, 3):
        for m in (1, 2):
            cutoff = n * m
            params = jch(n=n, m=m, beta=BETA, kappa=0.05)
            h_full, excitations = operator_chain(params, cutoff)
            assert _diag_commutator_max(h_full, excitations) == 0.0
            sector = chain_sector(n, m)
            pos = flat_index(sector, cutoff)
            assert np.all(excitations[pos] == n * m)
            sub = h_full[pos][:, pos].toarray()
            assert np.allclose(sub, reference_dense(params, sector), rtol=0.0, atol=1e-13)

    # Collective model without counter-rotating terms conserves n + (N - q);
    # with only counter-rotating terms it strictly violates it.
    rotating = dicke(n=3, m=1, beta=0.5, beta_prime=0.0, n_max=12)
    ladder = dicke_ladder(rotating)
    x_vec = (ladder.n + (3 - ladder.q)).astype(float)
    h_rot = build_csr(rotating)
    assert _diag_commutator_max(h_rot, x_vec) == 0.0
    counter = dicke(n=3, m=1, beta=0.0, beta_prime=0.5, n_max=12)
    h_cnt = build_csr(counter)
    assert _diag_commutator_max(h_cnt, x_vec) > 0.0

    # Trajectories: unitarity and energy conservation.
    for params in (jch(n=3, m=1, beta=BETA, kappa=0.05), dicke(n=4, m=1, beta=0.5)):
        h, _, psi0 = full_quench(params)
        h = h.toarray()
        spectrum = diagonalize(h)
        coeffs = spectrum.eigenvectors.T @ psi0
        e_ref = float(psi0 @ h @ psi0)
        h_inf = float(np.max(np.sum(np.abs(h), axis=1)))
        for t in np.linspace(0.5, 100.0, 40):
            psi_t = spectrum.eigenvectors @ (coeffs * np.exp(-1j * spectrum.eigenvalues * t))
            assert abs(np.linalg.norm(psi_t) - 1.0) <= 1e-10
            energy = float(np.real(np.conj(psi_t) @ h @ psi_t))
            assert abs(energy - e_ref) <= 1e-9 * h_inf

    # The sparse propagator conserves the norm too (identity as observable).
    h, _, psi0 = full_quench(jch(n=3, m=1, beta=BETA, kappa=0.05))
    engine = ChebyshevEngine(h, psi0, [np.ones(h.shape[0])])
    norms = engine.on_grid(np.linspace(1.0, 100.0, 50))[0]
    assert np.max(np.abs(norms - 1.0)) <= 1e-10
    finish(7, t0, 30.0, "exact commutators, unitary trajectories, conserved energy")


# ---------------------------------------------------------------------------
# 8. Independent integrator oracle on every small configuration.


# The integrator runs every small configuration at once, padded to this size.
PAD = 32


def _rk4_jz(hs, psi0s, jzs, dt, n_steps, record_every):
    """Classic fourth-order integration of i d(psi)/dt = H psi, tracking <Jz>.

    Integrates a stack of systems in one loop, each padded to ``PAD``
    states with zero rows, columns and amplitudes, which stay zero.  Returns
    one row of <Jz> records per system.
    """
    gen = np.zeros((len(hs), PAD, PAD), dtype=np.complex128)
    psi = np.zeros((len(hs), PAD, 1), dtype=np.complex128)
    jz = np.zeros((len(hs), PAD, 1))
    for i, (h, psi0, diag) in enumerate(zip(hs, psi0s, jzs)):
        d = h.shape[0]
        shift = float(np.mean(np.diag(h)))
        gen[i, :d, :d] = -1j * (h - shift * np.eye(d))
        psi[i, :d, 0] = psi0
        jz[i, :d, 0] = diag
    out = []
    for step in range(1, n_steps + 1):
        k1 = gen @ psi
        k2 = gen @ (psi + (0.5 * dt) * k1)
        k3 = gen @ (psi + (0.5 * dt) * k2)
        k4 = gen @ (psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        if step % record_every == 0:
            out.append(np.real(np.sum(psi.conj() * jz * psi, axis=(1, 2))))
    return np.array(out).T


SMALL_CONFIGS = (
    jch(n=1, m=1, beta=0.05),
    jch(n=1, m=2, beta=0.3, omega_a=1.3),
    jch(n=2, m=1, beta=0.05, kappa=0.1),
    jch(n=2, m=1, beta=0.2, kappa=0.3, topology=Topology.RING),
    jch(n=2, m=3, beta=0.1, kappa=0.05),
    dicke(n=1, m=1, beta=0.5, n_max=14),
    dicke(n=2, m=1, beta=0.5, beta_prime=0.0, n_max=9),
    dicke(n=2, m=1, beta=0.3, beta_prime=0.7, n_max=9, normalization=Normalization.NONE),
    dicke(n=3, m=1, beta=0.5, n_max=7, omega_a=1.3),
)


def test_08_small_instance_integrator_oracle():
    t0 = time.perf_counter()
    dt = 1e-3
    checkpoints = np.arange(1.0, 101.0)
    hs, jzs, psi0s = zip(*(full_quench(params) for params in SMALL_CONFIGS))
    assert all(h.shape[0] <= PAD for h in hs)
    jz_refs = _rk4_jz([h.toarray() for h in hs], psi0s, jzs, dt, 100_000, 1000)
    worst = 0.0
    for params, jz, psi0, jz_ref in zip(SMALL_CONFIGS, jzs, psi0s, jz_refs):
        reference = params.omega_c * (jz_ref - jz @ psi0)
        system = QuenchSystem(params)
        assert system.engine == "dense"
        ours = system.on_grid(checkpoints)
        worst = max(worst, float(np.max(np.abs(ours - reference))))
    assert worst <= 1e-6
    finish(8, t0, 60.0, f"max |E| deviation over {len(SMALL_CONFIGS)} configs = {worst:.2e}")


# ---------------------------------------------------------------------------
# 9. The photon-number exponent does not depend on the hopping graph.


@pytest.mark.slow
def test_09_topology_independent_exponent():
    t0 = time.perf_counter()
    ms = np.arange(1, 9)
    powers = {}
    slopes = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error", SearchNotice)
        for topology in (Topology.LINE, Topology.ALL_TO_ALL):
            ps = []
            for m in ms:
                params = jch(n=4, m=int(m), beta=BETA, kappa=0.1, topology=topology)
                config = SearchConfig(t_max=4.0 * math.pi / (BETA * math.sqrt(m)), n_samples=1024)
                ps.append(charge(params, config).p_max)
            powers[topology] = np.array(ps)
            slopes[topology.value] = float(np.polyfit(np.log(ms), np.log(ps), 1)[0])
    spread = np.max(np.abs(powers[Topology.LINE] - powers[Topology.ALL_TO_ALL])
                    / powers[Topology.LINE])
    assert spread > 1e-6, "hopping graphs should give distinct power values"
    # The sqrt(m) law needs beta*sqrt(m) >> kappa, i.e. m >> 4 here, so the
    # fit over m = 1..8 sits above 0.5 (0.705 line, 0.725 all-to-all).  The
    # two graphs agree with each other, and both approach the exponent 0.5
    # from above: p_max/sqrt(m) rises towards the kappa = 0 value
    # N*beta*sin^2(x*)/x*, whose exponent is exactly 0.5 (from 0.55 to 0.84
    # of it on the line, 0.48 to 0.77 all-to-all), and the local slope falls
    # (0.777 to 0.625 line, 0.787 to 0.656 all-to-all).
    assert abs(slopes["line"] - slopes["all"]) < 0.05, f"exponents {slopes} differ"
    ceiling = 4 * BETA * math.sin(X_STAR) ** 2 / X_STAR
    for topology, ps in powers.items():
        per_root = ps / np.sqrt(ms)
        assert np.all(np.diff(per_root) > 0.0), f"{topology.value}: p_max/sqrt(m) {per_root}"
        assert np.all(per_root < ceiling), f"{topology.value}: p_max/sqrt(m) above {ceiling:.4f}"
        local = np.diff(np.log(ps)) / np.diff(np.log(ms))
        assert np.all(np.diff(local) < 0.0), f"{topology.value}: local slopes {local}"
    finish(9, t0, 300.0, f"exponents {slopes}; graphs differ by up to {spread:.1%}")


# ---------------------------------------------------------------------------
# 10. Byte-level determinism of the CLI sweep output.


@pytest.mark.slow
def test_10_deterministic_sweep_output(tmp_path):
    t0 = time.perf_counter()
    paths = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for path in paths:
        code = cli_main(["sweep", "--preset", "fig2", "--out", str(path), "--jobs", "1"])
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert len(first.splitlines()) == 16  # header plus 3 hoppings x 5 sizes
    finish(10, t0, 300.0, f"two runs, {len(first)} identical bytes")


# ---------------------------------------------------------------------------
# 11. The rotating-only cut approaches the classical-field limit N beta sqrt(m) c1.


def test_11_rotating_cut_approaches_its_large_m_limit():
    # With beta' = 0 (the Tavis-Cummings model) N*m photons drive each system
    # like a classical field as m grows, so E -> N sin^2(beta sqrt(m) t) and
    # p_max -> N beta sqrt(m) C1 from below, with a gap of order 1/m: (1 -
    # ratio) m lies between 0.086 (N=2) and 0.171 (N=40, m=10).  N=40 at
    # m=1000 is a block of 41 states cut from a ladder of 8,200,041.
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 10, 40):
        ms = np.array([10, 100, 1000])
        gaps = []
        for m in ms:
            p_max = charge(dicke(n=n, m=int(m), beta=BETA, beta_prime=0.0)).p_max
            gaps.append(1.0 - p_max / (n * BETA * math.sqrt(m) * C1))
        gaps = np.array(gaps)
        assert np.all(gaps > 0.0), f"N={n}: 1 - ratio {gaps}"
        assert np.all(np.diff(gaps) < 0.0), f"N={n}: 1 - ratio {gaps}"
        assert np.all(gaps * ms < 0.2), f"N={n}: (1 - ratio) m {gaps * ms}"
        worst = max(worst, float(np.max(gaps * ms)))
    assert C1 == pytest.approx(0.7246114, abs=1e-7)
    finish(11, t0, 10.0, f"largest (1 - ratio) m = {worst:.3f}")


# ---------------------------------------------------------------------------
# 12. The full model deep in the strong regime approaches N beta sqrt(m) c2.


def test_12_deep_strong_coupling_approaches_its_large_m_limit():
    # At beta sqrt(m) >= 20 the field quadrature is frozen and each system
    # stores (1 - J0(4 beta sqrt(m) t)) / 2, so p_max -> N beta sqrt(m) C2
    # from above, at tau beta sqrt(m) = Y_STAR / 4.  The excess was 1.09e-3
    # and 1.22e-3 at m = 100, 3.6e-4 and 4.1e-4 at m = 300, and 4.7e-4 at
    # N = 4; tau lay within 1.4e-3.
    t0 = time.perf_counter()
    worst = 0.0
    excess = {}
    for n, m, beta in ((2, 100, 2.0), (2, 100, 5.0), (2, 300, 2.0), (2, 300, 5.0), (4, 100, 2.0)):
        result = charge(dicke(n=n, m=m, beta=beta))
        scale = beta * math.sqrt(m)
        excess[n, m, beta] = result.p_max / (n * scale * C2) - 1.0
        assert 0.0 < excess[n, m, beta] < 2e-3, f"N={n}, m={m}, beta={beta}"
        assert abs(result.tau * scale / (Y_STAR / 4.0) - 1.0) < 2e-3, f"N={n}, m={m}, beta={beta}"
        worst = max(worst, excess[n, m, beta])
    for beta in (2.0, 5.0):
        assert excess[2, 300, beta] < excess[2, 100, beta]
    assert C2 == pytest.approx(0.8466563, abs=1e-7)
    assert Y_STAR / 4.0 == pytest.approx(0.6895652, abs=1e-7)
    finish(12, t0, 10.0, f"largest p_max / (N beta sqrt(m) c2) - 1 = {worst:.2e}")


# ---------------------------------------------------------------------------
# 13. Between the two limits, the full model follows the driven system's G(b).


@pytest.mark.slow
def test_13_full_model_follows_the_crossover_between_c1_and_c2():
    # At beta sqrt(m) = 0.5 neither limit holds: the classically driven
    # system gives G / c1 = 0.9566 at tau beta sqrt(m) = 0.6068, and N = 10
    # at m = 100 (27,506 states, Chebyshev) gave 0.9569 and 0.6067.
    t0 = time.perf_counter()
    n, m, beta = 10, 100, 0.05
    scale = beta * math.sqrt(m)
    g, x = driven_limit(scale)
    result = charge(dicke(n=n, m=m, beta=beta))
    ratio = result.p_max / (n * scale) / C1
    assert abs(ratio - g / C1) < 1e-3, f"p_max / (N beta sqrt(m) c1) = {ratio}, G / c1 = {g / C1}"
    assert abs(result.tau * scale - x) < 1e-3, f"tau beta sqrt(m) = {result.tau * scale}, G's {x}"
    finish(13, t0, 60.0, f"ratio {ratio:.4f} against G/c1 {g / C1:.4f}")
