"""Power extraction: closed-form checks, refinement quality, and notices."""

import math

import numpy as np
import pytest

from qbattery import battery
from qbattery.basis import CapacityError
from qbattery.battery import (
    DegenerateRabiError,
    PowerResult,
    QuenchSystem,
    RabiParams,
    SearchConfig,
    SearchNotice,
    charge,
    default_horizon,
    energy_series,
    max_power,
    rabi_oracle,
)
from qbattery.cli import main
from qbattery.dynamics import ChebyshevEngine, EigenEngine, diagonalize
from qbattery.hamiltonians import (
    Model,
    ModelParams,
    Topology,
    build_basis,
    build_csr,
    initial_index,
    initial_state,
    jz_diagonal,
)


def jch(**kw):
    return ModelParams(model=Model.JCH, **kw)


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **kw)


def tan_2x_root():
    """Root of tan(x) = 2x on (pi/4, pi/2), found by bisection on cot(x) - 1/(2x)."""
    f = lambda x: math.tan(x) - 2.0 * x
    lo, hi = math.pi / 4.0 + 1e-12, math.pi / 2.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


X_STAR = tan_2x_root()


class SyntheticOscillation:
    """Evaluator with E(t) = amplitude * sin^2(omega t), for search tests."""

    def __init__(self, omega, amplitude=1.0):
        self.omega = omega
        self.amplitude = amplitude

    def on_grid(self, ts):
        return self.amplitude * np.sin(self.omega * np.asarray(ts)) ** 2


# ---------------------------------------------------------------------------
# Closed-form oscillation facts.


@pytest.mark.parametrize(
    "delta, beta, m, omega, tau",
    [
        (0.0, 0.05, 1, 0.05, 10.0 * math.pi),
        (0.0, 0.1, 4, 0.2, math.pi / 0.4),
        (0.3, 0.0, 2, 0.15, math.pi / 0.3),
    ],
)
def test_rabi_oracle_examples(delta, beta, m, omega, tau):
    got_omega, got_tau = rabi_oracle(RabiParams(delta=delta, beta=beta, m=m))
    assert got_omega == pytest.approx(omega, rel=1e-15)
    assert got_tau == pytest.approx(tau, rel=1e-15)


def test_rabi_oracle_degenerate():
    with pytest.raises(DegenerateRabiError):
        rabi_oracle(RabiParams(delta=0.0, beta=0.0))


def test_rabi_params_validation():
    with pytest.raises(ValueError):
        RabiParams(delta=0.0, beta=-0.1)
    with pytest.raises(ValueError):
        RabiParams(delta=0.0, beta=0.1, m=0)


def test_default_horizon_rules():
    assert default_horizon(jch(n=2, m=1, beta=0.05)) == pytest.approx(10 * math.pi / 0.05)
    assert default_horizon(jch(n=2, m=4, beta=0.05)) == pytest.approx(10 * math.pi / 0.1)
    # Collective model with beta = 0 falls back to the counter-rotating coupling.
    assert default_horizon(dicke(n=2, m=1, beta=0.0, beta_prime=0.5)) == pytest.approx(
        10 * math.pi / 0.5
    )
    assert default_horizon(jch(n=2, m=1, beta=0.0)) == 100.0


# ---------------------------------------------------------------------------
# Search behavior on synthetic signals.


def test_quotient_maximum_matches_transcendental_root():
    omega = 0.05
    evaluator = SyntheticOscillation(omega)
    config = SearchConfig(t_max=2.0 * math.pi / omega, n_samples=2048, rel_tol=1e-9)
    result = max_power(evaluator, config)
    assert result.tau == pytest.approx(X_STAR / omega, rel=1e-7)
    assert result.p_max == pytest.approx(omega * math.sin(X_STAR) ** 2 / X_STAR, rel=1e-7)


def test_quotient_maximum_against_dense_scan():
    omega = 0.3
    evaluator = SyntheticOscillation(omega, amplitude=2.5)
    config = SearchConfig(t_max=2.0 * math.pi / omega, n_samples=1024)
    result = max_power(evaluator, config)
    ts = np.linspace(1e-6, 2.0 * math.pi / omega, 1_000_000)
    dense = np.max(evaluator.on_grid(ts) / ts)
    assert result.p_max >= dense - 1e-9
    assert result.p_max == pytest.approx(dense, rel=1e-6)


def test_refined_at_least_coarse_and_e_peak():
    omega = 0.11
    evaluator = SyntheticOscillation(omega)
    config = SearchConfig(t_max=2.0 * math.pi / omega, n_samples=512)
    result = max_power(evaluator, config)
    coarse = np.max(result.series[:, 1] / result.series[:, 0])
    assert result.p_max >= coarse
    assert result.t_e_max == pytest.approx(math.pi / (2.0 * omega), rel=1e-6)
    assert result.e_max == pytest.approx(1.0, abs=1e-9)


def test_flat_signal_returns_zero_power_with_notice():
    evaluator = SyntheticOscillation(0.0)
    with pytest.warns(SearchNotice):
        result = max_power(evaluator, SearchConfig(t_max=10.0))
    assert result.p_max == 0.0
    assert math.isnan(result.tau)


def test_constant_energy_emits_edge_notice():
    class Constant:
        def on_grid(self, ts):
            return np.full(np.asarray(ts).shape, 0.7)

    config = SearchConfig(t_max=10.0, n_samples=64)
    with pytest.warns(SearchNotice, match="lower"):
        result = max_power(Constant(), config)
    # Quotient of a constant decreases in t: the maximum hugs the first sample.
    assert result.tau <= 2.0 * 10.0 / 64
    assert result.p_max == pytest.approx(0.7 / result.tau)


def test_upper_edge_notice_without_extensions():
    evaluator = SyntheticOscillation(0.01)
    with pytest.warns(SearchNotice, match="upper"):
        max_power(evaluator, SearchConfig(t_max=50.0, n_samples=256))


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        SearchConfig(n_samples=2)
    with pytest.raises(ValueError):
        SearchConfig(rel_tol=2.0)


def test_search_evaluates_no_time_twice():
    class Counting(SyntheticOscillation):
        def __init__(self, omega):
            super().__init__(omega)
            self.times = []

        def on_grid(self, ts):
            self.times.extend(np.asarray(ts).tolist())
            return super().on_grid(ts)

    evaluator = Counting(0.05)
    result = max_power(evaluator, SearchConfig(t_max=200.0, n_samples=256))
    assert result.tau == pytest.approx(X_STAR / 0.05, rel=1e-5)
    assert len(evaluator.times) == len(set(evaluator.times))


# ---------------------------------------------------------------------------
# Real systems.


def test_search_window_defaults_to_horizon_of_system():
    params = jch(n=2, m=1, beta=0.05, kappa=0.05)
    result = max_power(QuenchSystem(params), SearchConfig())
    assert result.series[-1, 0] == default_horizon(params)
    assert result.series.shape == (4096, 2)


def test_uncoupled_cavities_factorize():
    config = SearchConfig(n_samples=512)
    ts = np.linspace(0.5, 60.0, 240)
    single = energy_series(jch(n=1, m=1, beta=0.05), ts)[:, 1]
    for n in (2, 3, 4):
        multi = energy_series(jch(n=n, m=1, beta=0.05, kappa=0.0), ts)[:, 1]
        assert np.max(np.abs(multi - n * single)) <= 1e-8
    for m in (2, 3):
        omega = 0.05 * math.sqrt(m)
        multi = energy_series(jch(n=2, m=m, beta=0.05), ts)[:, 1]
        assert np.max(np.abs(multi - 2.0 * np.sin(omega * ts) ** 2)) <= 1e-8
    del config


def test_first_peak_matches_oracle_time():
    params = jch(n=1, m=1, beta=0.05)
    result = charge(params, SearchConfig(rel_tol=1e-9))
    _, tau_peak = rabi_oracle(RabiParams(delta=0.0, beta=0.05, m=1))
    assert result.t_e_max == pytest.approx(tau_peak, rel=1e-6)


def test_scaled_power_constants_at_zero_hopping():
    config = SearchConfig(rel_tol=1e-9)
    per_n = [charge(jch(n=n, m=1, beta=0.05), config).p_max / n for n in (1, 2, 3, 4)]
    assert np.max(np.abs(np.diff(per_n))) <= 1e-8
    per_sqrt_m = [
        charge(jch(n=2, m=m, beta=0.05), config).p_max / math.sqrt(m) for m in (1, 2, 3)
    ]
    assert np.max(np.abs(np.diff(per_sqrt_m))) <= 1e-8


def test_power_result_invariants():
    params = jch(n=2, m=1, beta=0.05, kappa=0.05)
    result = charge(params)
    assert isinstance(result, PowerResult)
    assert result.p_max == result.e_at_tau / result.tau
    assert 0.0 <= result.e_at_tau <= result.e_max <= 2.0 + 1e-9
    ts = result.series[:, 0]
    assert ts[0] > 0.0
    assert np.all(np.diff(ts) > 0.0)


def test_zero_coupling_is_flat_everywhere():
    with pytest.warns(SearchNotice):
        result = charge(jch(n=2, m=1, beta=0.0, kappa=0.3))
    assert result.p_max == 0.0
    assert math.isnan(result.tau)
    assert result.e_max <= 1e-12


def test_dense_and_sparse_engines_agree_on_power():
    params = dicke(n=3, m=1, beta=0.5, beta_prime=0.2, n_max=12)
    config = SearchConfig(n_samples=1024)
    dense = QuenchSystem(params)
    sparse = QuenchSystem(params, dense_limit=1)
    assert dense.engine == "dense"
    assert sparse.engine == "chebyshev"
    r1 = max_power(dense, config)
    r2 = max_power(sparse, config)
    assert r1.p_max == pytest.approx(r2.p_max, abs=1e-9)
    assert r1.tau == pytest.approx(r2.tau, rel=1e-6)


def test_literal_matrix_convention_leaves_energy_unchanged():
    ts = np.linspace(0.5, 40.0, 80)
    base = dict(n=2, m=1, beta=0.5, beta_prime=0.2, n_max=10)
    physical = energy_series(dicke(**base), ts)[:, 1]
    literal = energy_series(dicke(**base, literal_elements=True), ts)[:, 1]
    assert np.max(np.abs(physical - literal)) <= 1e-10


def test_energy_series_validation():
    params = jch(n=1, m=1, beta=0.05)
    with pytest.raises(ValueError):
        energy_series(params, np.array([]))
    with pytest.raises(ValueError):
        energy_series(params, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        energy_series(params, np.array([2.0, 1.0]))
    out = energy_series(params, np.array([1.0, 2.0]))
    assert out.shape == (2, 2)


# ---------------------------------------------------------------------------
# The block the quench reaches, against the full basis.


def full_basis_energy(params, ts):
    """E(t) from an eigendecomposition of the whole basis, with no block taken."""
    basis = build_basis(params)
    jz = jz_diagonal(params, basis)
    engine = EigenEngine(diagonalize(build_csr(params, basis).toarray()), initial_state(params, basis), jz)
    return params.omega_c * (engine.on_grid(ts) - jz[initial_index(params, basis)])


@pytest.mark.parametrize(
    "params, block_dim",
    [
        (dicke(n=15, m=1, beta=0.5, n_max=75), 608),  # parity halves 1,216
        (dicke(n=10, m=1, beta=0.5, n_max=50), 281),  # of 561
        (dicke(n=6, m=1, beta=0.5, beta_prime=0.0), 7),  # excitations conserved: N + 1
        (jch(n=4, m=1, beta=0.05), 16),  # independent cavities: 2^N of 192
        (jch(n=4, m=1, beta=0.05, kappa=0.1), 192),
        (jch(n=4, m=1, beta=0.05, kappa=0.1, topology=Topology.RING), 192),
        (jch(n=4, m=1, beta=0.05, kappa=0.1, topology=Topology.ALL_TO_ALL), 192),
        (jch(n=2, m=2, beta=0.3, kappa=0.7, topology=Topology.RING), 16),  # doubled bond
    ],
)
def test_block_matches_full_basis(params, block_dim):
    system = QuenchSystem(params)
    assert system.dim == build_basis(params).dim
    assert system.block_dim == block_dim
    ts = np.linspace(0.25, default_horizon(params), 173)
    assert np.max(np.abs(system.on_grid(ts) - full_basis_energy(params, ts))) <= 1e-12


def test_uncoupled_cavities_evolve_two_states_each():
    # The full sector (28,814 states) is too large for a dense reference; at
    # kappa = 0 each cavity swaps its photon with its two-level system.
    params = jch(n=7, m=1, beta=0.05)
    system = QuenchSystem(params)
    assert (system.dim, system.block_dim, system.engine) == (28_814, 128, "dense")
    ts = np.linspace(0.25, default_horizon(params), 173)
    assert np.max(np.abs(system.on_grid(ts) - 7 * np.sin(0.05 * ts) ** 2)) <= 1e-12


def test_uncoupled_collective_system_keeps_one_state():
    params = dicke(n=6, m=1, beta=0.0)
    system = QuenchSystem(params)
    assert (system.dim, system.block_dim) == (217, 1)
    with pytest.warns(SearchNotice, match="flat"):
        result = charge(params)
    assert result.p_max == 0.0 and result.e_max == 0.0


def test_block_sets_the_diagonalized_size(monkeypatch):
    shapes = []

    def recording(matrix):
        shapes.append(matrix.shape)
        return diagonalize(matrix)

    monkeypatch.setattr(battery, "diagonalize", recording)
    system = QuenchSystem(dicke(n=20, m=1, beta=0.5, n_max=100))
    assert system.dim == 2121
    assert shapes == [(1061, 1061)]


def test_memory_guard_raises_before_allocating(monkeypatch, capsys):
    params = dicke(n=10, m=1, beta=0.5, n_max=50)  # a block of 281 states
    dense_need = 3 * 8 * 281**2
    cheb_need = ChebyshevEngine.window_bytes(281)

    def refuse(matrix):
        raise AssertionError("diagonalized past the memory guard")

    monkeypatch.setattr(battery, "diagonalize", refuse)
    monkeypatch.setattr(battery, "_physical_memory", lambda: dense_need - 1)
    with pytest.raises(CapacityError, match="physical memory"):
        QuenchSystem(params)
    monkeypatch.setattr(battery, "_physical_memory", lambda: cheb_need - 1)
    with pytest.raises(CapacityError, match="physical memory"):
        QuenchSystem(params, dense_limit=0)
    monkeypatch.setattr(battery, "_physical_memory", lambda: cheb_need)
    assert QuenchSystem(params, dense_limit=0).engine == "chebyshev"
    monkeypatch.setattr(battery, "_physical_memory", lambda: dense_need - 1)
    argv = ["dicke", "--n", "10", "--beta", "0.5", "--dense-limit", "200000"]
    assert main(argv) == 1
    assert "physical memory" in capsys.readouterr().err
