"""Power extraction: closed-form checks, refinement quality, and notices."""

import math

import numpy as np
import pytest

from qbattery import battery
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
from qbattery.dynamics import ChebyshevEngine, EigenEngine, diagonalize
from qbattery.hamiltonians import (
    CapacityError,
    Model,
    ModelParams,
    Topology,
    build_quench_block,
    jch_sector_dim,
)

from qbattery.sweeps import _point_params, preset_specs

from oracles import C1, X_STAR, full_quench


def jch(**kw):
    return ModelParams(model=Model.JCH, **kw)


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **kw)


class SyntheticOscillation:
    """Evaluator with E(t) = amplitude * sin^2(omega t), for search tests."""

    def __init__(self, omega, amplitude=1.0):
        self.omega = omega
        self.amplitude = amplitude

    def on_grid(self, ts):
        return self.amplitude * np.sin(self.omega * np.asarray(ts)) ** 2


class CallLog:
    """Forwards to an evaluator and logs the times of each call."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.evaluator, name)

    def on_grid(self, ts):
        self.calls.append(np.asarray(ts).tolist())
        return self.evaluator.on_grid(ts)


def audited_search(evaluator, config):
    """``max_power`` on ``evaluator``, checked against the search's contract.

    Returns the result and the number of single-time calls, which are the
    refinements' calls.
    """
    log = CallLog(evaluator)
    result = max_power(log, config)
    times = [t for call in log.calls for t in call]
    assert len(times) == len(set(times))
    assert result.p_max >= np.max(result.series[:, 1] / result.series[:, 0])
    assert result.e_at_tau <= result.e_max
    return result, sum(len(call) == 1 for call in log.calls)


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


def test_rabi_params_refuse_a_bool_count():
    with pytest.raises(ValueError, match="integer"):
        RabiParams(delta=0.0, beta=0.1, m=True)


def test_rabi_params_validation():
    with pytest.raises(ValueError):
        RabiParams(delta=0.0, beta=-0.1)
    with pytest.raises(ValueError):
        RabiParams(delta=0.0, beta=0.1, m=0)
    with pytest.raises(ValueError, match="integer"):
        RabiParams(delta=0.0, beta=0.1, m=1.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            RabiParams(delta=0.0, beta=bad)
        with pytest.raises(ValueError):
            RabiParams(delta=bad, beta=0.1)


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
        result, _ = audited_search(evaluator, SearchConfig(t_max=50.0, n_samples=256))
    # Both refinements start from the last two samples and stay within them.
    assert 50.0 * (1.0 - 1e-6) <= result.tau <= 50.0
    assert 50.0 * (1.0 - 1e-6) <= result.t_e_max <= 50.0


def test_charging_peak_notice_at_the_upper_edge():
    # tau = 3 is interior, but E(t) = t / (1 + (t - 3)^2 / 100) still rises
    # at t_max = 10, so the peak is only the last sample.
    class Rising:
        def on_grid(self, ts):
            ts = np.asarray(ts)
            return ts / (1.0 + (ts - 3.0) ** 2 / 100.0)

    with pytest.warns(SearchNotice, match="charging peak sits at the upper scan edge"):
        result, _ = audited_search(Rising(), SearchConfig(t_max=10.0, n_samples=64))
    assert 2.0 < result.tau < 4.0
    assert 10.0 * (1.0 - 1e-6) <= result.t_e_max <= 10.0


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        SearchConfig(n_samples=2)
    for bad in (4.5, 4096.0):
        with pytest.raises(ValueError, match="integer"):
            SearchConfig(n_samples=bad)
    for bad in (2.0, 0.0, 1e-16):
        with pytest.raises(ValueError, match="rel_tol"):
            SearchConfig(rel_tol=bad)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            SearchConfig(t_max=bad)


def test_search_evaluates_no_time_twice():
    # Down to the smallest rel_tol, whose last steps are a few rounding steps long.
    for rel_tol in (1e-6, 1e-14):
        config = SearchConfig(t_max=200.0, n_samples=256, rel_tol=rel_tol)
        result, _ = audited_search(SyntheticOscillation(0.05), config)
        assert result.tau == pytest.approx(X_STAR / 0.05, rel=1e-5)


def test_quotient_maximum_on_the_lower_edge_and_energy_peak_on_the_upper():
    # E/t = 1/sqrt(t) falls everywhere while E rises: k = 0 and j = last, and
    # tau lies far outside the peak's bracket [ts[last - 1], ts[last]].
    class Root:
        def on_grid(self, ts):
            return np.sqrt(np.asarray(ts))

    config = SearchConfig(t_max=10.0, n_samples=64)
    with pytest.warns(SearchNotice) as notices:
        result, _ = audited_search(Root(), config)
    messages = [str(notice.message) for notice in notices]
    assert any("lower scan edge" in m for m in messages)
    assert any("charging peak sits at the upper scan edge" in m for m in messages)
    assert 10.0 / 64 <= result.tau <= 10.0 / 64 * (1.0 + 1e-6)
    assert 10.0 * (1.0 - 1e-6) <= result.t_e_max <= 10.0


def test_tied_neighbouring_grid_quotients():
    # E/t = 1 / (1 + ((t - 10.5)^2 - 0.25)^2) is exactly 1 at the grid times
    # 10 and 11 and below 1 everywhere else, so both seeds tie for tau.
    class Twin:
        def on_grid(self, ts):
            ts = np.asarray(ts)
            return ts / (1.0 + ((ts - 10.5) ** 2 - 0.25) ** 2)

    result, _ = audited_search(Twin(), SearchConfig(t_max=64.0, n_samples=64))
    quotients = result.series[:, 1] / result.series[:, 0]
    assert quotients[9] == quotients[10] == 1.0
    assert result.tau == 10.0
    assert result.p_max == 1.0


def test_tau_outside_the_peak_bracket_can_hold_the_peak():
    # A bump of 0.5 at t = 10.5, where sin^2(w t) / t peaks, puts E(tau)
    # above sin^2's peak of 1 at t = 14.1, whose bracket [13, 15] leaves tau
    # out; the best energy seen is still E(tau).
    class Bumped(SyntheticOscillation):
        def on_grid(self, ts):
            ts = np.asarray(ts)
            return super().on_grid(ts) + 0.5 * np.exp(-(((ts - 10.5) / 0.3) ** 2))

    result, _ = audited_search(Bumped(X_STAR / 10.5), SearchConfig(t_max=64.0, n_samples=64))
    energies = result.series[:, 1]
    assert energies[13] >= energies[14] and np.all(np.diff(energies[9:14]) > 0)
    assert result.tau == pytest.approx(10.5, abs=0.01)
    assert (result.t_e_max, result.e_max) == (result.tau, result.e_at_tau)


# ---------------------------------------------------------------------------
# Real systems.


def test_search_window_defaults_to_horizon_of_system():
    params = jch(n=2, m=1, beta=0.05, kappa=0.05)
    result = max_power(QuenchSystem(params), SearchConfig())
    grid = default_horizon(params) * np.arange(1, 4097) / 4096
    scanned = result.series[:, 0]
    assert 0 < scanned.shape[0] <= 4096
    assert np.array_equal(scanned, grid[: scanned.shape[0]])


class HiddenBound:
    """Wraps a system and records the times it is asked for; shows no energy bound."""

    def __init__(self, system):
        self.system = system
        self.params = system.params
        self.times = 0

    def on_grid(self, ts):
        self.times += len(ts)
        return self.system.on_grid(ts)


class Recording(HiddenBound):
    """The same wrapper with the system's energy bound, so the search may stop."""

    @property
    def energy_bound(self):
        return self.system.energy_bound


@pytest.mark.parametrize(
    "params, engine",
    [
        (jch(n=6, m=1, beta=0.05, kappa=0.05), "chebyshev"),
        (dicke(n=15, m=1, beta=0.5, n_max=75), "dense"),
    ],
)
def test_energy_bound_stops_the_scan_with_the_same_result(params, engine, force_engine):
    force_engine(engine)
    system = QuenchSystem(params)
    stopped, full = Recording(system), HiddenBound(system)
    a = max_power(stopped, SearchConfig())
    b = max_power(full, SearchConfig())
    # Grid samples plus the two refinements' single times.
    assert stopped.times < 1024
    assert full.times > 4096
    assert a.series.shape[0] < 1024
    assert np.array_equal(a.series, b.series[: a.series.shape[0]])
    # Both scans evaluate in chunks; the whole grid in one call gives the same bits.
    whole = system.on_grid(SearchConfig().grid(params))
    assert np.array_equal(a.series[:, 1], whole[: a.series.shape[0]])
    assert (a.p_max, a.tau) == (b.p_max, b.tau)
    assert (a.e_max, a.t_e_max, a.e_at_tau) == (b.e_max, b.t_e_max, b.e_at_tau)


def same_result(a, b):
    fields = ("p_max", "tau", "e_max", "t_e_max", "e_at_tau")
    return all(getattr(a, f) == getattr(b, f) for f in fields)


@pytest.mark.parametrize(
    "params, windows",
    [
        # Stops short of the third window, which a scan in whole chunks builds.
        (dicke(n=15, m=1, beta=0.5, n_max=60), 2),
        # The charging peak lies past t*, which the scan reaches in doubling steps.
        (dicke(n=10, m=6, beta=0.05, n_max=300), None),
    ],
)
def test_scan_stops_at_the_last_sample_that_can_win(params, windows):
    system = QuenchSystem(params)
    assert (system.engine, system.batch) == ("chebyshev", 8)
    a = max_power(system, SearchConfig())
    built = len(system._eval._windows)
    chunked = QuenchSystem(params)
    c = max_power(Recording(chunked), SearchConfig())
    b = max_power(HiddenBound(QuenchSystem(params)), SearchConfig())
    assert built < len(chunked._eval._windows)
    if windows is not None:
        assert built == windows
    assert same_result(a, b) and same_result(a, c)
    n = a.series.shape[0]
    assert n < c.series.shape[0] and np.array_equal(a.series, b.series[:n])
    t_star = system.energy_bound / np.max(a.series[:, 1] / a.series[:, 0])
    assert (a.t_e_max > t_star) == (windows is None)


def test_dense_scan_makes_the_calls_of_whole_chunks(force_engine):
    force_engine("dense")
    params = dicke(n=15, m=1, beta=0.5, n_max=75)
    now, chunked = CallLog(QuenchSystem(params)), CallLog(Recording(QuenchSystem(params)))
    assert now.batch == 128 and not hasattr(chunked, "batch")
    assert same_result(max_power(now, SearchConfig()), max_power(chunked, SearchConfig()))
    assert now.calls == chunked.calls
    assert [len(call) for call in now.calls if len(call) > 1] == [128, 128]


@pytest.mark.parametrize("batch", [1, 8, 128])
@pytest.mark.parametrize("omega", [0.011, 0.05, 0.3, 1.7])
def test_scan_in_batches_is_a_prefix_of_the_chunked_scan(batch, omega):
    class Bounded(SyntheticOscillation):
        energy_bound = 1.0

    batched = Bounded(omega)
    batched.batch = batch
    config = SearchConfig(t_max=200.0, n_samples=1000)
    now, chunked = CallLog(batched), CallLog(Bounded(omega))
    a = max_power(now, config)
    b = max_power(chunked, config)
    c = max_power(SyntheticOscillation(omega), config)
    assert same_result(a, b) and same_result(a, c)
    n = a.series.shape[0]
    assert n <= b.series.shape[0] and np.array_equal(a.series, c.series[:n])
    scans = [call for call in now.calls if len(call) > 1]
    assert all(len(call) % batch == 0 or call[-1] == c.series[-1, 0] for call in scans)


def test_no_request_crosses_the_chunk_where_the_chunked_scan_stops():
    # The first 128 samples put t* at 300; the second bump, at 160, lowers
    # it to about 160, so a scan in whole chunks stops at 256.  A request
    # for every sample up to the first t* would run on to 300.
    class TwoBumps:
        energy_bound = 1.0
        batch = 8

        def on_grid(self, ts):
            ts = np.asarray(ts)
            return np.exp(-(((ts - 160.0) / 15.0) ** 2)) + np.exp(-(((ts - 10.0) / 3.0) ** 2)) / 30

    config = SearchConfig(t_max=400.0, n_samples=400)
    result = max_power(TwoBumps(), config)
    assert result.series.shape[0] == 256
    assert 150.0 < result.tau < 160.0 <= result.t_e_max


@pytest.mark.parametrize(
    "make, t_max",
    [
        (lambda: QuenchSystem(jch(n=7, m=1, beta=0.05, kappa=0.0)), None),
        (lambda: QuenchSystem(jch(n=6, m=1, beta=0.05, kappa=0.05, topology=Topology.ALL_TO_ALL)), None),
        (lambda: SyntheticOscillation(0.05), 10.0 * math.pi / 0.05),
    ],
    ids=["N7-line", "N6-all", "synthetic"],
)
def test_refinements_take_few_single_time_calls(make, t_max):
    # Golden-section search took 44 single-time calls on each of these; the
    # parabolic steps from the grid's three samples take at most 9.
    _, singles = audited_search(make(), SearchConfig(t_max=t_max))
    assert singles <= 16


# The ids are those the cases had when a size limit of None (the default)
# or 0 picked the engine.
@pytest.mark.parametrize(
    "params, engine",
    [
        (jch(n=6, m=1, beta=0.05, kappa=0.05), "chebyshev"),
        (dicke(n=15, m=1, beta=0.5, n_max=75), "dense"),
        (jch(n=4, m=1, beta=0.05, kappa=0.1, topology=Topology.RING), "dense"),
        (dicke(n=10, m=1, beta=0.5, n_max=50), "chebyshev"),
        (jch(n=3, m=2, beta=0.05, kappa=0.5, topology=Topology.ALL_TO_ALL), "chebyshev"),
    ],
    ids=[
        "params0-None-chebyshev",
        "params1-None-dense",
        "params2-None-dense",
        "params3-0-chebyshev",
        "params4-0-chebyshev",
    ],
)
def test_grid_values_do_not_depend_on_the_other_times_in_the_call(params, engine, force_engine):
    # Every sample of the window, not only those a stopped scan reaches.
    force_engine(engine)
    system = QuenchSystem(params)
    grid = SearchConfig().grid(params)
    whole = system.on_grid(grid)
    for size in (128, system.batch):
        chunks = [system.on_grid(grid[i : i + size]) for i in range(0, grid.shape[0], size)]
        assert np.array_equal(whole, np.concatenate(chunks))
    if engine == "chebyshev":
        # The refinements ask for one time per call.
        singles = grid[::37]
        got = np.array([system.on_grid(singles[i : i + 1])[0] for i in range(singles.shape[0])])
        assert np.array_equal(got, whole[::37])


class BoundTouching:
    """Reaches its declared energy bound at t = 256.5 and rounds 1e-10 above it.

    Before that, a narrow bump at t = 11 holds a quotient just below the
    plateau's quotient at the grid time 257, so the scan may only stop
    past 257 if it allows for the rounding.
    """

    energy_bound = 1.0

    def on_grid(self, ts):
        ts = np.asarray(ts, dtype=float)
        p_bump = (1.0 + 5e-11) / 257.0
        return np.where(ts < 256.5, p_bump * ts * np.exp(-(((ts - 11.0) / 2.0) ** 2)), 1.0 + 1e-10)


def test_energy_bound_slack_covers_rounding_above_it():
    class Hidden:
        on_grid = BoundTouching.on_grid

    config = SearchConfig(t_max=1024.0, n_samples=1024)
    stopped = max_power(BoundTouching(), config)
    full = max_power(Hidden(), config)
    assert stopped.series.shape[0] == 384
    assert 256.5 <= full.tau <= 258.0
    assert (stopped.p_max, stopped.tau) == (full.p_max, full.tau)


def test_stopped_scan_runs_on_to_the_first_peak():
    # No quotient can win past t* = 1.38 (0.7246 is the best quotient), but E
    # still rises to its peak at pi/2, past the first chunk's end at 1.46.
    class Bounded(SyntheticOscillation):
        energy_bound = 1.0

    config = SearchConfig(t_max=1024 * 1.45 / 128, n_samples=1024)
    stopped = max_power(Bounded(1.0), config)
    full = max_power(SyntheticOscillation(1.0), config)
    assert stopped.series.shape[0] == 256
    assert stopped.t_e_max == pytest.approx(math.pi / 2.0, rel=1e-6)
    assert (stopped.p_max, stopped.tau, stopped.e_max, stopped.t_e_max) == (
        full.p_max, full.tau, full.e_max, full.t_e_max
    )


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


def test_dense_and_sparse_engines_agree_on_power(force_engine):
    # A ladder of 52 states whose quench reaches 26.
    params = dicke(n=3, m=1, beta=0.5, beta_prime=0.2, n_max=12)
    config = SearchConfig(n_samples=1024)
    force_engine("dense")
    dense = QuenchSystem(params)
    force_engine("chebyshev")
    sparse = QuenchSystem(params)
    assert (dense.dim, dense.block_dim, dense.engine) == (52, 26, "dense")
    assert sparse.engine == "chebyshev"
    r1 = max_power(dense, config)
    r2 = max_power(sparse, config)
    assert r1.p_max == pytest.approx(r2.p_max, abs=1e-9)
    assert r1.tau == pytest.approx(r2.tau, rel=1e-6)


def test_energy_series_validation(force_engine):
    params = jch(n=1, m=1, beta=0.05)
    with pytest.raises(ValueError):
        energy_series(params, np.array([]))
    with pytest.raises(ValueError):
        energy_series(params, np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        energy_series(params, np.array([2.0, 1.0]))
    out = energy_series(params, np.array([1.0, 2.0]))
    assert out.shape == (2, 2)
    force_engine("chebyshev")
    for ts in ([1.0, np.inf], [1.0, np.nan], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            energy_series(params, np.array(ts))


# ---------------------------------------------------------------------------
# The block the quench reaches, against the full basis.


def full_basis_energy(params, ts):
    """E(t) from an eigendecomposition of the whole basis, with no block taken."""
    h, jz, psi0 = full_quench(params)
    engine = EigenEngine(diagonalize(h.toarray()), psi0, [jz])
    return params.omega_c * (engine.on_grid(ts)[0] - jz @ psi0)


@pytest.mark.parametrize(
    "params, block_dim",
    [
        (dicke(n=15, m=1, beta=0.5, n_max=75), 608),  # parity halves 1,216
        (dicke(n=10, m=1, beta=0.5, n_max=50), 281),  # of 561
        (dicke(n=6, m=1, beta=0.5, beta_prime=0.0), 7),  # excitations conserved: N + 1
        # Independent cavities reach 2^N = 16 of 192 states; every site
        # permutation is a symmetry, so they fall into N + 1 = 5 orbits.
        (jch(n=4, m=1, beta=0.05), 5),
        # The symmetric sector of the reversal, D_4 and S_4.
        (jch(n=4, m=1, beta=0.05, kappa=0.1), 100),
        (jch(n=4, m=1, beta=0.05, kappa=0.1, topology=Topology.RING), 36),
        (jch(n=4, m=1, beta=0.05, kappa=0.1, topology=Topology.ALL_TO_ALL), 20),
        (jch(n=2, m=2, beta=0.3, kappa=0.7, topology=Topology.RING), 9),  # doubled bond
    ],
)
def test_block_matches_full_basis(params, block_dim, force_engine):
    # Dense on both sides, so only the block is compared: at 608 states
    # Chebyshev differs from the full-basis reference by about 1.3e-12.
    force_engine("dense")
    system = QuenchSystem(params)
    assert system.dim == full_quench(params)[0].shape[0]
    assert system.block_dim == block_dim
    ts = np.linspace(0.25, default_horizon(params), 173)
    assert np.max(np.abs(system.on_grid(ts) - full_basis_energy(params, ts))) <= 1e-12


def test_uncoupled_cavities_evolve_two_states_each():
    # The full sector (28,814 states) is too large for a dense reference; at
    # kappa = 0 each cavity swaps its photon with its two-level system, and
    # the site permutations sort the 2^7 = 128 products into 8 orbits, one
    # per number of excited two-level systems.
    params = jch(n=7, m=1, beta=0.05)
    system = QuenchSystem(params)
    assert (system.dim, system.block_dim, system.engine) == (28_814, 8, "dense")
    ts = np.linspace(0.25, default_horizon(params), 173)
    assert np.max(np.abs(system.on_grid(ts) - 7 * np.sin(0.05 * ts) ** 2)) <= 1e-12


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("topology", list(Topology))
def test_uncoupled_cavities_walk_one_orbit_per_excitation_count(topology, n, m):
    # Without hopping every site permutation is a symmetry: the orbit of k
    # excited two-level systems holds C(N, k) of the 2^N product states.
    params = jch(n=n, m=m, beta=0.05, topology=topology)
    block = build_quench_block(params)
    excited = np.rint(block.jz / params.omega_a).astype(int)
    assert block.dim == n + 1
    assert sorted(excited) == list(range(n + 1))
    assert [int(size) for size in block.sizes] == [math.comb(n, k) for k in excited]
    system = QuenchSystem(params)
    ts = np.linspace(0.25, default_horizon(params), 173)
    expected = n * np.sin(0.05 * math.sqrt(m) * ts) ** 2
    assert np.max(np.abs(system.on_grid(ts) - expected)) <= 1e-12


@pytest.mark.parametrize(
    "params", [jch(n=6, m=1, beta=0.05, kappa=0.5), dicke(n=15, m=1, beta=0.5, n_max=75)]
)
def test_chebyshev_products_read_int32_indices(params):
    # The line with hopping is chiral and moves to class order at its first
    # jump; the ladder runs the general recurrence.
    assert build_quench_block(params).h.indices.dtype == np.int32
    system = QuenchSystem(params)
    assert system.engine == "chebyshev"
    assert system._eval._h_twice.indices.dtype == np.int32
    max_power(system, SearchConfig(n_samples=512))
    assert (system._eval._classes is not None) == (params.model is Model.JCH)
    assert system._eval._h_twice.indices.dtype == np.int32
    assert system._eval._h_twice.indptr.dtype == np.int32


def test_thirty_one_uncoupled_cavities_charge_as_one_cavity_each():
    # Without hopping each cavity is its own Rabi problem, so p_max is N
    # times the closed form beta C1 of one cavity.  No photon leaves its
    # cavity, so a key digit takes m + 1 values: (2 * 2)**31 fits int64, and
    # N = 31 walks its 32 orbits, of C(31, k) states each, counted exactly
    # although N! passes int64.  N = 32 overflows.
    params = jch(n=31, m=1, beta=0.05)
    block = build_quench_block(params)
    excited = np.rint(block.jz / params.omega_a).astype(int)
    assert block.sizes.tolist() == [math.comb(31, k) for k in excited]
    system = QuenchSystem(params)
    assert system.block_dim == 32
    p_max = max_power(system, SearchConfig()).p_max
    assert p_max == pytest.approx(31 * 0.05 * C1, rel=1e-12)
    with pytest.raises(CapacityError, match="64-bit"):
        QuenchSystem(jch(n=32, m=1, beta=0.05))


SYMMETRIC_CASES = [
    jch(n=3, m=2, beta=0.05, kappa=0.2),
    jch(n=3, m=2, beta=0.05, kappa=0.1, topology=Topology.RING),
    jch(n=4, m=1, beta=0.05, kappa=0.3, topology=Topology.ALL_TO_ALL),
    jch(n=3, m=1, beta=0.05, kappa=0.3, topology=Topology.ALL_TO_ALL),
    jch(n=4, m=1, beta=0.05, topology=Topology.RING),  # kappa = 0
    jch(n=4, m=1, beta=0.05, kappa=0.2, omega_a=1.3, topology=Topology.RING),  # detuned
    jch(n=2, m=3, beta=0.2, kappa=0.4, topology=Topology.RING),  # doubled bond
    jch(n=1, m=3, beta=0.05),
]


# The ids are those the cases had when a size limit of None (the default,
# dense on every case) or 0 picked the engine.
@pytest.mark.parametrize("engine", ["dense", "chebyshev"], ids=["None", "0"])
@pytest.mark.parametrize("params", SYMMETRIC_CASES)
def test_symmetric_sector_matches_full_basis(params, engine, force_engine):
    force_engine(engine)
    system = QuenchSystem(params)
    ts = np.linspace(0.25, default_horizon(params), 173)
    assert np.max(np.abs(system.on_grid(ts) - full_basis_energy(params, ts))) <= 1e-12


@pytest.mark.parametrize(
    "n, m, counts",
    [(6, 1, (2_687, 500, 65)), (4, 8, (43_808, 11_481, 4_183)), (8, 1, (78_688, 10_094, 185))],
)
def test_walk_counts_the_symmetric_sector(n, m, counts):
    for topology, count, order in zip(Topology, counts, (2, 2 * n, math.factorial(n))):
        block = build_quench_block(jch(n=n, m=m, beta=0.05, kappa=0.1, topology=topology))
        assert block.dim == count
        # The orbits partition the sector; each orbit's size divides the
        # order of the group (orbit-stabilizer).
        assert block.sizes.sum() == jch_sector_dim(n, m)
        assert np.all(order % block.sizes == 0)
        # The quench state is an orbit of its own.
        assert block.sizes[block.start] == 1 and block.jz[block.start] == 0.0
        assert (block.h != block.h.T).nnz == 0


# Burnside's lemma: orbits of the sector under the hopping graph's automorphisms.
@pytest.mark.parametrize(
    "n, m, topology, count",
    [
        (9, 1, Topology.ALL_TO_ALL, 300),
        (10, 1, Topology.ALL_TO_ALL, 481),
        (12, 1, Topology.ALL_TO_ALL, 1_165),
        (8, 2, Topology.ALL_TO_ALL, 3_945),
        (4, 11, Topology.ALL_TO_ALL, 10_474),
        (4, 11, Topology.RING, 29_426),
    ],
)
def test_walk_reaches_every_symmetric_state(n, m, topology, count):
    block = build_quench_block(jch(n=n, m=m, beta=0.05, kappa=0.1, topology=topology))
    assert block.dim == count
    assert block.sizes.sum() == jch_sector_dim(n, m)
    assert (block.h != block.h.T).nnz == 0


def test_chain_cap_counts_walked_orbits(cap_states):
    # 148,321,344 states, far past the cap, but 1,165 orbits.
    system = QuenchSystem(jch(n=12, m=1, beta=0.05, kappa=0.05, topology=Topology.ALL_TO_ALL))
    assert (system.dim, system.block_dim) == (148_321_344, 1_165)
    params = jch(n=6, m=1, beta=0.05, kappa=0.5)  # 2,687 orbits
    cap_states(2_686)
    with pytest.raises(CapacityError, match="cap of 2686 set by physical memory"):
        QuenchSystem(params)
    cap_states(2_687)
    assert QuenchSystem(params).block_dim == 2_687


def test_ring_of_ten_builds_under_the_default_cap():
    # 4,780,008 states in 240,395 orbits, which a fixed cap of 200,000 refused.
    system = QuenchSystem(jch(n=10, m=1, beta=0.05, kappa=0.1, topology=Topology.RING))
    assert (system.dim, system.block_dim) == (jch_sector_dim(10, 1), 240_395)
    assert system.engine == "chebyshev"


def test_uncoupled_collective_system_keeps_one_state():
    params = dicke(n=6, m=1, beta=0.0)
    system = QuenchSystem(params)
    assert (system.dim, system.block_dim) == (217, 1)
    with pytest.warns(SearchNotice, match="flat"):
        result = charge(params)
    assert result.p_max == 0.0 and result.e_max == 0.0


def test_block_sets_the_diagonalized_size(monkeypatch, force_engine):
    force_engine("dense")
    shapes = []

    def recording(matrix):
        shapes.append(matrix.shape)
        return diagonalize(matrix)

    monkeypatch.setattr(battery, "diagonalize", recording)
    system = QuenchSystem(dicke(n=20, m=1, beta=0.5, n_max=100))
    assert system.dim == 2121
    assert shapes == [(1061, 1061)]


# ---------------------------------------------------------------------------
# The engine each block runs on: the lower of two fixed cost estimates.


def test_engine_follows_the_cost_estimates():
    # The fig5 beta = 0.5 curve at cutoffs 4x and 5x n*m: dense up to 78
    # states, Chebyshev from 226.
    picked = {
        (n, mult): QuenchSystem(dicke(n=n, m=1, beta=0.5).with_cutoff(mult))
        for n in (2, 5, 10, 15)
        for mult in (4, 5)
    }
    assert {key: (s.block_dim, s.engine) for key, s in picked.items()} == {
        (2, 4): (14, "dense"),
        (2, 5): (17, "dense"),
        (5, 4): (63, "dense"),
        (5, 5): (78, "dense"),
        (10, 4): (226, "chebyshev"),
        (10, 5): (281, "chebyshev"),
        (15, 4): (488, "chebyshev"),
        (15, 5): (608, "chebyshev"),
    }
    # fig2's kappa = 0.5 line: the 2,687 orbits at N=6 are past DENSE_LIMIT.
    line = [QuenchSystem(jch(n=n, m=1, beta=0.05, kappa=0.5)) for n in (4, 5, 6)]
    assert [(s.block_dim, s.engine) for s in line] == [
        (100, "dense"),
        (514, "chebyshev"),
        (2_687, "chebyshev"),
    ]
    # Weak coupling scans a long horizon in many windows, so dense wins at
    # 533 states, and Chebyshev only from 553.
    weak = [QuenchSystem(dicke(n=n, m=1, beta=0.05, n_max=n_max)) for n, n_max in ((14, 70), (16, 64))]
    assert [(s.block_dim, s.engine) for s in weak] == [(533, "dense"), (553, "chebyshev")]


def test_benchmark_chain_blocks_keep_their_engines():
    # Every block of the fig2 and fig4 presets and of the two benchmark
    # chains (the N=7 line without hopping, the N=6 all-to-all sector):
    # Chebyshev on fig2's N=5 and N=6 lines with hopping, dense everywhere
    # else, so that their tables keep their bytes through a refit.
    chebyshev = {(n, kappa) for n in (5, 6) for kappa in (0.05, 0.5)}
    for preset in ("fig2", "fig4"):
        for spec in preset_specs(preset):
            for value in spec.values:
                params = _point_params(spec, value, None)
                expected = "chebyshev" if (params.n, params.kappa) in chebyshev else "dense"
                assert QuenchSystem(params).engine == expected, params
    for params in (
        jch(n=7, m=1, beta=0.05),
        jch(n=6, m=1, beta=0.05, kappa=0.05, topology=Topology.ALL_TO_ALL),
    ):
        assert QuenchSystem(params).engine == "dense"


def test_dense_limit_caps_the_dense_engine(monkeypatch):
    # A 26-state block, far below the cost at which Chebyshev could win.
    params = dicke(n=3, m=1, beta=0.5, beta_prime=0.2, n_max=12)
    monkeypatch.setattr(battery, "DENSE_LIMIT", 26)
    assert QuenchSystem(params).engine == "dense"
    monkeypatch.setattr(battery, "DENSE_LIMIT", 25)
    assert QuenchSystem(params).engine == "chebyshev"


def test_disc_bound_is_computed_at_most_once_and_never_for_tiny_blocks(monkeypatch):
    calls = []
    discs = ChebyshevEngine._scaled_discs

    def counting(h):
        calls.append(h.shape[0])
        return discs(h)

    monkeypatch.setattr(ChebyshevEngine, "_scaled_discs", staticmethod(counting))
    tiny = [
        jch(n=2, m=1, beta=0.05, kappa=0.05),
        jch(n=3, m=1, beta=0.05, kappa=1.0),
        jch(n=7, m=1, beta=0.05),
        jch(n=6, m=1, beta=0.05, kappa=0.05, topology=Topology.ALL_TO_ALL),
        dicke(n=6, m=1, beta=0.5, n_max=30),
    ]
    assert [QuenchSystem(p).engine for p in tiny] == ["dense"] * len(tiny)
    assert calls == []
    # Dense already beats Chebyshev priced from the diagonal's range, so
    # never bounded; bounded for the choice, then dense; bounded for the
    # choice and reused by the engine; past DENSE_LIMIT, bounded by the
    # engine alone.
    for params, engine, bounded in (
        (dicke(n=14, m=1, beta=0.05, n_max=70), "dense", []),
        (dicke(n=8, m=1, beta=0.5, n_max=40), "dense", [185]),
        (dicke(n=15, m=1, beta=0.5, n_max=75), "chebyshev", [608]),
        (jch(n=6, m=1, beta=0.05, kappa=0.5), "chebyshev", [2_687]),
    ):
        calls.clear()
        assert QuenchSystem(params).engine == engine
        assert calls == bounded


@pytest.mark.parametrize(
    "params",
    [
        dicke(n=15, m=1, beta=0.5, n_max=75),
        jch(n=5, m=1, beta=0.05, kappa=0.05),
        dicke(n=10, m=5, beta=0.05, n_max=250),
    ],
)
def test_engines_agree_where_the_cost_estimates_moved_the_choice(params, force_engine):
    # Blocks below DENSE_LIMIT that the estimates send to Chebyshev.
    assert QuenchSystem(params).engine == "chebyshev"
    config = SearchConfig(n_samples=1024)
    force_engine("dense")
    dense = charge(params, config)
    force_engine("chebyshev")
    sparse = charge(params, config)
    assert sparse.p_max == pytest.approx(dense.p_max, rel=1e-12, abs=0.0)
    assert sparse.tau == pytest.approx(dense.tau, rel=1e-6)


def _below_flush(v):
    return int(np.count_nonzero((v != 0) & (np.abs(v) < 1e-60)))


def test_flush_leaves_no_tiny_entries_and_moves_no_result(monkeypatch):
    # The ladder of N=10, m=6, beta=0.05 (n_max 300, 1,656 states on
    # Chebyshev): the far tails of its windows underflow.  Every landed
    # state and every pair of tails that seeds a jump is checked.
    params = dicke(n=10, m=6, beta=0.05)
    counts = []
    land, advance = ChebyshevEngine._land, ChebyshevEngine._advance_window

    def checked_land(self):
        land(self)
        counts.append(_below_flush(self._state))

    def checked_advance(self):
        advance(self)
        counts.extend(_below_flush(tails) for tails in self._tails)

    monkeypatch.setattr(ChebyshevEngine, "_land", checked_land)
    monkeypatch.setattr(ChebyshevEngine, "_advance_window", checked_advance)
    system = QuenchSystem(params)
    assert (system.block_dim, system.engine) == (1_656, "chebyshev")
    flushed = max_power(system, SearchConfig())
    assert len(counts) > 40 and not any(counts)
    counts.clear()
    monkeypatch.setattr(ChebyshevEngine, "_FLUSH", 0.0)
    kept = max_power(QuenchSystem(params), SearchConfig())
    assert min(counts) > 0
    for name in ("p_max", "tau", "e_max"):
        assert getattr(flushed, name) == getattr(kept, name)
