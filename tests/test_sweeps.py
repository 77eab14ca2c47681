"""Parameter sweeps: axis application, scaling, fitting, and convergence."""

import math
import warnings

import numpy as np
import pytest

from qbattery.battery import SearchConfig, SearchNotice
from qbattery.hamiltonians import CapacityError, Model, ModelParams, Topology
from qbattery.sweeps import (
    Axis,
    InsufficientDataError,
    NonpositiveValueError,
    Scaling,
    SweepRow,
    SweepSpec,
    apply_axis,
    convergence_check,
    fit_power_law,
    preset_names,
    preset_specs,
    run_sweep,
    scaled_power,
)


def jch(**kw):
    return ModelParams(model=Model.JCH, **kw)


def dicke(**kw):
    return ModelParams(model=Model.DICKE, **kw)


def make_rows(ns, p_of_n):
    rows = []
    for n in ns:
        row = SweepRow(
            model="jch", topology="line", normalization="", n=n, m=1, beta=0.05,
            beta_prime=None, kappa=0.0, n_max=None, dim=1, p_max=p_of_n(n),
            tau=1.0, e_max=1.0, p_scaled=p_of_n(n), cutoff_converged=None,
            wall_time_s=0.0, axis_value=float(n),
        )
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Axis and scaling plumbing.


def test_apply_axis_replaces_single_field():
    base = jch(n=2, m=1, beta=0.05)
    assert apply_axis(base, Axis.N, 5).n == 5
    assert apply_axis(base, Axis.M, 3).m == 3
    assert apply_axis(base, Axis.KAPPA, 0.7).kappa == 0.7
    assert apply_axis(base, Axis.BETA, 0.2).beta == 0.2
    # The original is untouched.
    assert base.n == 2 and base.m == 1 and base.kappa == 0.0


def test_scaled_power_rules():
    p = jch(n=4, m=9, beta=0.05, kappa=0.5)
    assert scaled_power(p, 12.0, Scaling.NONE) == 12.0
    assert scaled_power(p, 12.0, Scaling.PER_N) == 3.0
    assert scaled_power(p, 12.0, Scaling.PER_SQRT_M) == 4.0
    assert scaled_power(p, 12.0, Scaling.TIMES_KAPPA) == 6.0


def test_spec_validation():
    base = jch(n=2, m=1, beta=0.05)
    with pytest.raises(ValueError):
        SweepSpec(base=base, axis=Axis.N, values=())
    with pytest.raises(ValueError):
        SweepSpec(base=base, axis=Axis.N, values=(2, 2))
    with pytest.raises(ValueError):
        SweepSpec(base=base, axis=Axis.N, values=(3, 2))
    with pytest.raises(ValueError):
        SweepSpec(base=base, axis=Axis.N, values=(2, 3), cutoff_multipliers=(4, 5))
    with pytest.raises(ValueError):
        SweepSpec(
            base=dicke(n=2, m=1, beta=0.5),
            axis=Axis.N,
            values=(2, 3),
            cutoff_multipliers=(0,),
        )
    with pytest.raises(ValueError):
        SweepSpec(
            base=dicke(n=2, m=1, beta=2.0),
            axis=Axis.N,
            values=(2, 3),
            cutoff_multipliers=(1, 1),
        )
    with pytest.raises(ValueError, match="integer"):
        SweepSpec(
            base=dicke(n=2, m=1, beta=0.5),
            axis=Axis.N,
            values=(2, 3),
            cutoff_multipliers=(4.5, 5),
        )
    with pytest.raises(ValueError):
        SweepSpec(base=base, axis=Axis.N, values=(2.5, 3))
    with pytest.raises(ValueError):
        SweepSpec(base=base, axis=Axis.M, values=(1, 1.5))
    # Integral floats are fine on the integer axes, any float on the others.
    SweepSpec(base=base, axis=Axis.N, values=(2.0, 3.0))
    SweepSpec(base=base, axis=Axis.KAPPA, values=(0.5, 1.5))


def test_spec_multipliers_meet_the_cutoff_rule():
    # Each multiplier is checked by ModelParams.with_cutoff, which refuses a bool.
    base = dicke(n=2, m=1, beta=0.5)
    for mults, match in (((True, 2), "integer"), ((0, 2), "positive")):
        with pytest.raises(ValueError, match=match):
            SweepSpec(base=base, axis=Axis.N, values=(2, 3), cutoff_multipliers=mults)


# ---------------------------------------------------------------------------
# Running sweeps.


def test_uncoupled_chain_power_per_cavity_is_constant():
    spec = SweepSpec(
        base=jch(n=1, m=1, beta=0.05, kappa=0.0),
        axis=Axis.N,
        values=tuple(range(1, 7)),
        scaling=Scaling.PER_N,
        search=SearchConfig(n_samples=1024, rel_tol=1e-9),
    )
    rows = run_sweep(spec)
    assert [r.n for r in rows] == [1, 2, 3, 4, 5, 6]
    scaled = np.array([r.p_scaled for r in rows])
    assert np.max(np.abs(scaled - scaled[0])) <= 1e-8
    assert all(r.error == "" for r in rows)
    assert all(r.p_scaled == r.p_max / r.n for r in rows)


def test_failed_point_is_recorded_not_raised():
    spec = SweepSpec(
        base=jch(n=1, m=1, beta=0.05),
        axis=Axis.N,
        values=(2, 60),
        search=SearchConfig(n_samples=256),
    )
    rows = run_sweep(spec)
    assert rows[0].error == ""
    assert rows[0].p_max > 0.0
    assert CapacityError.__name__ in rows[1].error
    assert math.isnan(rows[1].p_max)


def test_jobs_changes_no_row():
    spec = SweepSpec(
        base=jch(n=2, m=1, beta=0.05, kappa=0.05),
        axis=Axis.M,
        values=(1, 2, 3),
        scaling=Scaling.PER_SQRT_M,
        search=SearchConfig(n_samples=512),
    )
    one = run_sweep(spec, jobs=1)
    many = run_sweep(spec, jobs=3)
    assert len(one) == len(many) == 3
    for a, b in zip(one, many):
        assert a.p_max == b.p_max
        assert a.tau == b.tau
        assert a.dim == b.dim
        assert a.error == b.error


def test_sweep_is_deterministic():
    spec = SweepSpec(
        base=jch(n=2, m=1, beta=0.05, kappa=0.5, topology=Topology.RING),
        axis=Axis.N,
        values=(2, 3),
        search=SearchConfig(n_samples=512),
    )
    first = run_sweep(spec)
    second = run_sweep(spec)
    for a, b in zip(first, second):
        assert a.p_max == b.p_max
        assert a.tau == b.tau
        assert a.e_max == b.e_max


def test_cutoff_multipliers_fill_convergence_flag():
    spec = SweepSpec(
        base=dicke(n=4, m=1, beta=0.05),
        axis=Axis.N,
        values=(4, 6),
        cutoff_multipliers=(4, 5),
        search=SearchConfig(n_samples=512),
    )
    rows = run_sweep(spec)
    # 2 axis values x 2 multipliers, grouped by axis value.
    assert len(rows) == 4
    assert [r.n_max for r in rows] == [16, 20, 24, 30]
    # Every row of a multiplier group carries the group's verdict.
    assert all(r.cutoff_converged is True for r in rows)


def cutoff_rows(mults, n=2, beta=0.5):
    base = dicke(n=n, m=1, beta=beta)
    return run_sweep(SweepSpec(base=base, axis=Axis.N, values=(n,), cutoff_multipliers=mults))


def test_cutoff_verdict_compares_the_two_largest_cutoffs():
    # Rows come in spec order, and every row carries the verdict of 5x against 4x.
    rows = cutoff_rows((5, 1, 4))
    assert [r.n_max for r in rows] == [10, 2, 8]
    assert [r.cutoff_converged for r in rows] == [True, True, True]
    # A cutoff of N*m photons is far from converged.
    assert [r.cutoff_converged for r in cutoff_rows((1, 2))] == [False, False]
    assert [r.cutoff_converged for r in cutoff_rows((4,))] == [None]


def test_cutoff_verdict_needs_both_largest_rows(cap_states):
    # At N=4 the 5x ladder holds 105 states, over the cap, and the 4x one 85.
    cap_states(100)
    four, five = cutoff_rows((4, 5), n=4)
    assert CapacityError.__name__ in five.error and five.cutoff_converged is None
    assert four.error == "" and four.cutoff_converged is None


# ---------------------------------------------------------------------------
# Power-law fitting.


def test_fit_recovers_exact_exponents():
    slope, r2 = fit_power_law(make_rows(range(2, 12), lambda n: 3.0 * n))
    assert slope == pytest.approx(1.0, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)
    slope, r2 = fit_power_law(make_rows(range(2, 12), lambda n: 0.5 * math.sqrt(n)))
    assert slope == pytest.approx(0.5, abs=1e-10)
    assert r2 == pytest.approx(1.0, abs=1e-10)


def test_fit_window_restricts_points():
    rows = make_rows(range(1, 21), lambda n: n**2 if n >= 10 else n)
    slope, _ = fit_power_law(rows[9:])
    assert slope == pytest.approx(2.0, abs=1e-10)


def test_fit_rejects_bad_inputs():
    with pytest.raises(InsufficientDataError):
        fit_power_law(make_rows([2, 3], lambda n: float(n)))
    rows = make_rows(range(2, 8), lambda n: float(n))
    rows[2].p_max = 0.0
    with pytest.raises(NonpositiveValueError):
        fit_power_law(rows)
    # Errored points are skipped, not fitted.
    rows = make_rows(range(2, 8), lambda n: float(n))
    rows[0].error = "CapacityError: too big"
    rows[0].p_max = math.nan
    slope, _ = fit_power_law(rows)
    assert slope == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Cutoff convergence checks.


def test_convergence_check_converges_at_weak_coupling():
    ok, diff = convergence_check(dicke(n=4, m=1, beta=0.05), multipliers=(4, 5))
    assert ok is True
    assert diff < 1e-4


def test_convergence_check_flat_system_is_trivially_converged():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SearchNotice)
        ok, diff = convergence_check(dicke(n=2, m=1, beta=0.0, beta_prime=0.0))
    assert ok is True
    assert diff == 0.0


def test_convergence_check_input_validation():
    with pytest.raises(InsufficientDataError):
        convergence_check(dicke(n=2, m=1, beta=0.5), multipliers=(4,))
    with pytest.raises(ValueError):
        convergence_check(jch(n=2, m=1, beta=0.5))


# ---------------------------------------------------------------------------
# Presets.


def test_preset_names_are_stable():
    assert preset_names() == ("fig2", "fig3", "fig4", "fig5", "dicke_m")


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_specs("fig9")


def test_preset_shapes():
    hopping = preset_specs("fig2")
    assert len(hopping) == 3
    assert all(s.axis is Axis.N for s in hopping)
    assert sorted(s.base.kappa for s in hopping) == [0.0, 0.05, 0.5]
    assert all(s.values == tuple(range(2, 7)) for s in hopping)
    assert all(s.scaling is Scaling.PER_N for s in hopping)

    photon = preset_specs("fig3")
    assert len(photon) == 4
    assert all(s.axis is Axis.M for s in photon)
    assert {(s.base.n, s.base.kappa) for s in photon} == {
        (2, 0.0), (2, 0.05), (4, 0.0), (4, 0.05),
    }

    collective = preset_specs("fig5")
    assert all(s.base.model is Model.DICKE for s in collective)
    assert all(s.cutoff_multipliers == (4, 5) for s in collective)
    assert all(s.values == tuple(range(2, 21)) for s in collective)
