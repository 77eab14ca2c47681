"""Parameter sweeps over system size, photon filling, hopping, and coupling.

Each sweep point is an independent pure computation (build basis, build
Hamiltonian, evolve, extract the power maximum).  Points run one after
the other in specification order; the dense path's BLAS already uses
every core, so running points side by side only oversubscribes them.  A
failing point is recorded in its row rather than aborting the sweep.

The scaled-power column makes the expected scaling collapses visible
directly in the output table: P/N against N, P/sqrt(m) against m, and
P*kappa against kappa.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .battery import PowerResult, QuenchSystem, SearchConfig, charge, max_power
from .hamiltonians import Model, ModelParams

__all__ = [
    "Axis",
    "Scaling",
    "SweepSpec",
    "SweepRow",
    "sweep_row",
    "InsufficientDataError",
    "NonpositiveValueError",
    "CONVERGENCE_THRESHOLD",
    "apply_axis",
    "scaled_power",
    "run_sweep",
    "fit_power_law",
    "convergence_check",
    "preset_names",
    "preset_specs",
]

CONVERGENCE_THRESHOLD = 1e-4


class Axis(Enum):
    N = "n"
    M = "m"
    KAPPA = "kappa"
    BETA = "beta"


class Scaling(Enum):
    NONE = "none"
    PER_N = "per-n"
    PER_SQRT_M = "per-sqrt-m"
    TIMES_KAPPA = "times-kappa"


class InsufficientDataError(ValueError):
    """Too few usable points for the requested reduction."""


class NonpositiveValueError(ValueError):
    """A log-log fit needs strictly positive powers and axis values."""


@dataclass(frozen=True)
class SweepSpec:
    """One axis of values swept on top of a base configuration.

    ``cutoff_multipliers`` (collective model only) runs every point at each
    photon cutoff ``mult * n * m``, producing one row per (value, cutoff)
    and a convergence verdict between the two largest cutoffs.
    """

    base: ModelParams
    axis: Axis
    values: tuple
    scaling: Scaling = Scaling.NONE
    cutoff_multipliers: tuple[int, ...] = ()
    search: SearchConfig | None = None

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one axis value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("axis values must be strictly increasing")
        if self.cutoff_multipliers and self.base.model is not Model.DICKE:
            raise ValueError("cutoff multipliers only apply to the collective model")
        if any(mult < 1 for mult in self.cutoff_multipliers):
            raise ValueError("cutoff multipliers must be positive integers")
        if len(set(self.cutoff_multipliers)) != len(self.cutoff_multipliers):
            raise ValueError("cutoff multipliers must be distinct")
        if self.axis in (Axis.N, Axis.M) and any(not float(v).is_integer() for v in self.values):
            raise ValueError(f"{self.axis.name} axis values must be integers")


@dataclass
class SweepRow:
    """Flat record of one sweep point; ``error`` is empty on success."""

    model: str
    topology: str | None
    normalization: str | None
    n: int
    m: int
    beta: float
    beta_prime: float | None
    kappa: float | None
    n_max: int | None
    dim: int | None
    p_max: float
    tau: float
    e_max: float
    p_scaled: float
    cutoff_converged: bool | None
    wall_time_s: float
    axis_value: float
    error: str = ""


def apply_axis(base: ModelParams, axis: Axis, value) -> ModelParams:
    if axis is Axis.N:
        return replace(base, n=int(value))
    if axis is Axis.M:
        return replace(base, m=int(value))
    if axis is Axis.KAPPA:
        return replace(base, kappa=float(value))
    return replace(base, beta=float(value))


def scaled_power(params: ModelParams, p_max: float, scaling: Scaling) -> float:
    if scaling is Scaling.PER_N:
        return p_max / params.n
    if scaling is Scaling.PER_SQRT_M:
        return p_max / math.sqrt(params.m)
    if scaling is Scaling.TIMES_KAPPA:
        return p_max * params.kappa
    return p_max


def _point_params(spec: SweepSpec, value, mult: int | None) -> ModelParams:
    params = apply_axis(spec.base, spec.axis, value)
    if mult is not None:
        params = params.with_cutoff(mult)
    return params


def sweep_row(
    params: ModelParams,
    axis_value: float,
    wall_time_s: float,
    dim: int | None = None,
    result: PowerResult | None = None,
    scaling: Scaling = Scaling.NONE,
    error: str = "",
) -> SweepRow:
    """The table row of one run of ``params``; without a result its figures are NaN."""
    is_dicke = params.model is Model.DICKE
    p_max, tau, e_max = (math.nan,) * 3
    if result is not None:
        p_max, tau, e_max = result.p_max, result.tau, result.e_max
    return SweepRow(
        model=params.model.value,
        topology=None if is_dicke else params.topology.value,
        normalization=params.normalization.value if is_dicke else None,
        n=params.n,
        m=params.m,
        beta=params.beta,
        beta_prime=params.beta_prime_value if is_dicke else None,
        kappa=None if is_dicke else params.kappa,
        n_max=params.n_max_value if is_dicke else None,
        dim=dim,
        p_max=p_max,
        tau=tau,
        e_max=e_max,
        p_scaled=scaled_power(params, p_max, scaling),
        cutoff_converged=None,
        wall_time_s=wall_time_s,
        axis_value=float(axis_value),
        error=error,
    )


def _run_point(
    spec: SweepSpec,
    value,
    mult: int | None,
    max_dim: int | None,
    dense_limit: int | None,
) -> SweepRow:
    start = time.perf_counter()
    params = None
    try:
        params = _point_params(spec, value, mult)
        system = QuenchSystem(params, max_dim=max_dim, dense_limit=dense_limit)
        config = spec.search if spec.search is not None else SearchConfig()
        result = max_power(system, config)
    except Exception as err:  # recorded, never fatal for the sweep
        shown = params if params is not None else spec.base
        wall = time.perf_counter() - start
        error = f"{type(err).__name__}: {err}"
        return sweep_row(shown, value, wall, scaling=spec.scaling, error=error)
    wall = time.perf_counter() - start
    return sweep_row(params, value, wall, dim=system.dim, result=result, scaling=spec.scaling)


def _relative_difference(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; zero when both vanish."""
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / denom


def _mark_convergence(spec: SweepSpec, rows: list[SweepRow]) -> None:
    mults = sorted(spec.cutoff_multipliers)
    if len(mults) < 2:
        return
    per_point = len(spec.cutoff_multipliers)
    for start in range(0, len(rows), per_point):
        group = {m: r for m, r in zip(spec.cutoff_multipliers, rows[start : start + per_point])}
        top, second = group[mults[-1]], group[mults[-2]]
        if top.error or second.error:
            continue
        verdict = bool(_relative_difference(top.p_max, second.p_max) < CONVERGENCE_THRESHOLD)
        for row in rows[start : start + per_point]:
            if not row.error:
                row.cutoff_converged = verdict


def run_sweep(
    spec: SweepSpec,
    jobs: int | None = None,
    max_dim: int | None = None,
    dense_limit: int | None = None,
) -> list[SweepRow]:
    """All rows for one sweep spec, ordered by (axis value, cutoff multiplier).

    ``jobs`` is accepted for compatibility and has no effect: points run serially.
    """
    mults: tuple = spec.cutoff_multipliers if spec.cutoff_multipliers else (None,)
    points = [(value, mult) for value in spec.values for mult in mults]
    rows = [_run_point(spec, value, mult, max_dim, dense_limit) for value, mult in points]
    if spec.cutoff_multipliers:
        _mark_convergence(spec, rows)
    return rows


def fit_power_law(rows: list[SweepRow]) -> tuple[float, float]:
    """Least-squares exponent of p_max against the axis value on log-log axes.

    Returns ``(exponent, r_squared)``.  Requires at least three points with
    strictly positive axis values and powers.
    """
    usable = [r for r in rows if not r.error]
    if len(usable) < 3:
        raise InsufficientDataError(f"need at least three points to fit, have {len(usable)}")
    xs = np.array([r.axis_value for r in usable])
    ys = np.array([r.p_max for r in usable])
    if np.any(~np.isfinite(ys)) or np.any(ys <= 0) or np.any(xs <= 0):
        raise NonpositiveValueError("power-law fit needs positive axis values and powers")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), r_squared


def convergence_check(
    params: ModelParams,
    multipliers: tuple[int, ...] = (4, 5),
    search: SearchConfig | None = None,
    max_dim: int | None = None,
    dense_limit: int | None = None,
) -> tuple[bool, float]:
    """Compare p_max across photon cutoffs ``mult * n * m`` for the collective model.

    Returns ``(converged, max_rel_diff)`` where convergence is judged on
    the two largest cutoffs and ``max_rel_diff`` spans all consecutive
    pairs.
    """
    if params.model is not Model.DICKE:
        raise ValueError("cutoff convergence applies to the collective model")
    mults = sorted(set(multipliers))
    if len(mults) < 2:
        raise InsufficientDataError("need at least two cutoff multipliers to compare")
    powers = [
        charge(params.with_cutoff(mult), search, max_dim=max_dim, dense_limit=dense_limit).p_max
        for mult in mults
    ]
    diffs = [_relative_difference(a, b) for a, b in zip(powers[1:], powers[:-1])]
    return bool(diffs[-1] < CONVERGENCE_THRESHOLD), float(max(diffs))


# ---------------------------------------------------------------------------
# Presets approximating the published scaling studies.


def _jch_base(beta: float = 0.05, m: int = 1, kappa: float = 0.0, n: int = 2) -> ModelParams:
    return ModelParams(model=Model.JCH, n=n, m=m, beta=beta, kappa=kappa)


def _dicke_base(beta: float, n: int, m: int = 1) -> ModelParams:
    return ModelParams(model=Model.DICKE, n=n, m=m, beta=beta)


def preset_names() -> tuple[str, ...]:
    return ("fig2", "fig3", "fig4", "fig5", "dicke_m")


def preset_specs(name: str) -> list[SweepSpec]:
    """Named sweep bundles; one table row per (axis value, curve, cutoff)."""
    if name == "fig2":
        return [
            SweepSpec(
                base=_jch_base(kappa=kappa),
                axis=Axis.N,
                values=tuple(range(2, 7)),
                scaling=Scaling.PER_N,
            )
            for kappa in (0.0, 0.05, 0.5)
        ]
    if name == "fig3":
        specs = []
        for n, top_m in ((2, 20), (4, 8)):
            for kappa in (0.0, 0.05):
                specs.append(
                    SweepSpec(
                        base=_jch_base(kappa=kappa, n=n),
                        axis=Axis.M,
                        values=tuple(range(1, top_m + 1)),
                        scaling=Scaling.PER_SQRT_M,
                    )
                )
        return specs
    if name == "fig4":
        kappas = (0.0,) + tuple(np.geomspace(0.005, 1.0, 13))
        return [
            SweepSpec(
                base=_jch_base(n=n),
                axis=Axis.KAPPA,
                values=kappas,
                scaling=Scaling.TIMES_KAPPA,
            )
            for n in (2, 3)
        ]
    if name == "fig5":
        return [
            SweepSpec(
                base=_dicke_base(beta=beta, n=2),
                axis=Axis.N,
                values=tuple(range(2, 21)),
                scaling=Scaling.PER_N,
                cutoff_multipliers=(4, 5),
            )
            for beta in (0.0, 0.05, 0.5, 2.0)
        ]
    if name == "dicke_m":
        return [
            SweepSpec(
                base=_dicke_base(beta=beta, n=10),
                axis=Axis.M,
                values=tuple(range(1, 11)),
                scaling=Scaling.PER_SQRT_M,
                cutoff_multipliers=(4, 5),
            )
            for beta in (0.05, 0.5, 2.0)
        ]
    raise ValueError(f"unknown preset {name!r}; choose from {', '.join(preset_names())}")
