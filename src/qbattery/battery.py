"""Charging figures of merit extracted from the quench dynamics.

``QuenchSystem`` takes the block a quench evolves from
``hamiltonians.build_quench_block``, the one builder for both models, and
runs it on the engine with the lower fixed cost estimate.  The battery
energy at time t is

    E(t) = w_c * <Jz>(t),

with Jz the diagonal stored-energy observable (w_a per excited two-level
system; the quench row stores nothing).  The charging power is the
quotient P(t) = E(t) / t, not the derivative dE/dt; the headline
quantity is its maximum over a scan window,

    P_max = max_t E(t) / t,      tau = argmax_t E(t) / t.

A uniform coarse scan locates the global quotient maximum, then Brent's
method refines it, starting from the three grid samples around it.  The
scan runs in requests of increasing t and stops at the last sample that
can win: E(t) never exceeds the bound E_bound = w_c * max Jz over the
evolved block, so past t* = E_bound / P_best every quotient lies below
the best one seen.  The first charging peak after tau (the first
local maximum of E past the quotient maximum) is refined the same way and
reported as a diagnostic alongside.

For a single cavity at zero hopping the closed-form check is

    Omega = sqrt(delta^2 + 4 m beta^2) / 2,    E(t) ~ sin^2(Omega t),

whose first energy peak sits at tau = pi / (2 Omega) and whose quotient
maximum solves tan(x) = 2x with x = Omega t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .dynamics import _SCAN_CHUNK, ChebyshevEngine, EigenEngine, diagonalize
from .hamiltonians import Model, ModelParams, QuenchBlock, _check_int, build_quench_block

__all__ = [
    "RabiParams",
    "DegenerateRabiError",
    "rabi_oracle",
    "SearchConfig",
    "SearchNotice",
    "PowerResult",
    "default_horizon",
    "QuenchSystem",
    "energy_series",
    "max_power",
    "charge",
    "DENSE_LIMIT",
]

# The largest block the dense engine takes: at this size it needs about
# 150 MB (H, its eigenvectors and the LAPACK workspace), so
# ``dynamics.state_cap()``, which bounds every Chebyshev window, stays the
# one memory rule.  Below it, the block runs on the engine with the lower
# estimate of its run time.  The limit counts the states of the block the
# quench can reach, not the full basis; for a chain those are orbits of the
# hopping graph's automorphisms (65 for the 5,336 states of the N=6
# all-to-all sector).
DENSE_LIMIT = 2500

# Fixed estimates of each engine's run time in seconds on a block of d
# states with nnz stored entries.  Dense: _DENSE_CUBE d^3 for eigh plus
# _DENSE_SQUARE d^2 for the scan and the refinement.  Chebyshev:
# _CHEB_FIXED for the disc bound and set-up, then per window _CHEB_WINDOW
# plus _CHEB_FLOP per flop of its ``order`` sparse products (2 nnz each)
# and its Gram forms (order d each), a chiral block's window (``dynamics``)
# priced as a general one.  The window count is one per fixed phase: the
# disc half-width times the scan length, with the scan taken to stop at
# 1/_SCAN_SHARE of the default horizon.  The constants are a least-squares
# fit, in relative error, to both engines' times on the 179 preset points
# of 40 to 2,700 states (2-vCPU Xeon, OpenBLAS); the engine they picked
# cost within 0.1 % of the faster one summed over each preset.  They are
# fixed rather than measured on the host, so that every run on every host
# picks the same engine for a block and the results' bytes hold on the
# same host at the same BLAS thread count;
# ``test_engine_follows_the_cost_estimates`` pins the choice.
_DENSE_CUBE = 1.6e-11
_DENSE_SQUARE = 2.4e-7
_CHEB_FIXED = 9.5e-3
_CHEB_WINDOW = 3.2e-3
_CHEB_FLOP = 3.1e-10
_SCAN_SHARE = 16

_FLAT_TOL = 1e-12
# The scan tests whether it may stop after each request; the relative
# slack on the energy bound keeps an engine's rounding above the bound from
# stopping the scan before a winning sample.
_BOUND_SLACK = 1e-9
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


class DegenerateRabiError(ValueError):
    """Zero oscillation frequency: both the detuning and the coupling vanish."""


@dataclass(frozen=True)
class RabiParams:
    """Single two-level system exchanging m excitations with one mode."""

    delta: float
    beta: float
    m: int = 1

    def __post_init__(self) -> None:
        _check_int("m", self.m)
        if self.m < 1:
            raise ValueError(f"m must be a positive integer, got {self.m}")
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        if not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite, got {self.delta}")


def rabi_oracle(params: RabiParams) -> tuple[float, float]:
    """Oscillation frequency and time of the first population maximum.

    Omega = sqrt(delta^2 + 4 m beta^2) / 2 and the excited-state population
    follows sin^2(Omega t) up to amplitude, peaking first at pi/(2 Omega).
    """
    omega = math.sqrt(params.delta**2 + 4.0 * params.m * params.beta**2) / 2.0
    if omega == 0.0:
        raise DegenerateRabiError("delta and beta are both zero; nothing oscillates")
    return omega, math.pi / (2.0 * omega)


class SearchNotice(UserWarning):
    """Scan produced a degenerate or edge-bound power search."""


@dataclass(frozen=True)
class SearchConfig:
    """Scan window and refinement settings for the power search.

    ``t_max=None`` picks the default horizon for the model parameters.
    """

    t_max: float | None = None
    n_samples: int = 4096
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise ValueError("t_max must be finite and positive")
        _check_int("n_samples", self.n_samples)
        if self.n_samples < 4:
            raise ValueError("need at least four scan samples")
        # Below 1e-14 the refinement's last steps, rel_tol * t / 4 long, come
        # within a few rounding steps of t and it may never stop.
        if not 1e-14 <= self.rel_tol < 1:
            raise ValueError("rel_tol must sit in [1e-14, 1)")

    def grid(self, params: ModelParams | None) -> np.ndarray:
        """The scan times horizon * k / n_samples, k = 1..n_samples.

        The horizon is ``t_max``, or ``default_horizon(params)`` when unset.
        """
        horizon = self.t_max if self.t_max is not None else default_horizon(params)
        return horizon * np.arange(1, self.n_samples + 1) / self.n_samples


@dataclass(frozen=True)
class PowerResult:
    """Outcome of one power search.

    ``e_max`` and ``t_e_max`` locate the first charging peak after ``tau``,
    so ``0 <= e_at_tau <= e_max``.  ``series`` holds the (t, E) samples the
    scan evaluated: the leading samples of the grid, up to the last sample
    the search needed, rounded up to the evaluator's ``batch``.
    """

    p_max: float
    tau: float
    e_max: float
    e_at_tau: float
    t_e_max: float
    series: np.ndarray


def default_horizon(params: ModelParams) -> float:
    """Five uncoupled oscillation periods, 10*pi/(beta*sqrt(m)); 100 if nothing couples."""
    couple = params.beta
    if couple == 0.0 and params.model is Model.DICKE:
        couple = params.beta_prime_value
    if couple > 0.0:
        return 10.0 * math.pi / (couple * math.sqrt(params.m))
    return 100.0


def _cheaper_engine(
    block: QuenchBlock, horizon: float
) -> tuple[str, tuple[float, float] | None]:
    """The engine with the lower cost estimate for ``block``, and its disc bounds if computed.

    A block above ``DENSE_LIMIT`` goes Chebyshev.  Otherwise Chebyshev is
    first priced from the range of H's diagonal.  Each diagonal entry is
    the energy of one basis state, so the spectrum, and every disc bound
    on it, spans at least that range, and the estimate grows with the
    width it is given: a block that dense beats at this lower estimate
    goes dense without bounding its spectrum, as it would with the bound.
    That takes in every block whose dense estimate is below Chebyshev's
    fixed cost.  Only the remaining blocks take the disc bounds, which set
    the window count and which the Chebyshev engine then reuses.
    """
    d = block.dim
    if d > DENSE_LIMIT:
        return "chebyshev", None
    dense = _DENSE_CUBE * d**3 + _DENSE_SQUARE * d**2
    phase = ChebyshevEngine._WINDOW_PHASE
    order = ChebyshevEngine._WINDOW_ORDER
    flops = order * (2 * block.values.shape[0] + order * d)

    def chebyshev(width: float) -> float:
        windows = math.ceil(0.5 * width * horizon / (_SCAN_SHARE * phase))
        return _CHEB_FIXED + windows * (_CHEB_WINDOW + _CHEB_FLOP * flops)

    diagonal = block.values[block.rows == block.cols]
    if dense <= chebyshev(float(diagonal.max() - diagonal.min())):
        return "dense", None
    lo, hi = ChebyshevEngine._scaled_discs(block.h)
    return ("dense" if dense <= chebyshev(hi - lo) else "chebyshev"), (lo, hi)


class QuenchSystem:
    """One configured battery: Hamiltonian block, engine, and energy evaluation.

    The engine evolves only the block of states that the quench reaches,
    which ``build_quench_block`` builds for either model: the normalized
    orbit sums a chain's walk reaches, without enumerating the full
    sector, or the collective ladder cut by the conserved quantities of
    its quench.  ``dim`` is the size of the space the
    block is cut from (the block's ``sector_dim``) and ``block_dim`` the
    size of the evolved block.
    ``engine`` is the cheaper of the two by fixed cost estimates
    (``_cheaper_engine``): dense diagonalization, for at most
    ``DENSE_LIMIT`` states, or Chebyshev windows.  The builders stop at
    ``dynamics.state_cap()`` walked orbits or ladder states, so a Chebyshev
    window always fits in memory.  ``on_grid(ts)`` returns the stored
    energy E(t) at each time and, with ``params``, is the evaluator
    protocol that ``max_power`` reads.  ``energy_bound`` is the largest
    energy any state of the block stores, an upper bound on E(t) that lets
    the search stop, and ``batch`` the number of times its engine computes
    together, to which the search rounds its requests.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        block = build_quench_block(params)
        self.dim = block.sector_dim
        self.block_dim = block.dim
        self.energy_bound = params.omega_c * float(block.jz.max())
        psi0 = np.zeros(self.block_dim)
        psi0[block.start] = 1.0
        self.engine, bounds = _cheaper_engine(block, default_horizon(params))
        if self.engine == "dense":
            self._eval = EigenEngine(diagonalize(block.dense()), psi0, [block.jz])
        else:
            self._eval = ChebyshevEngine(block.h, psi0, [block.jz], bounds)
        self.batch = self._eval.batch

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        return self.params.omega_c * self._eval.on_grid(ts)[0]


def energy_series(params: ModelParams, t_grid: np.ndarray) -> np.ndarray:
    """E(t) on the given positive, finite time grid, returned as an (len, 2) array."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("time grid must be a nonempty 1-D array")
    if not (ts[0] > 0 and np.all(np.diff(ts) > 0) and ts[-1] < np.inf):
        raise ValueError("time grid must be strictly increasing, positive and finite")
    system = QuenchSystem(params)
    return np.column_stack([ts, system.on_grid(ts)])


def _brent_max(fn, a: float, b: float, rel_tol: float, seeds: dict[float, float]):
    """Brent's maximization of ``fn`` on [a, b]; returns the best (t, f(t)) ever seen.

    ``seeds`` maps times to values already known, the first listed winning
    ties; the best three inside [a, b] start the parabola.  Each step is the
    vertex of the parabola through the best three points (x, w, v), or a
    golden-section step into the larger half of [a, b] when that vertex
    lies outside it or its step is not below half the step before last.
    No step is shorter than tol = rel_tol * |x| / 4, so the last ones probe
    x +- tol, and it stops once [a, b] is at most rel_tol * |x| wide (Brent
    1973, ch. 5).
    """
    best = max(seeds.items(), key=lambda p: p[1])
    inside = sorted((p for p in seeds.items() if a <= p[0] <= b), key=lambda p: -p[1])
    (x, fx), (w, fw), (v, fv) = (inside + inside[-1:] * 2)[:3]
    d = e = b - a
    while True:
        m = 0.5 * (a + b)
        tol = 0.25 * rel_tol * abs(x)
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return best
        r = (x - w) * (fx - fv)
        q = (x - v) * (fx - fw)
        p = (x - v) * q - (x - w) * r
        q = 2.0 * (q - r)
        p, q = (-p if q > 0.0 else p), abs(q)
        if abs(e) > tol and abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
            e, d = d, p / q
            if x + d - a < 2.0 * tol or b - x - d < 2.0 * tol:
                d = tol if x < m else -tol
        else:
            e = (b if x < m else a) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = fn(u)
        if fu > best[1]:
            best = (u, fu)
        if fu >= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v in (x, w):
                v, fv = u, fu


def _peak_after(energies: np.ndarray, k: int) -> int:
    """First j >= k with E[j] >= E[j + 1], the first grid maximum of E from k on.

    The last index when E keeps rising to the end of the samples.
    """
    falls = np.flatnonzero(energies[k + 1 :] <= energies[k:-1])
    return k + int(falls[0]) if falls.size else energies.shape[0] - 1


def _scan(evaluator, ts: np.ndarray) -> np.ndarray:
    """E on the leading samples of ``ts``, up to the last one that can win.

    Past t* = E_bound / P_best, E(t) / t <= E_bound / t stays below the best
    quotient seen.  While the scan is short of t*, each request stops at the
    first grid sample past it; once past, the scan goes on in doubling
    steps until the first maximum of E after the quotient maximum has a
    scanned sample on its right.  Each request is rounded up to whole
    ``evaluator.batch`` times, those the evaluator computes together (a
    divisor of ``_SCAN_CHUNK``, or all of it if the evaluator does not
    say), and never crosses a multiple of ``_SCAN_CHUNK``: the scan stops
    at or before the chunk where a scan in whole chunks would stop, and
    evaluates no sample that scan would not.
    An evaluator without ``energy_bound`` has an infinite bound, so every
    sample is scanned.
    """
    n = ts.shape[0]
    bound = getattr(evaluator, "energy_bound", math.inf)
    batch = getattr(evaluator, "batch", _SCAN_CHUNK)
    energies = np.empty(n)
    end, target, step = 0, _SCAN_CHUNK, batch
    while True:
        stop = min(-(-target // batch) * batch, n)
        energies[end:stop] = evaluator.on_grid(ts[end:stop])
        end = stop
        if end == n:
            return energies
        # No request crosses the next multiple of _SCAN_CHUNK.
        target = end - end % _SCAN_CHUNK + _SCAN_CHUNK
        if energies[:end].max() < _FLAT_TOL:
            continue
        quotients = energies[:end] / ts[:end]
        k = int(np.argmax(quotients))
        t_star = bound * (1.0 + _BOUND_SLACK) / quotients[k]
        first = int(np.searchsorted(ts, t_star, side="right"))
        if end < first:
            target = min(target, first)
        elif _peak_after(energies[:end], k) < end - 1:
            return energies[:end]
        else:
            target = min(target, end + step)
            step *= 2


def max_power(evaluator, config: SearchConfig) -> PowerResult:
    """Locate max E(t)/t by coarse scan plus Brent refinement.

    ``evaluator`` provides ``on_grid(ts)``, the energy at each time (any
    QuenchSystem works); the refinement asks it for one time at a time,
    never for one it has evaluated.  The grid is
    ``config.grid(evaluator.params)``; ``params`` is read only
    when ``config.t_max`` is unset.  With an ``energy_bound`` on the
    evaluator the scan stops at the last sample that can beat the best
    quotient, once the charging peak after it has a sample on its right
    (``_scan``), in requests rounded up to the evaluator's ``batch``.  The
    result then matches the full scan's, because both engines shape their
    products so that a time's value does not depend on the other times in
    its call, as
    ``test_grid_values_do_not_depend_on_the_other_times_in_the_call``
    checks on every sample of the window.  ``e_max`` and ``t_e_max``
    refine the first grid maximum of E at or after the quotient maximum.
    Each refinement starts from the grid samples around its maximum and
    returns the best time it has seen, so ``p_max`` is at least the best
    grid quotient; ``tau`` is within ``config.rel_tol * tau`` of the maximum.
    """
    grid = config.grid(evaluator.params if config.t_max is None else None)
    energies = _scan(evaluator, grid)
    ts = grid[: energies.shape[0]]
    e_top = energies.max()
    if e_top < _FLAT_TOL:
        warnings.warn(
            "energy stayed flat over the scan window; no charging happens",
            SearchNotice,
            stacklevel=2,
        )
        return PowerResult(
            p_max=0.0,
            tau=math.nan,
            e_max=float(max(e_top, 0.0)),
            e_at_tau=0.0,
            t_e_max=math.nan,
            series=np.column_stack([ts, energies]),
        )
    quotients = energies / ts
    k = int(np.argmax(quotients))
    last = ts.shape[0] - 1
    if k == 0 or k == last:
        where = "lower" if k == 0 else "upper"
        warnings.warn(
            f"quotient maximum sits at the {where} scan edge; treat tau as a bound",
            SearchNotice,
            stacklevel=2,
        )
    j = _peak_after(energies, k)
    if j == last:
        # E still rises at the last sample; the stopped scan never ends there.
        note = "charging peak sits at the upper scan edge; treat e_max as a bound"
        warnings.warn(note, SearchNotice, stacklevel=2)

    def near(i: int) -> list[int]:
        return [n for n in (i, i - 1, i + 1) if 0 <= n <= last]

    # Each refinement starts from a grid sample and its neighbours, listed
    # first so that it wins ties.  All are cached, so tau has a cached energy
    # wherever it lands and no time is evaluated twice.
    cache: dict[float, float] = {ts[n]: energies[n] for n in near(k) + near(j)}

    def energy(t: float) -> float:
        if t not in cache:
            cache[t] = float(evaluator.on_grid(np.array([t]))[0])
        return cache[t]

    def quotient(t: float) -> float:
        return energy(t) / t

    lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, last)]
    seeds = {ts[n]: quotients[n] for n in near(k)}
    tau, p_max = _brent_max(quotient, lo, hi, config.rel_tol, seeds)
    e_at_tau = cache[tau]
    # E rises at tau (E'(tau) = E(tau) / tau > 0); refine its first peak
    # after tau, seeded with tau itself so that e_at_tau <= e_max.
    p_lo, p_hi = ts[max(j - 1, 0)], ts[min(j + 1, last)]
    seeds = {**{ts[n]: energies[n] for n in near(j)}, tau: e_at_tau}
    t_e_max, e_max = _brent_max(energy, p_lo, p_hi, config.rel_tol, seeds)
    return PowerResult(
        p_max=e_at_tau / tau,
        tau=tau,
        e_max=float(e_max),
        e_at_tau=float(e_at_tau),
        t_e_max=t_e_max,
        series=np.column_stack([ts, energies]),
    )


def charge(params: ModelParams, search: SearchConfig | None = None) -> PowerResult:
    """Build the system for ``params`` and run the power search on it."""
    config = search if search is not None else SearchConfig()
    return max_power(QuenchSystem(params), config)
