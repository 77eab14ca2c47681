"""Charging figures of merit extracted from the quench dynamics.

The battery energy at time t is

    E(t) = w_c * ( <Jz>(t) - <Jz>(0) ),

with Jz the diagonal stored-energy observable (w_a per excited two-level
system).  The charging power is the quotient P(t) = E(t) / t, not the
derivative dE/dt; the headline quantity is its maximum over a scan window,

    P_max = max_t E(t) / t,      tau = argmax_t E(t) / t.

A uniform coarse scan locates the global quotient maximum, then
golden-section search refines it.  The scan runs in chunks of increasing
t and stops once no later sample can win: E(t) never exceeds the bound
E_bound = w_c * (max Jz - <Jz>(0)) over the evolved block, so past
t* = E_bound / P_best every quotient lies below the best one seen.  The
first charging peak after tau (the first local maximum of E past the
quotient maximum) is refined the same way and reported as a diagnostic
alongside.

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
import scipy.sparse

from .basis import _check_int, jch_sector_dim
from .dynamics import _SCAN_CHUNK, ChebyshevEngine, EigenEngine, diagonalize
from .hamiltonians import (
    Model,
    ModelParams,
    build_basis,
    build_csr,
    build_quench_block,
    initial_index,
    jz_diagonal,
)

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
# and its Gram forms (order d each).  A window covers a fixed phase, so
# the window count follows the disc half-width times the scan length; the
# scan is taken to stop at 1/_SCAN_SHARE of the default horizon, the
# earliest stop on any preset point (256 of 4,096 samples).  The constants
# are a least-squares fit, in relative error, to both engines' times on
# the 179 preset points of 40 to 2,700 states (2-vCPU Xeon, OpenBLAS);
# the engine they pick cost within 0.1 % of the faster one summed over
# each preset.  They are fixed, so the choice, and with it every result,
# is the same on every run and host.  They predate the stacked Gram
# product and the folded Bessel table, which made each window cheaper, and
# are kept so that every block runs on the engine it ran on before.
_DENSE_CUBE = 1.6e-11
_DENSE_SQUARE = 2.4e-7
_CHEB_FIXED = 9.5e-3
_CHEB_WINDOW = 3.2e-3
_CHEB_FLOP = 3.1e-10
_SCAN_SHARE = 16

_FLAT_TOL = 1e-12
# The scan evaluates ``_SCAN_CHUNK`` grid times per call before it tests
# whether it may stop; the relative slack on the energy bound keeps an
# engine's rounding above the bound from stopping the scan before a winning
# sample.
_BOUND_SLACK = 1e-9
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
        if not 0 < self.rel_tol < 1:
            raise ValueError("rel_tol must sit in (0, 1)")

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
    scan evaluated: the leading samples of the grid, up to where it stopped.
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
    h: scipy.sparse.csr_array, horizon: float
) -> tuple[str, tuple[float, float] | None]:
    """The engine with the lower cost estimate for block ``h``, and its disc bounds if computed.

    A block whose dense estimate is below Chebyshev's fixed cost goes
    dense without bounding its spectrum; a block above ``DENSE_LIMIT``
    goes Chebyshev.  Otherwise the disc bounds set the window count, and
    the Chebyshev engine then reuses them.
    """
    d = h.shape[0]
    if d > DENSE_LIMIT:
        return "chebyshev", None
    dense = _DENSE_CUBE * d**3 + _DENSE_SQUARE * d**2
    if dense < _CHEB_FIXED:
        return "dense", None
    lo, hi = ChebyshevEngine._scaled_discs(h)
    phase = ChebyshevEngine._WINDOW_PHASE
    order = ChebyshevEngine._pick_order(phase)
    windows = math.ceil(0.5 * (hi - lo) * horizon / (_SCAN_SHARE * phase))
    flops = order * (2 * h.nnz + order * d)
    chebyshev = _CHEB_FIXED + windows * (_CHEB_WINDOW + _CHEB_FLOP * flops)
    return ("dense" if dense <= chebyshev else "chebyshev"), (lo, hi)


def _reachable_block(h: scipy.sparse.csr_array, start: int) -> np.ndarray:
    """Sorted indices of the states that the nonzeros of ``h`` connect to ``start``.

    A breadth-first walk over the CSR rows, one numpy step per level.  The
    block is a connected component of the sparsity graph, so H maps it into
    itself and a quench from ``start`` never leaves it.
    """
    indptr, indices = h.indptr, h.indices
    seen = np.zeros(h.shape[0], dtype=bool)
    seen[start] = True
    frontier = np.array([start])
    while frontier.size:
        lo = indptr[frontier]
        counts = indptr[frontier + 1] - lo
        # Position of every stored entry of the frontier rows in ``indices``.
        pos = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
        neighbors = indices[pos]
        frontier = np.unique(neighbors[~seen[neighbors]])
        seen[frontier] = True
    return np.flatnonzero(seen)


class QuenchSystem:
    """One configured battery: Hamiltonian block, engine, and energy evaluation.

    The engine evolves only the block of states that the quench reaches.
    A chain's quench state and stored energy are unchanged by every
    automorphism of the hopping graph, so its block holds the normalized
    orbit sums that ``build_quench_block`` walks to from the quench state,
    without enumerating the full sector.  The collective ladder, where
    every state is its own orbit, is built whole by ``build_csr`` and cut
    to the states its nonzeros connect to the initial one.  ``dim`` is the
    size of the full basis and ``block_dim`` the size of the evolved block.
    ``engine`` is the cheaper of the two by fixed cost estimates
    (``_cheaper_engine``): dense diagonalization, for at most
    ``DENSE_LIMIT`` states, or Chebyshev windows.  The builders stop at
    ``dynamics.state_cap()`` walked orbits or ladder states, so a Chebyshev
    window always fits in memory.  ``on_grid(ts)`` returns the stored
    energy E(t) at each time and, with ``params``, is the evaluator
    protocol that ``max_power`` reads.  ``energy_bound`` is the largest
    energy any state of the block stores, an upper bound on E(t) that lets
    the search stop.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        if params.model is Model.JCH:
            self.dim = jch_sector_dim(params.n, params.m)
            block = build_quench_block(params)
            h, jz, start = block.h, block.jz, block.start
        else:
            basis = build_basis(params)
            self.dim = basis.dim
            h = build_csr(params, basis)
            start = initial_index(params, basis)
            keep = _reachable_block(h, start)
            jz = jz_diagonal(params, basis)[keep]
            if keep.shape[0] < self.dim:
                h = h[keep][:, keep]
            start = int(np.searchsorted(keep, start))
        self.block_dim = int(h.shape[0])
        self._jz0 = float(jz[start])
        self.energy_bound = params.omega_c * (float(jz.max()) - self._jz0)
        psi0 = np.zeros(self.block_dim)
        psi0[start] = 1.0
        self.engine, bounds = _cheaper_engine(h, default_horizon(params))
        if self.engine == "dense":
            self._eval = EigenEngine(diagonalize(h.toarray()), psi0, jz)
        else:
            self._eval = ChebyshevEngine(h, psi0, [jz], bounds)

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        return self.params.omega_c * (self._eval.on_grid(ts) - self._jz0)


def energy_series(params: ModelParams, t_grid: np.ndarray) -> np.ndarray:
    """E(t) on the given positive, finite time grid, returned as an (len, 2) array."""
    ts = np.asarray(t_grid, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("time grid must be a nonempty 1-D array")
    if not (ts[0] > 0 and np.all(np.diff(ts) > 0) and ts[-1] < np.inf):
        raise ValueError("time grid must be strictly increasing, positive and finite")
    system = QuenchSystem(params)
    return np.column_stack([ts, system.on_grid(ts)])


def _golden_max(fn, lo: float, hi: float, rel_tol: float, seeds):
    """Golden-section maximization on [lo, hi]; returns the best (t, f(t)) ever seen."""
    best_t, best_f = max(seeds, key=lambda p: p[1])
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for x, f in ((x1, f1), (x2, f2)):
        if f > best_f:
            best_t, best_f = x, f
    while (b - a) > rel_tol * max(abs(a) + abs(b), 1e-300) / 2.0:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
            if f1 > best_f:
                best_t, best_f = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
            if f2 > best_f:
                best_t, best_f = x2, f2
    return best_t, best_f


def _peak_after(energies: np.ndarray, k: int) -> int:
    """First j >= k with E[j] >= E[j + 1], the first grid maximum of E from k on.

    The last index when E keeps rising to the end of the samples.
    """
    falls = np.flatnonzero(energies[k + 1 :] <= energies[k:-1])
    return k + int(falls[0]) if falls.size else energies.shape[0] - 1


def _scan(evaluator, ts: np.ndarray) -> np.ndarray:
    """E on the leading samples of ``ts``, up to where no later sample can win.

    The scan runs in chunks and stops before ``ts[end]`` once that time lies
    past E_bound / P_best, where E(t) / t <= E_bound / t stays below the
    best quotient seen, and the first maximum of E after the quotient
    maximum has a scanned sample on its right.  An evaluator without
    ``energy_bound`` has an infinite bound, so every sample is scanned.
    """
    n = ts.shape[0]
    bound = getattr(evaluator, "energy_bound", math.inf)
    energies = np.empty(n)
    end = 0
    while end < n:
        energies[end : end + _SCAN_CHUNK] = evaluator.on_grid(ts[end : end + _SCAN_CHUNK])
        end = min(end + _SCAN_CHUNK, n)
        if end < n and energies[:end].max() >= _FLAT_TOL:
            quotients = energies[:end] / ts[:end]
            k = int(np.argmax(quotients))
            past = ts[end] > bound * (1.0 + _BOUND_SLACK) / quotients[k]
            if past and _peak_after(energies[:end], k) < end - 1:
                break
    return energies[:end]


def max_power(evaluator, config: SearchConfig) -> PowerResult:
    """Locate max E(t)/t by coarse scan plus golden-section refinement.

    ``evaluator`` provides ``on_grid(ts)``, the energy at each time (any
    QuenchSystem works); the refinement asks it for one time at a time.
    The grid is ``config.grid(evaluator.params)``; ``params`` is read only
    when ``config.t_max`` is unset.  With an ``energy_bound`` on the
    evaluator the scan stops where no later time can beat the best
    quotient.  The result then matches the full scan's, because both
    engines shape their products so that a time's value does not depend on
    the other times in its call, as
    ``test_grid_values_do_not_depend_on_the_other_times_in_the_call``
    checks on every sample of the window.  ``e_max`` and ``t_e_max``
    refine the first grid maximum of E at or after the quotient maximum.
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
    lo = ts[k - 1] if k > 0 else ts[0]
    hi = ts[k + 1] if k < last else ts[last]
    # Seeded with the grid sample, so tau has a cached energy wherever it lands;
    # both refinements share it, so no time is evaluated twice.
    cache: dict[float, float] = {ts[k]: energies[k]}

    def energy(t: float) -> float:
        if t not in cache:
            cache[t] = float(evaluator.on_grid(np.array([t]))[0])
        return cache[t]

    def quotient(t: float) -> float:
        return energy(t) / t

    tau, p_max = _golden_max(quotient, lo, hi, config.rel_tol, seeds=[(ts[k], quotients[k])])
    e_at_tau = cache[tau]
    # E rises at tau (E'(tau) = E(tau) / tau > 0); refine its first peak
    # after tau, seeded with tau itself so that e_at_tau <= e_max.
    j = _peak_after(energies, k)
    p_lo = ts[j - 1] if j > 0 else ts[0]
    p_hi = ts[j + 1] if j < last else ts[last]
    seeds = [(ts[j], energies[j]), (tau, e_at_tau)]
    t_e_max, e_max = _golden_max(energy, p_lo, p_hi, config.rel_tol, seeds=seeds)
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
