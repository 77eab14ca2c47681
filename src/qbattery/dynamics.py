"""Time evolution after the quench.

The workhorse is a full symmetric eigendecomposition: with H = V L V^T and
the real initial vector written as c = V^T psi0, any expectation of a
diagonal observable O at time t is

    <psi(t)| O |psi(t)>  =  sum_b O_b (x_b(t)^2 + y_b(t)^2),
    x(t) = V (c * cos(L t)),    y(t) = V (c * sin(L t)),

the real and imaginary parts of psi(t) = V (c * exp(-i L t)) up to the
sign of y.  V stays real, so a grid of times costs two real matrix
products, O(dim^2) per requested time, and is exact for every t.

Sectors too large to diagonalize densely are handled by a Chebyshev
polynomial propagator on the sparse Hamiltonian (A. Weisse et al., Rev.
Mod. Phys. 78, 275 (2006)), scaled into [-1, 1] by the Gershgorin discs of
D^-1 H D, with a positive D from a few power steps (R. S. Varga, Gersgorin
and His Circles, 2004).  Evolution proceeds in fixed windows; in each, the
expansion vectors w_k = T_k(Hs) psi of the state's real and imaginary
parts are the rows of one array S, run from the stored 2 Hs.  Scaled in
place by sqrt(diag), S gives the Gram matrix G_kk' = <w_k| diag |w_k'> of
each tracked diagonal observable from one symmetric product S S^T, stored
folded with the phases of the coefficients gamma_k (-i)^k J_k(a dt) as the
real R = Re(gamma_k gamma_k' i^(k-k') G_kk').  The observable at any time
in the window is then the real form J^T R J.  Every J_k(a dt) comes from
the trapezoidal rule on 256 points for Bessel's integral (the Jacobi-Anger
expansion), folded onto the 65 distinct values of |sin(theta)|: two fixed
tables times their cosines and sines.  No randomness is involved
anywhere, so results are bit-reproducible run to run.

Both engines take the Hamiltonian block as a sparse matrix, which
``build_quench_block`` walks over orbits for a chain and ``build_csr``
assembles on the whole ladder for the collective model (the
eigendecomposition gets its ``toarray()``).  They take observables as 1-D
arrays holding their diagonals and answer one call, ``on_grid(ts)``: the
first observable at every requested time.  A single time is a grid of one.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.special import jv

__all__ = [
    "Spectrum",
    "diagonalize",
    "EigenEngine",
    "ChebyshevEngine",
    "state_cap",
]

# Cap on the entries of each real (dim, times) scratch array used when
# evaluating a dense-path expectation on a long time grid; about six such
# arrays are alive at once, so a block takes at most about 100 MB.
_GRID_BLOCK_ENTRIES = 2_000_000

# The power scan asks for this many times per call.  A time's value must
# not depend on the other times in its call, or the stopped scan would
# differ from the whole grid; matrix products round a column the same way
# only when its neighbours fill the same kernel shapes and threads.  So the
# dense engine cuts a long grid into column blocks that are a multiple of
# this, and the Chebyshev engine pads each window's times to a multiple of
# ``_PAD_COLUMNS`` and contracts them that many at a time.
_SCAN_CHUNK = 128
_PAD_COLUMNS = 8


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order and the matching orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def diagonalize(matrix: np.ndarray) -> Spectrum:
    """Full symmetric eigendecomposition; LAPACK convergence failures propagate."""
    entries = np.asarray(matrix)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {entries.shape}")
    eigenvalues, eigenvectors = np.linalg.eigh(entries)
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


class EigenEngine:
    """Diagonal-observable evaluator backed by a full spectrum; projects ``psi0`` once."""

    def __init__(self, spectrum: Spectrum, psi0: np.ndarray, diag: np.ndarray):
        dim = spectrum.eigenvalues.shape[0]
        psi0 = np.asarray(psi0, dtype=float)
        if psi0.shape != (dim,):
            raise ValueError("initial vector length does not match the spectrum")
        diag = np.asarray(diag, dtype=float)
        if diag.shape != (dim,):
            raise ValueError("diagonal observable must hold one value per basis state")
        self._v = spectrum.eigenvectors
        self._lam = spectrum.eigenvalues
        self._c = spectrum.eigenvectors.T @ psi0
        self._diag = diag

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if not np.isfinite(ts).all():
            raise ValueError("times must be finite")
        out = np.empty(ts.shape[0])
        block = _GRID_BLOCK_ENTRIES // max(1, self._lam.shape[0])
        block = max(_SCAN_CHUNK, block - block % _SCAN_CHUNK)
        c = self._c[:, None]
        for start in range(0, ts.shape[0], block):
            chunk = ts[start : start + block]
            phase = np.outer(self._lam, chunk)
            x = self._v @ (c * np.cos(phase))
            y = self._v @ (c * np.sin(phase))
            out[start : start + chunk.shape[0]] = self._diag @ (x * x + y * y)
        return out


@dataclass
class _Window:
    t0: float
    t1: float
    forms: list[np.ndarray]


class ChebyshevEngine:
    """Diagonal-observable evaluator driven by Chebyshev-expanded propagation.

    ``diags`` lists the diagonal observables to track (each becomes one real
    form per window); their entries must be finite and nonnegative, since
    the Gram forms weight the vectors by their square roots.  A window
    scales its Chebyshev vectors in place for the last diagonal and one
    reused copy of them for every other, so tracking more than one diagonal
    doubles a window's memory.  ``bounds`` holds (lo, hi) from
    ``_scaled_discs(h)`` when the caller has already computed them.  The
    engine lazily extends its covered time range; querying any t within the
    range never touches the large vectors again.
    """

    # Target phase a*dt per window; the expansion order is this plus the
    # superexponential Bessel tail.
    _WINDOW_PHASE = 50.0
    _TAIL_CUTOFF = 1e-16
    # Power steps that scale the discs.  A shift of a tenth of the largest
    # radius keeps D positive and damps the period-two swing of a bipartite
    # hopping graph; a larger one slows the steps down.
    _DISC_STEPS = 40
    _DISC_SHIFT = 0.1
    # Points of the trapezoidal rule for the Bessel integral over one
    # period.  It aliases J_k(x) with J_(k+256j)(x); below the order and at
    # x <= 50 the largest alias is J_161(50), about 3e-64.
    _BESSEL_POINTS = 256

    def __init__(
        self,
        h: scipy.sparse.csr_array,
        psi0: np.ndarray,
        diags: list[np.ndarray],
        bounds: tuple[float, float] | None = None,
    ):
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        dim = h.shape[0]
        psi0 = np.asarray(psi0, dtype=float)
        if psi0.shape != (dim,):
            raise ValueError("initial vector length does not match the Hamiltonian")
        self._roots = []
        for d in diags:
            d = np.asarray(d, dtype=float)
            if d.shape != (dim,):
                raise ValueError("observable length does not match the Hamiltonian")
            if not (np.isfinite(d).all() and (d >= 0).all()):
                raise ValueError("a tracked diagonal must be finite and nonnegative")
            self._roots.append(np.sqrt(d))
        lo, hi = bounds if bounds is not None else self._scaled_discs(h)
        center = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        # Pad so the true spectrum sits strictly inside [-1, 1] after scaling.
        half = half * (1.0 + 1e-9) + 1e-12
        self._center = center
        self._half = half
        # 2 Hs: doubling is exact, so the recurrence keeps the bits of Hs.
        self._h_twice = (h - scipy.sparse.eye_array(dim, format="csr") * center) * (2.0 / half)
        self._dt = self._WINDOW_PHASE / half
        self._order = self._pick_order(self._WINDOW_PHASE)
        ks = np.arange(self._order)
        # gamma_k (-i)^k; each product in the fold is 0, +-1, +-2 or +-4, so
        # folding rounds nothing.
        self._phases = np.where(ks == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[ks % 4]
        fold = np.outer(self._phases.conj(), self._phases)
        self._fold_re, self._fold_im = fold.real.copy(), fold.imag.copy()
        self._windows: list[_Window] = []
        self._starts: np.ndarray = np.empty(0)
        self._t_end = 0.0
        self._state_re = psi0.copy()
        self._state_im = np.zeros(dim)

    @classmethod
    def window_bytes(cls, dim: int) -> int:
        """Bytes of the (order, dim) arrays one window holds at once.

        The real and imaginary expansion vectors, which the Gram step scales
        in place; tracking more than one diagonal adds one scaled copy.
        """
        return 2 * cls._pick_order(cls._WINDOW_PHASE) * dim * 8

    @classmethod
    def _scaled_discs(cls, h: scipy.sparse.csr_array) -> tuple[float, float]:
        """Bounds on the spectrum of ``h``: the Gershgorin discs of D^-1 h D, similar to h.

        d starts at 1 (the plain discs) and takes power steps on +-diag(h) +
        |offdiag(h)| + shift, one column per edge; no step raises the largest
        ratio (M d)_i / d_i.  Only an underflow in d could, so the bound is
        also held to the plain discs.
        """
        d = h.diagonal()
        off = abs(h - scipy.sparse.diags_array(d)).tocsr()
        radius = off @ np.ones(d.shape[0])
        shift = cls._DISC_SHIFT * float(radius.max(initial=0.0)) + 1e-12
        weights = np.column_stack([d - d.min(), d.max() - d]) + shift
        v = np.ones((d.shape[0], 2))
        for _ in range(cls._DISC_STEPS):
            v = off @ v + weights * v
            v = np.maximum(v / v.max(axis=0), np.finfo(float).tiny)
        scaled = (off @ v) / v
        lo = max(np.min(d - scaled[:, 1]), np.min(d - radius))
        hi = min(np.max(d + scaled[:, 0]), np.max(d + radius))
        return float(lo), float(hi)

    @classmethod
    @functools.cache
    def _pick_order(cls, phase: float) -> int:
        ks = np.arange(int(np.ceil(phase)) + 4, int(np.ceil(phase)) + 400)
        tails = np.abs(jv(ks, phase))
        below = np.nonzero(tails < cls._TAIL_CUTOFF)[0]
        if below.size == 0:
            raise RuntimeError("could not find a converged expansion order")
        return int(ks[below[0]]) + 4

    @classmethod
    @functools.cache
    def _bessel_table(cls, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct |sin(theta)| of the rule's points, and what multiplies
        their cosines (even k) and sines (odd k) in J_k.

        With theta_j = 2 pi j / P, J_k(x) = (1/P) sum_j cos(k theta_j - x sin
        theta_j).  The points j, P/2 - j, P/2 + j and P - j share s = |sin
        theta_j|; summed together they leave 4 cos(x s) cos(k theta_j) for
        even k and 4 sin(x s) sin(k theta_j) for odd k.  At theta = 0 and
        pi/2 only two points meet.
        """
        quarter = cls._BESSEL_POINTS // 4
        theta = 0.5 * np.pi * np.arange(quarter + 1) / quarter
        weights = np.full(quarter + 1, 4.0 / cls._BESSEL_POINTS)
        weights[[0, quarter]] = 2.0 / cls._BESSEL_POINTS
        ks = np.arange(order)
        even = weights[:, None] * np.cos(np.outer(theta, ks[0::2]))
        odd = weights[:, None] * np.sin(np.outer(theta, ks[1::2]))
        return np.sin(theta), even, odd

    def _bessel(self, x: np.ndarray) -> np.ndarray:
        """J_k(x) for k < order, as (blocks, ``_PAD_COLUMNS``, order).

        x is padded with zeros to whole blocks, and each block is one
        product, so no value depends on the other x in the call.
        """
        blocks = np.zeros(-(-x.shape[0] // _PAD_COLUMNS) * _PAD_COLUMNS)
        blocks[: x.shape[0]] = x
        sines, even, odd = self._bessel_table(self._order)
        waves = blocks.reshape(-1, _PAD_COLUMNS, 1) * sines
        j = np.empty(waves.shape[:2] + (self._order,))
        j[..., 0::2] = np.cos(waves) @ even
        j[..., 1::2] = np.sin(waves) @ odd
        return j

    def _expand(self, vector: np.ndarray, q: np.ndarray) -> None:
        """Fill the rows of ``q`` with the Chebyshev vectors T_k(Hs) vector, k = 0..order-1."""
        q[0] = vector
        np.multiply(self._h_twice @ vector, 0.5, out=q[1])
        for k in range(2, self._order):
            np.subtract(self._h_twice @ q[k - 1], q[k - 2], out=q[k])

    def _advance_window(self) -> None:
        order = self._order
        # The state stays real until the first window has run; every product
        # with its zero imaginary part would be zero, so none is taken.
        real = not self._state_im.any()
        # Rows: the real part's vectors, then the imaginary part's.
        s = np.empty((order if real else 2 * order, self._state_re.shape[0]))
        self._expand(self._state_re, s[:order])
        if not real:
            self._expand(self._state_im, s[order:])
        c = self._phases * self._bessel(np.array([self._half * self._dt]))[0, 0]
        # exp(-i*center*dt) is a global phase; it cancels in every bilinear
        # form evaluated here, so the stored state simply omits it.
        if real:
            mix = np.stack([c.real, c.imag])
        else:
            mix = np.block([[c.real, -c.imag], [c.imag, c.real]])
        self._state_re, self._state_im = mix @ s
        forms = []
        scratch = None
        for i, root in enumerate(self._roots):
            # G = Q^H diag Q with Q = q_re + i q_im (rows are vectors) comes
            # from the symmetric product of the stacked rows scaled by
            # sqrt(diag): its real part is gram, its imaginary part skew.
            # The last diagonal scales the vectors themselves, every other
            # one reused copy.
            if i < len(self._roots) - 1:
                w = scratch = np.multiply(s, root, out=scratch)
            else:
                w = np.multiply(s, root, out=s)
            g = w @ w.T
            if real:
                forms.append(self._fold_re * g)
                continue
            off = g[:order, order:]
            gram = g[:order, :order] + g[order:, order:]
            forms.append(self._fold_re * gram - self._fold_im * (off - off.T))
        window = _Window(t0=self._t_end, t1=self._t_end + self._dt, forms=forms)
        self._windows.append(window)
        self._starts = np.append(self._starts, window.t0)
        self._t_end = window.t1

    def extend(self, t_target: float) -> None:
        while self._t_end < t_target or not self._windows:
            self._advance_window()

    def _value_in_window(self, window: _Window, which: int, dts: np.ndarray) -> np.ndarray:
        j = self._bessel(self._half * dts)
        y = j @ window.forms[which]
        return np.einsum("bsk,bsk->bs", j, y).reshape(-1)[: dts.shape[0]]

    def values_on_grid(self, which: int, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if not np.isfinite(ts).all():
            raise ValueError("times must be finite")
        if ts.size == 0:
            return np.empty(0)
        if np.any(ts < 0):
            raise ValueError("negative times are not covered")
        self.extend(float(ts.max()))
        out = np.empty(ts.shape[0])
        idx = np.searchsorted(self._starts, ts, side="right") - 1
        idx = np.maximum(idx, 0)
        for w in np.unique(idx):
            sel = idx == w
            window = self._windows[int(w)]
            out[sel] = self._value_in_window(window, which, ts[sel] - window.t0)
        return out

    # The evaluator protocol shared with EigenEngine: first observable only.
    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        return self.values_on_grid(0, np.asarray(ts, dtype=float))


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def state_cap() -> int:
    """Most states a run may build: a block whose Chebyshev window fills half of physical memory.

    Every builder checks its size against this before it allocates.  The
    cap allows 3 kB of physical memory per state.  Measured with
    ``tracemalloc``, a chain's walk peaks at about 1.5-1.8 kB per orbit
    (60,163 to 432,394 orbits) and the collective ladder at under 0.3 kB
    per state, so a build at the cap stays within about 60 %.
    """
    return _physical_memory() // (2 * ChebyshevEngine.window_bytes(1))
