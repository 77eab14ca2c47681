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
polynomial propagator on the sparse Hamiltonian.  Evolution proceeds in
fixed windows; within each window the expansion vectors w_k = T_k(Hs) psi
(Hs the spectrum-rescaled Hamiltonian) are contracted once with each
tracked diagonal observable into a small Gram matrix

    G_kk' = <w_k| diag |w_k'>,

after which the observable at *any* time inside the window is a cheap
bilinear form in Bessel-function coefficients.  No randomness is involved
anywhere, so results are bit-reproducible run to run.

Both engines take the Hamiltonian from the one sparse assembly path (the
eigendecomposition gets its ``toarray()``), take observables as 1-D arrays
holding their diagonals, and answer one call, ``on_grid(ts)``: the first
observable at every requested time.  A single time is a grid of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse
from scipy.special import jv

__all__ = [
    "Spectrum",
    "diagonalize",
    "EigenEngine",
    "ChebyshevEngine",
]

# Cap on the entries of each real (dim, times) scratch array used when
# evaluating a dense-path expectation on a long time grid; about six such
# arrays are alive at once, so a block takes at most about 100 MB.
_GRID_BLOCK_ENTRIES = 2_000_000

# The power scan asks for this many times per call.  A time's value must
# not depend on the other times in its call, or the stopped scan would
# differ from the whole grid; matrix products round a column the same way
# only when its neighbours fill the same kernel shapes.  So the dense engine
# cuts a long grid into column blocks that are a multiple of this, and the
# Chebyshev engine pads each window's times to a multiple of
# ``_PAD_COLUMNS``.
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
    grams: list[np.ndarray]


class ChebyshevEngine:
    """Diagonal-observable evaluator driven by Chebyshev-expanded propagation.

    ``diags`` lists the diagonal observables to track (each becomes one Gram
    matrix per window).  The engine lazily extends its covered time range;
    querying any t within the range never touches the large vectors again.
    """

    # Target phase a*dt per window; the expansion order is this plus the
    # superexponential Bessel tail.
    _WINDOW_PHASE = 50.0
    _TAIL_CUTOFF = 1e-16

    def __init__(self, h: scipy.sparse.csr_array, psi0: np.ndarray, diags: list[np.ndarray]):
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        dim = h.shape[0]
        psi0 = np.asarray(psi0, dtype=float)
        if psi0.shape != (dim,):
            raise ValueError("initial vector length does not match the Hamiltonian")
        self._diags = [np.asarray(d, dtype=float) for d in diags]
        for d in self._diags:
            if d.shape != (dim,):
                raise ValueError("observable length does not match the Hamiltonian")
        lo, hi = self._gershgorin(h)
        center = 0.5 * (hi + lo)
        half = 0.5 * (hi - lo)
        # Pad so the true spectrum sits strictly inside [-1, 1] after scaling.
        half = half * (1.0 + 1e-9) + 1e-12
        self._center = center
        self._half = half
        self._h_scaled = (h - scipy.sparse.eye_array(dim, format="csr") * center) * (1.0 / half)
        self._dt = self._WINDOW_PHASE / half
        self._order = self._pick_order(self._WINDOW_PHASE)
        self._windows: list[_Window] = []
        self._starts: np.ndarray = np.empty(0)
        self._t_end = 0.0
        self._state_re = psi0.copy()
        self._state_im = np.zeros(dim)

    @classmethod
    def window_bytes(cls, dim: int) -> int:
        """Bytes of the real and imaginary expansion vectors one window holds."""
        return 2 * cls._pick_order(cls._WINDOW_PHASE) * dim * 8

    @staticmethod
    def _gershgorin(h: scipy.sparse.csr_array) -> tuple[float, float]:
        d = h.diagonal()
        radius = np.abs(h).sum(axis=1) - np.abs(d)
        return float(np.min(d - radius)), float(np.max(d + radius))

    @classmethod
    def _pick_order(cls, phase: float) -> int:
        ks = np.arange(int(np.ceil(phase)) + 4, int(np.ceil(phase)) + 400)
        tails = np.abs(jv(ks, phase))
        below = np.nonzero(tails < cls._TAIL_CUTOFF)[0]
        if below.size == 0:
            raise RuntimeError("could not find a converged expansion order")
        return int(ks[below[0]]) + 4

    def _coeffs(self, dts: np.ndarray) -> np.ndarray:
        """Expansion coefficients gamma_k (-i)^k J_k(a*dt), shape (order, len(dts))."""
        ks = np.arange(self._order)
        c = jv(ks[:, None], self._half * np.asarray(dts)[None, :]).astype(complex)
        c[1:] *= 2.0
        c *= (-1j) ** ks[:, None]
        return c

    def _expand(self, vector: np.ndarray) -> np.ndarray:
        """The Chebyshev vectors T_k(Hs) vector, k = 0..order-1, one per row."""
        q = np.empty((self._order, vector.shape[0]))
        q[0] = vector
        q[1] = self._h_scaled @ vector
        for k in range(2, self._order):
            q[k] = 2.0 * (self._h_scaled @ q[k - 1]) - q[k - 2]
        return q

    def _advance_window(self) -> None:
        q_re = self._expand(self._state_re)
        # The state stays real until the first window has run; every product
        # with its zero imaginary part would be zero, so none is taken.
        q_im = self._expand(self._state_im) if self._state_im.any() else None
        grams = []
        for diag in self._diags:
            wr = q_re * diag[None, :]
            g_rr = wr @ q_re.T
            if q_im is None:
                grams.append(g_rr.astype(complex))
                continue
            g_ri = wr @ q_im.T
            wi = q_im * diag[None, :]
            g_ii = wi @ q_im.T
            # G = Q^H diag Q with Q = q_re + i q_im (rows are vectors).
            grams.append((g_rr + g_ii) + 1j * (g_ri - g_ri.T))
        window = _Window(t0=self._t_end, t1=self._t_end + self._dt, grams=grams)
        c = self._coeffs(np.array([self._dt]))[:, 0]
        # exp(-i*center*dt) is a global phase; it cancels in every bilinear
        # form evaluated here, so the stored state simply omits it.
        if q_im is None:
            re, im = c.real @ q_re, c.imag @ q_re
        else:
            re = c.real @ q_re - c.imag @ q_im
            im = c.real @ q_im + c.imag @ q_re
        self._state_re, self._state_im = re, im
        self._windows.append(window)
        self._starts = np.append(self._starts, window.t0)
        self._t_end = window.t1

    def extend(self, t_target: float) -> None:
        while self._t_end < t_target or not self._windows:
            self._advance_window()

    def _value_in_window(self, window: _Window, which: int, dts: np.ndarray) -> np.ndarray:
        n = dts.shape[0]
        padded = np.zeros(-(-n // _PAD_COLUMNS) * _PAD_COLUMNS)
        padded[:n] = dts
        c = self._coeffs(padded)
        g = window.grams[which]
        return np.einsum("ks,ks->s", c.conj(), g @ c).real[:n]

    def values_on_grid(self, which: int, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
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
