"""Time evolution after the quench.

The workhorse is a full symmetric eigendecomposition: with H = V L V^T and
the real initial vector written as c = V^T psi0, any expectation of a
diagonal observable O at time t is

    <psi(t)| O |psi(t)>  =  sum_b O_b (x_b(t)^2 + y_b(t)^2),
    x(t) = V (c * cos(L t)),    y(t) = V (c * sin(L t)),

the real and imaginary parts of psi(t) = V (c * exp(-i L t)) up to the
sign of y.  V stays real, so a grid of times costs two real matrix
products, O(dim^2) per requested time, and is exact for every t.

The other engine, which ``battery`` picks where its run-time estimate is
the lower and for every block too large for ``eigh``, is a Chebyshev
polynomial propagator on the sparse Hamiltonian (H. Tal-Ezer and R.
Kosloff, J. Chem. Phys. 81, 3967 (1984); A. Weisse et al., Rev. Mod.
Phys. 78, 275 (2006)), scaled into [-1, 1] by the Gershgorin discs of
D^-1 H D, with a positive D from a few power steps (R. S. Varga, Gersgorin
and His Circles, 2004).  Evolution proceeds in two-sided windows: each is
expanded at a center c and answers every time c + tau with |tau| <= dt,
since the expansion sum_k gamma_k (-i)^k J_k(a tau) T_k(Hs) holds for
negative tau too.  In a window, the expansion vectors w_k = T_k(Hs)
psi(c) = x_k + i y_k are the rows [x_k | y_k] of one array S, run as one
recurrence on [x | y] with the block-diagonal matrix of two copies of
the stored 2 Hs, which sums each row as 2 Hs alone would: one sparse
product a step for both parts.  Each sparse product, of a window, a
jump or the disc bound's power steps, is one call of the kernel that
SciPy's ``csr_array @ vector`` runs, written into a row that already
exists (``_product``): on a few hundred states that product's per-call
checks cost more than its arithmetic.  2 Hs and |offdiag(H)| are built
with numpy from H's arrays, each row with the entries SciPy's
subtraction would leave, in the same order, so every product keeps its
bits.  Scaled in place by sqrt(diag), S gives
the Gram matrix G_kk' = <w_k| diag |w_k'> of each tracked diagonal
observable, Re G from one symmetric product S S^T and Im G = X Y^T -
Y X^T from one product of its halves, stored folded with the phases of
the coefficients as the real R = Re(gamma_k gamma_k' i^(k-k') G_kk').
The observable at c + tau is then the real form J^T R J with J_k =
J_k(a tau).  The first window sits at c = 0, covers [0, dt] and expands
only the real initial state, with 2 Hs itself; the next centers are
2 dt, 4 dt and so on, so reaching t takes 1 + ceil((t - dt) / (2 dt))
windows.  The state jumps 2 dt to the next center by continuing the
window's recurrence from its last two rows up to the order a phase of
2 a dt needs, in rows of the array the windows expand into, and one
product folds them into the state; the jump runs only when the next
window is asked for.  The landed state and the vectors that seed a jump lose their
entries below 1e-60 (``_FLUSH``), which would turn subnormal.  Every
J_k(x) comes from the trapezoidal rule for Bessel's integral (the
Jacobi-Anger expansion), on 256 points in a window and 512 for the jump,
folded onto the distinct values of |sin(theta)|: two fixed tables times
their cosines and sines, which also gives J_k(-x) = (-1)^k J_k(x).  No
randomness is involved anywhere, so results are bit-reproducible run to run.

A block is chiral when its diagonal is one constant and every
off-diagonal entry joins the classes C0 and C1 of states at even and odd
distance from the initial one: a resonant line, an even ring, any chain
without hopping, the ladder's rotating cut at resonance.  Centered on
that constant, 2 Hs maps each class into the other, so the state at
every center is x + i y with x on C0 and y on C1, and T_k x and T_k y
have complementary supports.  One real recurrence on w = x + y then
serves both: on C0 row k of W is x_k for even k and y_k for odd k, on C1
the other.  So a chiral window takes the general window's order - 1
products, each on dim entries rather than 2 dim; it holds one (order,
dim) array, with the states ordered by class once so that each class's
columns are contiguous, and folds its jump and gets its Gram matrix with
one product per class, G_c = W_c diag_c W_c^T: Re G = G_0 + G_1 and Im
G_kk' = (-1)^k (G_0 - G_1).  A block whose diagonal is one constant is
centered on it.  Its builder gives the classes (``QuenchBlock.odd``),
which the engine checks in one pass over 2 Hs and takes at the first
jump: the first window is the general one, real (y = 0) and of the same
cost, and ordering the states before it would change the order in which
each row of 2 Hs is summed.  Every other block takes the general path
throughout.

Both engines take the Hamiltonian block that ``build_quench_block``
builds for either model: over orbits for a chain, and as the whole
ladder cut by its conserved quantities for the collective model.  The
eigendecomposition gets it as a dense array (``QuenchBlock.dense``), the
Chebyshev engine as a sparse matrix (``QuenchBlock.h``) and its classes;
SciPy is imported by the Chebyshev engine's methods alone, so a dense
quench runs on numpy.  They take a list of observables, each a 1-D array
holding its diagonal, and answer one call, ``on_grid(ts)``: one row per
observable, its value at every requested time, each row from the same
operations as if it were tracked alone.  A single time is a grid of one.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse

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

# The power scan asks for at most this many times per call, and each
# engine's ``batch`` says how many it computes together: a request is
# rounded up to whole batches.  A time's value must not depend on the other
# times in its call, or the stopped scan would differ from the whole grid;
# matrix products round a column the same way only when its neighbours fill
# the same kernel shapes and threads.  So the dense engine cuts a long grid
# into column blocks that are a multiple of this, and its batch is the whole
# chunk; the Chebyshev engine pads each window's times to a multiple of
# ``_PAD_COLUMNS`` and contracts them that many at a time, so its batch is
# that, and the scan builds no window that no kept sample needs.
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


def _check_times(ts: np.ndarray) -> None:
    """Raise ``ValueError`` on a non-finite or negative time, in one pass when every time is valid."""
    if not (np.isfinite(ts) & (ts >= 0)).all():
        if not np.isfinite(ts).all():
            raise ValueError("times must be finite")
        raise ValueError("negative times are not covered")


class EigenEngine:
    """Diagonal-observable evaluator backed by a full spectrum; projects ``psi0`` once.

    ``diags`` lists the diagonal observables to track, each one row of
    ``on_grid``.  ``batch`` is the number of times it computes together.
    """

    batch = _SCAN_CHUNK

    def __init__(self, spectrum: Spectrum, psi0: np.ndarray, diags: list[np.ndarray]):
        dim = spectrum.eigenvalues.shape[0]
        psi0 = np.asarray(psi0, dtype=float)
        if psi0.shape != (dim,):
            raise ValueError("initial vector length does not match the spectrum")
        self._diags = [np.asarray(d, dtype=float) for d in diags]
        if any(d.shape != (dim,) for d in self._diags):
            raise ValueError("diagonal observable must hold one value per basis state")
        self._v = spectrum.eigenvectors
        self._lam = spectrum.eigenvalues
        self._c = spectrum.eigenvectors.T @ psi0

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        _check_times(ts)
        out = np.empty((len(self._diags), ts.shape[0]))
        block = _GRID_BLOCK_ENTRIES // max(1, self._lam.shape[0])
        block = max(_SCAN_CHUNK, block - block % _SCAN_CHUNK)
        c = self._c[:, None]
        for start in range(0, ts.shape[0], block):
            chunk = ts[start : start + block]
            phase = np.outer(self._lam, chunk)
            x = self._v @ (c * np.cos(phase))
            y = self._v @ (c * np.sin(phase))
            weights = x * x + y * y
            for i, diag in enumerate(self._diags):
                out[i, start : start + chunk.shape[0]] = diag @ weights
        return out


@dataclass
class _Window:
    t0: float
    center: float
    forms: list[np.ndarray]


class ChebyshevEngine:
    """Diagonal-observable evaluator driven by Chebyshev-expanded propagation.

    ``diags`` lists the diagonal observables to track, each one row of
    ``on_grid`` and one real form per window; their entries must be finite
    and nonnegative, since the Gram forms weight the vectors by their
    square roots.  A window scales its Chebyshev vectors in place for the
    last diagonal and one reused copy of them for every other, so tracking
    more than one diagonal doubles a window's memory.  Windows and jumps
    share one work array: order rows of dim while the state is real or the
    block chiral, of 2 dim ([x_k | y_k]) once a general block's state
    turns complex.  Every window takes order - 1 sparse products and every
    jump one recurrence.  ``bounds``
    holds (lo, hi) from ``_scaled_discs(h)`` when the caller has already
    computed them.  The engine lazily extends its covered time range, one
    two-sided window of [c - dt, c + dt] at a time (the first only
    [0, dt]); querying any t within the range never touches the large
    vectors again.  A block whose diagonal is one constant is centered on
    it; given ``odd``, the rows at odd distance from those ``psi0`` holds,
    it is chiral (see the module docstring), or ``ValueError`` is raised
    if they are not its classes.  The first jump then puts the states in
    class order, and every later window and jump runs one recurrence.
    ``batch`` is the number of times it computes together.
    """

    batch = _PAD_COLUMNS
    # Target phase a*dt on each side of a window, and the phase 2 a dt of a
    # jump between centers.  Each expansion order is the first k >= phase + 4
    # with |J_k(phase)| < 1e-16, plus 4.
    _WINDOW_PHASE = 50.0
    _WINDOW_ORDER = 96
    _JUMP_ORDER = 156
    # Power steps that scale the discs.  A shift of a tenth of the largest
    # radius keeps D positive and damps the period-two swing of a bipartite
    # hopping graph; a larger one slows the steps down.
    _DISC_STEPS = 40
    _DISC_SHIFT = 0.1
    # Points of the trapezoidal rule for the Bessel integral over one
    # period.  It aliases J_k(x) with J_(k+Pj)(x); below the window order
    # and at |x| <= 50 the largest alias is J_161(50), about 3e-64, and below
    # the jump order at x = 100 it is J_357(100), about 3e-155.
    _BESSEL_POINTS = 256
    _JUMP_BESSEL_POINTS = 512
    # A landed state and the tails that seed a jump lose their entries below
    # this, which would turn subnormal in later products.  A flush moves a
    # vector by at most 1e-60 sqrt(dim) < 1.4e-57 within state_cap(); a
    # part's tails reach the state through the jump's recurrence (|U_j| <=
    # j + 1, |coefficient| <= 2) at most 7,440 times larger, and unitary
    # evolution never grows it: E(t) moves by under 1e-52 max(diag) a window.
    _FLUSH = 1e-60

    def __init__(
        self,
        h: scipy.sparse.csr_array,
        psi0: np.ndarray,
        diags: list[np.ndarray],
        bounds: tuple[float, float] | None = None,
        odd: np.ndarray | None = None,
    ):
        if h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be square")
        dim = h.shape[0]
        psi0 = np.asarray(psi0, dtype=float)
        if psi0.shape != (dim,):
            raise ValueError("initial vector length does not match the Hamiltonian")
        if odd is not None and np.shape(odd) != (dim,):
            raise ValueError("classes must hold one flag per basis state")
        self._roots = []
        for d in diags:
            d = np.asarray(d, dtype=float)
            if d.shape != (dim,):
                raise ValueError("observable length does not match the Hamiltonian")
            if not (np.isfinite(d).all() and (d >= 0).all()):
                raise ValueError("a tracked diagonal must be finite and nonnegative")
            self._roots.append(np.sqrt(d))
        lo, hi = bounds if bounds is not None else self._scaled_discs(h)
        diagonal = h.diagonal()
        # A constant diagonal is the center, so that 2 Hs has a zero diagonal.
        constant = diagonal.size and (diagonal == diagonal[0]).all()
        if constant:
            center = float(diagonal[0])
            half = max(hi - center, center - lo)
        else:
            center = 0.5 * (hi + lo)
            half = 0.5 * (hi - lo)
        # Pad so the true spectrum sits strictly inside [-1, 1] after scaling.
        half = half * (1.0 + 1e-9) + 1e-12
        self._center = center
        self._half = half
        # 2 Hs: doubling is exact, so the recurrence keeps the bits of Hs.
        self._h_twice = _minus_diagonal(h, np.full(dim, center)) * (2.0 / half)
        # The classes of a chiral block, held until the first jump puts the
        # states in their order.  Every other block runs the general path:
        # its complex state takes the block-diagonal pair of 2 Hs, held here
        # until the first jump lands, and the real first window and jump
        # take the pair's first block.
        self._odd = np.asarray(odd, dtype=bool) if constant and odd is not None else None
        self._h_pair = None
        if self._odd is None:
            self._h_pair, self._h_twice = _pair(self._h_twice)
        elif psi0[self._odd].any() or (
            np.repeat(self._odd, np.diff(self._h_twice.indptr)) == self._odd[self._h_twice.indices]
        ).any():
            # psi0 lies on C0, and every entry of 2 Hs, whose constant
            # diagonal the centering dropped, joins C0 and C1.
            raise ValueError("the classes do not make the block chiral about the initial vector")
        self._dt = self._WINDOW_PHASE / half
        ks = np.arange(self._JUMP_ORDER)
        # gamma_k (-i)^k; each product in the fold is 0, +-1, +-2 or +-4, so
        # folding rounds nothing.
        phases = np.where(ks == 0, 1.0, 2.0) * np.array([1, -1j, -1, 1j])[ks % 4]
        fold = np.outer(phases[: self._WINDOW_ORDER].conj(), phases[: self._WINDOW_ORDER])
        self._fold_re, self._fold_im = fold.real.copy(), fold.imag.copy()
        x = np.array([2.0 * half * self._dt])
        self._jump = phases * self._bessel(x, self._JUMP_ORDER, self._JUMP_BESSEL_POINTS)[0, 0]
        # The jump's coefficients as two rows, Re and Im: first for the
        # window's orders, then for the jump's own.
        self._coefs = tuple(
            np.stack([c.real, c.imag]) for c in np.split(self._jump, [self._WINDOW_ORDER])
        )
        # The columns of each class, C0 first, once a chiral block has
        # taken its classes; else None.
        self._classes: tuple[slice, slice] | None = None
        self._windows: list[_Window] = []
        self._starts: np.ndarray = np.empty(0)
        self._t_end = 0.0
        # The real and imaginary parts as rows, which read as one vector
        # [x | y]; on a chiral block, once it has taken its classes, the one
        # row x + y, whose parts sit on C0 and C1.
        self._state = np.stack([psi0, np.zeros(dim)])
        # The last two window vectors while a jump is pending; the state then
        # holds the jump's sum over the window's vectors.
        self._tails: list[np.ndarray] = []
        self._work = np.empty(0)

    @classmethod
    def window_bytes(cls, dim: int) -> int:
        """Bytes of the (order, dim) arrays one window holds at once.

        The real and imaginary expansion vectors, the rows [x_k | y_k] of
        the engine's one work array, which the Gram step scales in place;
        tracking more than one diagonal adds one scaled copy.  The jump to
        the next center reuses those rows, beside the two rows that seed
        it.  The sparse matrix, the block-diagonal pair of 2 Hs on a
        general block, is the engine's own and not counted.  A chiral
        block holds half of this, the one recurrence on x + y; the count
        stays the general one, which bounds both, so ``state_cap()`` does
        not depend on the block.
        """
        return 2 * cls._WINDOW_ORDER * dim * 8

    @classmethod
    def _scaled_discs(cls, h: scipy.sparse.csr_array) -> tuple[float, float]:
        """Bounds on the spectrum of ``h``: the Gershgorin discs of D^-1 h D, similar to h.

        d starts at 1 (the plain discs) and takes power steps on +-diag(h) +
        |offdiag(h)| + shift, one row of d per edge: a step takes one
        sparse product per row, then scales both rows in one elementwise
        pass.  No step raises the largest ratio (M d)_i / d_i.  Only an
        underflow in d could, so the bound is also held to the plain discs.
        With a constant diagonal the two weights are equal, and so are their
        steps, so one row serves both.
        """
        d = h.diagonal()
        off = abs(_minus_diagonal(h, d))
        radius = _product(off, np.ones(d.shape[0]), np.empty(d.shape[0]))
        shift = cls._DISC_SHIFT * float(radius.max(initial=0.0)) + 1e-12
        weights = np.stack([d - d.min(), d.max() - d]) + shift
        if (weights[0] == weights[1]).all():
            weights = weights[:1]
        v = np.ones(weights.shape)
        step = np.empty(weights.shape)
        for _ in range(cls._DISC_STEPS):
            for row, out in zip(v, step):
                _product(off, row, out)
            step += weights * v
            step /= step.max(axis=1, keepdims=True)
            np.maximum(step, np.finfo(float).tiny, out=v)
        for row, out in zip(v, step):
            _product(off, row, out)
        scaled = step / v
        lo = max(np.min(d - scaled[-1]), np.min(d - radius))
        hi = min(np.max(d + scaled[0]), np.max(d + radius))
        return float(lo), float(hi)

    @classmethod
    @functools.cache
    def _bessel_table(cls, order: int, points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The distinct |sin(theta)| of the rule's points, and what multiplies
        their cosines (even k) and sines (odd k) in J_k.

        With theta_j = 2 pi j / P, J_k(x) = (1/P) sum_j cos(k theta_j - x sin
        theta_j).  The points j, P/2 - j, P/2 + j and P - j share s = |sin
        theta_j|; summed together they leave 4 cos(x s) cos(k theta_j) for
        even k and 4 sin(x s) sin(k theta_j) for odd k.  At theta = 0 and
        pi/2 only two points meet.
        """
        quarter = points // 4
        theta = 0.5 * np.pi * np.arange(quarter + 1) / quarter
        weights = np.full(quarter + 1, 4.0 / points)
        weights[[0, quarter]] = 2.0 / points
        ks = np.arange(order)
        even = weights[:, None] * np.cos(np.outer(theta, ks[0::2]))
        odd = weights[:, None] * np.sin(np.outer(theta, ks[1::2]))
        return np.sin(theta), even, odd

    @classmethod
    def _bessel(
        cls, x: np.ndarray, order: int = _WINDOW_ORDER, points: int = _BESSEL_POINTS
    ) -> np.ndarray:
        """J_k(x) for k < order, as (blocks, ``_PAD_COLUMNS``, order).

        x is padded with zeros to whole blocks, and each block is one
        product, so no value depends on the other x in the call.
        """
        blocks = np.zeros(-(-x.shape[0] // _PAD_COLUMNS) * _PAD_COLUMNS)
        blocks[: x.shape[0]] = x
        sines, even, odd = cls._bessel_table(order, points)
        waves = blocks.reshape(-1, _PAD_COLUMNS, 1) * sines
        j = np.empty(waves.shape[:2] + (order,))
        j[..., 0::2] = np.cos(waves) @ even
        j[..., 1::2] = np.sin(waves) @ odd
        return j

    def _expand(self, vector: np.ndarray, q: np.ndarray) -> None:
        """Fill the rows of ``q`` with the Chebyshev vectors T_k(Hs) vector, k = 0..order-1."""
        q[0] = vector
        _product(self._h_twice, vector, q[1])
        q[1] *= 0.5
        for k in range(2, self._WINDOW_ORDER):
            _product(self._h_twice, q[k - 1], q[k])
            q[k] -= q[k - 2]

    def _work_rows(self, rows: int, width: int) -> np.ndarray:
        """``rows`` rows of ``width`` on the work array, replaced by a larger one once it is freed."""
        if self._work.size < rows * width:
            self._work = None
            self._work = np.empty(rows * width)
        return self._work[: rows * width].reshape(rows, width)

    def _fold(self, coefs: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """sum_k c_k (x_k + i y_k) as its real and imaginary parts, from rows [x_k | y_k].

        ``coefs`` holds Re c_k and Im c_k as its two rows, and one product
        takes both against every row; rows of x_k alone (a real state) give
        the two parts directly.
        """
        sums = coefs @ rows
        if rows.shape[1] == self._state.shape[1]:
            return sums
        (re_x, re_y), (im_x, im_y) = sums.reshape(2, 2, -1)
        return np.stack([re_x - im_y, im_x + re_y])

    def _land(self) -> None:
        """Finish the pending jump: the recurrence runs on from the window's
        last two vectors to the jump order, in the work array's rows, and
        one product folds them into the state, which is then flushed.

        The rows are [x_k | y_k] on a general block, x_k alone after the real
        first window, and x + y on a chiral block, where each class adds to
        the part it holds, one product per class.
        """
        order, steps = self._WINDOW_ORDER, self._JUMP_ORDER - self._WINDOW_ORDER
        prev, last = self._tails
        rows = self._work_rows(steps, last.shape[0])
        for row in rows:
            _product(self._h_twice, last, row)
            prev, last = last, np.subtract(row, prev, out=row)
        if self._classes is not None:
            for rho, cols in zip(self._rho, self._classes):
                self._state[0, cols] += rho[order:] @ rows[:, cols]
        else:
            self._state += self._fold(self._coefs[1], rows)
        self._state[np.abs(self._state) < self._FLUSH] = 0.0
        self._tails = []

    def _take_classes(self) -> None:
        """At the first jump, move a chiral block to class order and one recurrence on x + y.

        Until then the block runs the general path, whose first window is
        real anyway; putting the states in class order before it would
        change the order in which each row of 2 Hs is summed.  Every sum
        that made the state added exact zeros off each part's class, so
        x + y holds both parts exactly.
        """
        order = np.argsort(self._odd, kind="stable")
        split = order.shape[0] - np.count_nonzero(self._odd)
        self._odd = None
        self._h_twice = self._h_twice[order][:, order]
        self._roots = [root[order] for root in self._roots]
        self._state = np.add(*self._state)[order][None]
        self._classes = (slice(0, split), slice(split, order.shape[0]))
        # The coefficient of T_k w on each class in the jump (Re jump_k for
        # even k; -Im jump_k on C0 and +Im jump_k on C1 for odd k), and the
        # fold of each class's Gram matrix: Re G = G0 + G1 and Im G_kk' =
        # (-1)^k (G0 - G1), each where its fold is nonzero.
        re, im = self._jump.real, self._jump.imag
        self._rho = np.stack([re - im, re + im])
        sign = np.where(np.arange(self._WINDOW_ORDER)[:, None] % 2, -1.0, 1.0)
        self._fold_classes = (
            self._fold_re - sign * self._fold_im,
            self._fold_re + sign * self._fold_im,
        )

    def _advance_window(self) -> None:
        order, dim = self._WINDOW_ORDER, self._state.shape[1]
        if self._tails:
            self._land()
            if self._odd is not None:
                self._take_classes()
        # The state stays real until the first jump; every product with its
        # zero imaginary part would be zero, so none is taken.  From then on
        # a general block expands the one vector [x | y] with the
        # block-diagonal 2 Hs, built once: one product a step for both parts.
        if not self._windows:
            vector = self._state[0]
        else:
            vector = self._state.reshape(-1)
            if self._h_pair is not None:
                self._h_twice, self._h_pair = self._h_pair, None
        s = self._work_rows(order, vector.shape[0])
        self._expand(vector, s)
        # The jump to the next center starts as the sum over these vectors.
        # The spectrum's midpoint E adds the global phase exp(-i*E*2dt); it
        # cancels in every bilinear form evaluated here, so the stored state
        # simply omits it.
        if self._classes is not None:
            self._state = np.empty((1, dim))
            for rho, cols in zip(self._rho, self._classes):
                np.matmul(rho[:order], s[:, cols], out=self._state[0, cols])
        else:
            self._state = self._fold(self._coefs[0], s)
        self._tails = list(np.where(np.abs(s[-2:]) < self._FLUSH, 0.0, s[-2:]))
        parts = s.reshape(order, -1, dim)
        forms = []
        scratch = None
        for i, root in enumerate(self._roots):
            # G = Q^H diag Q with Q = X + i Y (rows are vectors): Re G = X X^T
            # + Y Y^T and Im G = X Y^T - Y X^T, each part scaled by
            # sqrt(diag).  The last diagonal scales the vectors themselves,
            # every other one reused copy.
            if i < len(self._roots) - 1:
                w = scratch = np.multiply(parts, root, out=scratch)
            else:
                w = np.multiply(parts, root, out=parts)
            w = w.reshape(order, -1)
            if self._classes is not None:
                # One symmetric product over each class's columns.
                g0, g1 = (w[:, cols] @ w[:, cols].T for cols in self._classes)
                g0 *= self._fold_classes[0]
                g1 *= self._fold_classes[1]
                forms.append(np.add(g0, g1, out=g0))
                continue
            # Re G over both parts' columns in one symmetric product.
            g = w @ w.T
            g *= self._fold_re
            if parts.shape[1] == 2:
                a = w[:, :dim] @ w[:, dim:].T
                skew = a - a.T
                skew *= self._fold_im
                g -= skew
            forms.append(g)
        center = self._windows[-1].center + 2.0 * self._dt if self._windows else 0.0
        window = _Window(t0=self._t_end, center=center, forms=forms)
        self._windows.append(window)
        self._starts = np.append(self._starts, window.t0)
        self._t_end = center + self._dt

    def extend(self, t_target: float) -> None:
        while self._t_end < t_target or not self._windows:
            self._advance_window()

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        _check_times(ts)
        out = np.empty((len(self._roots), ts.shape[0]))
        if ts.size == 0:
            return out
        self.extend(float(ts.max()))
        idx = np.searchsorted(self._starts, ts, side="right") - 1
        idx = np.maximum(idx, 0)
        for w in np.unique(idx):
            sel = idx == w
            window = self._windows[int(w)]
            taus = ts[sel] - window.center
            # One Bessel evaluation serves every form of the window.
            j = self._bessel(self._half * taus)
            for i, form in enumerate(window.forms):
                out[i, sel] = np.einsum("bsk,bsk->bs", j, j @ form).reshape(-1)[: taus.shape[0]]
        return out


@functools.cache
def _csr_matvec():
    from scipy.sparse._sparsetools import csr_matvec

    return csr_matvec


def _product(h: scipy.sparse.csr_array, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``h @ x`` written into ``out``, a C-contiguous row of dim floats that is not ``x``.

    One call of the kernel that SciPy's own product runs, on a zeroed
    output, so each row sums the same terms in the same order, to the bit;
    it skips that product's per-call checks and dispatch, most of a call's
    cost on blocks of a few hundred states.
    """
    out.fill(0.0)
    _csr_matvec()(h.shape[0], h.shape[1], h.indptr, h.indices, h.data, x, out)
    return out


def _minus_diagonal(h: scipy.sparse.csr_array, shift: np.ndarray) -> scipy.sparse.csr_array:
    """h - diag(shift) as SciPy's sparse subtraction leaves it, built from h's arrays.

    Each row keeps its columns in ascending order, gains a diagonal entry
    where h stores none and the shift is nonzero, and loses every entry
    that comes out 0, so a product sums each row's terms as it would on
    SciPy's result.  A matrix with unsorted or repeated columns is summed
    into that form first.
    """
    import scipy.sparse

    if not h.has_canonical_format:
        h = h.copy()
        h.sum_duplicates()
    dim, nnz = h.shape[0], h.indptr[-1]
    indptr, indices, data = h.indptr, h.indices[:nnz], h.data[:nnz]
    rows = np.repeat(np.arange(dim, dtype=indices.dtype), np.diff(indptr))
    lack = shift != 0
    lack[indices[indices == rows]] = False
    if lack.any():
        # A missing diagonal goes after the row's columns below it.
        below = np.concatenate([[0], np.cumsum(indices < rows)])
        gap = np.flatnonzero(lack)
        at = indptr[gap] + below[indptr[gap + 1]] - below[indptr[gap]]
        rows, indices = np.insert(rows, at, gap), np.insert(indices, at, gap)
        data = np.insert(data, at, 0.0)
    data = data - np.where(indices == rows, shift[rows], 0.0)
    keep = data != 0
    indptr = np.zeros(dim + 1, dtype=indices.dtype)
    np.cumsum(np.bincount(rows[keep], minlength=dim), out=indptr[1:])
    return scipy.sparse.csr_array((data[keep], indices[keep], indptr), shape=h.shape)


def _pair(h: scipy.sparse.csr_array) -> tuple[scipy.sparse.csr_array, scipy.sparse.csr_array]:
    """The block-diagonal [[h, 0], [0, h]], and its first block as a copy of h on its arrays.

    Each row keeps the entries of h's row in their order, so a product sums
    every row as h's own product does.
    """
    import scipy.sparse

    dim, nnz = h.shape[0], h.indptr[-1]
    data = np.concatenate([h.data[:nnz], h.data[:nnz]])
    indices = np.concatenate([h.indices[:nnz], h.indices[:nnz] + dim])
    indptr = np.concatenate([h.indptr, h.indptr[1:] + nnz])
    pair = scipy.sparse.csr_array((data, indices, indptr), shape=(2 * dim, 2 * dim))
    first = scipy.sparse.csr_array((data[:nnz], indices[:nnz], indptr[: dim + 1]), shape=h.shape)
    return pair, first


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
