"""Full-basis references that the tests hold the package against.

None of them builds the way the package does:

* ``chain_sector`` enumerates a chain's excitation sector by brute force,
  over every photon and two-level digit;
* ``dicke_ladder`` lists the collective ladder state by state, with a
  dict from state to row;
* ``reference_dense`` builds H element by element on either, with a dict
  from state to row;
* ``operator_chain`` builds the chain's H from ladder operators on the
  product space of every cavity and its two-level system;
* ``scaled_discs_by_columns`` takes the disc bound's power steps on one
  (dim, 2) array, both edges in each sparse product;
* ``bipartite_classes`` finds the two classes that a block's couplings
  join by SciPy's breadth-first graph search;
* ``X_STAR`` and ``C1`` are the closed-form quotient maximum of
  E = sin^2(x): its argument, the root of tan(x) = 2x, and its value,
  max sin^2(x) / x;
* ``Y_STAR`` and ``C2`` are the same for E = (1 - J0(y)) / 2: its
  argument, the root of y J1(y) = 1 - J0(y), and twice its value,
  2 max (1 - J0(y)) / y.
* ``driven_limit`` is the crossover between them, G(b): one two-level
  system driven by a classical field, averaged over the field's phase.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse.csgraph import shortest_path
from scipy.special import j0, j1

from qbattery.hamiltonians import Model, Normalization, Topology, _key_base, _pack_keys, build_csr


def tan_2x_root():
    """Root of tan(x) = 2x on (pi/4, pi/2), by bisection; fixes the quotient argmax."""
    lo, hi = math.pi / 4.0 + 1e-12, math.pi / 2.0 - 1e-12
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.tan(mid) - 2.0 * mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


X_STAR = tan_2x_root()
# max_x sin^2(x) / x: the quotient maximum p_max = N beta sqrt(m) C1 of N
# systems in the rotating-wave limit, each with E = sin^2(beta sqrt(m) t).
C1 = math.sin(X_STAR) ** 2 / X_STAR

# Deep strong coupling freezes the field quadrature, and a Fock state's
# quadrature is arcsine-distributed at large m, so each of N systems
# stores (1 - J0(4 beta sqrt(m) t)) / 2: p_max -> N beta sqrt(m) C2, at
# tau beta sqrt(m) = Y_STAR / 4.
Y_STAR = brentq(lambda y: y * j1(y) - (1.0 - j0(y)), 2.0, 3.5, xtol=1e-15)
C2 = 2.0 * (1.0 - j0(Y_STAR)) / Y_STAR


def driven_limit(b, phases=64, dt=1e-3):
    """G(b) and b tau: the large-m limit p_max -> N beta sqrt(m) G(beta sqrt(m)) at w_c = w_a = 1.

    N*m photons drive each two-level system like the classical field
    2 b cos(t + phi) sigma_x, with b = beta sqrt(m) and the phase phi of a
    Fock state, uniform.  G(b) = max_t <P_e(t)> / (b t), with the excited
    population averaged over phi on a midpoint rule (exact for a smooth
    periodic integrand well before 64 points).  Each step of dt is the
    exact 2x2 exponential of H at the step's midpoint, and a parabola
    through the best sample and its neighbours refines the maximum.
    G tends to C1 as b -> 0 and to C2 as b -> infinity.
    """
    phi = 2.0 * math.pi * (np.arange(phases) + 0.5) / phases
    steps = math.ceil(2.0 / (b * dt))  # b t up to 2, past both limits' argmax
    ground = np.ones(phases, dtype=complex)
    excited = np.zeros(phases, dtype=complex)
    quotient = np.zeros(steps + 1)
    for k in range(steps):
        # H = [[0, v], [v, 1]] = I/2 + v sigma_x - sigma_z/2, up to the phase of I/2.
        v = 2.0 * b * np.cos((k + 0.5) * dt + phi)
        r = np.sqrt(v * v + 0.25)
        c, s = np.cos(r * dt), -1j * np.sin(r * dt) / r
        ground, excited = (
            c * ground + s * (v * excited - 0.5 * ground),
            c * excited + s * (v * ground + 0.5 * excited),
        )
        quotient[k + 1] = np.mean(np.abs(excited) ** 2) / (b * dt * (k + 1))
    k = int(np.argmax(quotient))
    lo, mid, hi = quotient[k - 1 : k + 2]
    shift = 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)
    return float(mid - 0.25 * (lo - hi) * shift), b * dt * (k + shift)


def bonds(params):
    """The cavity pairs that photons hop between; a two-cavity ring lists its pair twice."""
    n = params.n
    return {
        Topology.LINE: [(c, c + 1) for c in range(n - 1)],
        Topology.RING: [(c, (c + 1) % n) for c in range(n)] if n > 1 else [],
        Topology.ALL_TO_ALL: [(i, j) for i in range(n) for j in range(i + 1, n)],
    }[params.topology]


@dataclass(frozen=True)
class Sector:
    """A chain's excitation sector, one state per row, in the order of the package's state keys."""

    photons: np.ndarray
    spins: np.ndarray
    keys: np.ndarray
    base: int

    @property
    def dim(self):
        return self.keys.shape[0]

    def rank(self, photons, spins):
        """Row of each state; ``KeyError`` for a state outside the sector."""
        keys = _pack_keys(np.asarray(photons), np.asarray(spins), self.base)
        rows = np.minimum(np.searchsorted(self.keys, keys), self.dim - 1)
        if not np.array_equal(self.keys[rows], keys):
            raise KeyError("state is not in the sector")
        return rows


def chain_sector(n, m):
    """Every state of N cavities holding N*m photons and excited two-level systems in all."""
    total = n * m
    digits = np.indices((total + 1,) * n + (2,) * n).reshape(2 * n, -1).T
    digits = digits[digits.sum(axis=1) == total]
    base = _key_base(n, n * m)
    keys = _pack_keys(digits[:, :n], digits[:, n:], base)
    order = np.argsort(keys)
    return Sector(digits[order, :n], digits[order, n:], keys[order], base)


@dataclass(frozen=True)
class Ladder:
    """The collective ladder, one state per row: n photons and q systems in the ground state."""

    n: np.ndarray
    q: np.ndarray
    rows: dict

    @property
    def dim(self):
        return self.n.shape[0]

    def rank(self, n, q):
        """Row of each state ``(n, q)``; ``KeyError`` off the ladder."""
        pairs = zip(np.ravel(n).tolist(), np.ravel(q).tolist())
        return np.array([self.rows[pair] for pair in pairs]).reshape(np.shape(n))


def dicke_ladder(params):
    """Every state up to the photon cutoff, in (n, q) order."""
    states = [(n, q) for n in range(params.n_max_value + 1) for q in range(params.n + 1)]
    n, q = np.array(states).T
    return Ladder(n, q, {state: row for row, state in enumerate(states)})


def reference_dense(params, basis):
    """Element-by-element loop over the states, with a dict from state to row.

    ``basis`` is a ``Sector`` for a chain and a ``Ladder`` for the
    collective model.  On the ladder the arithmetic is that of ``build_csr``,
    so the two must agree bit for bit.
    """
    h = np.zeros((basis.dim, basis.dim))
    if params.model is Model.JCH:
        rows = zip(basis.photons.tolist(), basis.spins.tolist())
        states = [(tuple(p), tuple(s)) for p, s in rows]
        index_of = {st: i for i, st in enumerate(states)}
        for i, (photons, spins) in enumerate(states):
            h[i, i] += params.omega_c * sum(photons) + params.omega_a * sum(spins)
            for c, (p, s) in enumerate(zip(photons, spins)):
                if params.beta != 0.0 and p > 0 and s == 0:
                    target = (
                        photons[:c] + (p - 1,) + photons[c + 1 :],
                        spins[:c] + (1,) + spins[c + 1 :],
                    )
                    j = index_of[target]
                    h[min(i, j), max(i, j)] += params.beta * math.sqrt(p)
            for src, dst in bonds(params):
                p = photons[src]
                if params.kappa != 0.0 and p > 0:
                    moved = list(photons)
                    moved[src] -= 1
                    moved[dst] += 1
                    j = index_of[(tuple(moved), spins)]
                    value = -params.kappa * math.sqrt(p) * math.sqrt(photons[dst] + 1)
                    h[min(i, j), max(i, j)] += value
    else:
        nsys = params.n
        scale = 1.0 / math.sqrt(nsys) if params.normalization is Normalization.SQRT_N else 1.0
        g_rot = params.beta * scale
        g_cnt = params.beta_prime_value * scale
        j = nsys / 2.0
        jj = j * (j + 1.0)
        for i, (n, q) in enumerate(zip(basis.n.tolist(), basis.q.tolist())):
            mj = j - q
            h[i, i] = params.omega_c * n + params.omega_a * (nsys - q)
            if n > 0 and g_rot != 0.0 and q >= 1:
                h[basis.rows[n - 1, q - 1], i] += g_rot * math.sqrt(n * (jj - mj * (mj + 1.0)))
            if n > 0 and g_cnt != 0.0 and q <= nsys - 1:
                h[basis.rows[n - 1, q + 1], i] += g_cnt * math.sqrt(n * (jj - mj * (mj - 1.0)))
    lower = np.tril_indices(basis.dim, -1)
    h[lower] = h.T[lower]
    return h


def operator_chain(params, cut):
    """Chain H on the product space of every cavity, with 0..cut photons each, and its excitations.

    Returns the sparse H and the excitation number of each product state.
    A cavity's site index is 2 * photons + spin, and cavity 0 is the most
    significant digit of the flat index (``flat_index``).
    """
    n = params.n
    site_dim = 2 * (cut + 1)
    lower_photon = sp.csr_array(np.diag(np.sqrt(np.arange(1.0, cut + 1)), 1))
    lower_spin = sp.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))  # basis (g, e)

    def embed(site_op, c):
        op = sp.kron(site_op, sp.eye_array(site_dim ** (n - 1 - c)))
        return sp.csr_array(sp.kron(sp.eye_array(site_dim**c), op))

    a = [embed(sp.kron(lower_photon, sp.eye_array(2)), c) for c in range(n)]
    s = [embed(sp.kron(sp.eye_array(cut + 1), lower_spin), c) for c in range(n)]
    h = sp.csr_array((site_dim**n, site_dim**n))
    for a_c, s_c in zip(a, s):
        h = h + params.omega_c * (a_c.T @ a_c) + params.omega_a * (s_c.T @ s_c)
        h = h + params.beta * (a_c @ s_c.T + a_c.T @ s_c)
    for i, j in bonds(params):
        h = h - params.kappa * (a[j].T @ a[i] + a[i].T @ a[j])
    digits = np.indices((site_dim,) * n).reshape(n, -1)
    return sp.csr_array(h), (digits // 2 + digits % 2).sum(axis=0)


def flat_index(sector, cut):
    """Row of each sector state in the product space of ``operator_chain``."""
    site_dim = 2 * (cut + 1)
    places = site_dim ** np.arange(sector.photons.shape[1] - 1, -1, -1)
    return (2 * sector.photons + sector.spins) @ places


def full_quench(params):
    """``(h, jz, psi0)`` on the whole basis: sparse H, stored-energy diagonal and quench state.

    A chain takes its brute-force sector and H from ``reference_dense``; the
    collective model takes its own ladder and the package's whole-ladder
    ``build_csr``, which ``reference_dense`` pins bit for bit.
    """
    if params.model is Model.JCH:
        sector = chain_sector(params.n, params.m)
        h = sp.csr_array(reference_dense(params, sector))
        jz = params.omega_a * sector.spins.sum(axis=1)
        start = sector.rank([params.m] * params.n, [0] * params.n)
    else:
        ladder = dicke_ladder(params)
        h = build_csr(params)
        jz = params.omega_a * (params.n - ladder.q)
        start = ladder.rank(params.n * params.m, params.n)
    psi0 = np.zeros(h.shape[0])
    psi0[start] = 1.0
    return h, jz, psi0


def scaled_discs_by_columns(h, steps, shift):
    """(lo, hi) of the Gershgorin discs of D^-1 h D, with one column of D per edge.

    The power steps of ``ChebyshevEngine._scaled_discs`` on a (dim, 2)
    array: the same arithmetic on every entry, so the two must agree bit for
    bit.
    """
    d = h.diagonal()
    off = abs(h - sp.diags_array(d)).tocsr()
    radius = off @ np.ones(d.shape[0])
    shift = shift * float(radius.max(initial=0.0)) + 1e-12
    weights = np.column_stack([d - d.min(), d.max() - d]) + shift
    v = np.ones((d.shape[0], 2))
    for _ in range(steps):
        v = off @ v + weights * v
        v = np.maximum(v / v.max(axis=0), np.finfo(float).tiny)
    scaled = (off @ v) / v
    lo = max(np.min(d - scaled[:, 1]), np.min(d - radius))
    hi = min(np.max(d + scaled[:, 0]), np.max(d + radius))
    return float(lo), float(hi)


def bipartite_classes(h, start):
    """The rows at odd distance from ``start`` in the graph of ``h``'s nonzeros off the diagonal.

    Distances come from SciPy's unweighted shortest paths.  ``None`` unless
    ``start`` reaches every row and each edge joins a row at even distance
    to one at odd distance.
    """
    coo = sp.coo_array(h)
    edge = (coo.row != coo.col) & (coo.data != 0)
    graph = sp.csr_array((np.ones(np.count_nonzero(edge)), (coo.row[edge], coo.col[edge])), shape=h.shape)
    dist = shortest_path(graph, directed=False, unweighted=True, indices=start)
    if not np.isfinite(dist).all():
        return None
    odd = dist.astype(np.int64) % 2 == 1
    if (odd[coo.row[edge]] == odd[coo.col[edge]]).any():
        return None
    return odd
