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
  (dim, 2) array, both edges in each sparse product.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from qbattery.hamiltonians import Model, Normalization, Topology, _key_base, _pack_keys, build_csr


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
    base = _key_base(n, m)
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
        if params.literal_elements:
            g_rot *= params.omega_c
            g_cnt *= params.omega_c
        j = nsys / 2.0
        jj = j * (j + 1.0)
        for i, (n, q) in enumerate(zip(basis.n.tolist(), basis.q.tolist())):
            mj = j - q
            if params.literal_elements:
                h[i, i] = params.omega_c * (n + mj)
            else:
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
