"""Independent checks of qbattery's outputs, written against numpy and scipy only.

Nothing here imports qbattery.  The models are rebuilt from their
definitions (with both mode frequencies equal to 1):

* JCH, kappa = 0: every cavity is an independent Rabi oscillator, so
  E(t) = N sin^2(beta sqrt(m) t) and p_max = N beta sqrt(m) sin^2(x*)/x*
  at tau = x*/(beta sqrt(m)), where tan x* = 2 x*.
* JCH, kappa > 0: the excitation sector is enumerated with numpy, H is
  assembled as a sparse matrix and E(t) comes from
  ``scipy.sparse.linalg.expm_multiply``, called once per time.  (Its
  start/stop interval mode with start != 0 returned state norms near 2
  on a 146-state chain under scipy 1.17, so it is not used.)
* Dicke: H = a+a (x) 1 + 1 (x) (Jz + j) + (beta/sqrt N)(a + a+) (x) (J+ + J-)
  on the truncated photon ladder, built from Kronecker products and
  propagated the same way.

Each reported p_max must equal E(tau)/tau of the independent model to
``RTOL`` and must beat the times tau(1 - 1e-3) and tau(1 + 1e-3).
"""

from __future__ import annotations

import csv
import math
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse.linalg import expm_multiply

# Relative agreement required between a reported p_max and the independent
# E(tau)/tau; well below the 1e-6 perturbation that must be caught.
RTOL = 1e-9
# Relative tolerance on tau against the closed form (golden refinement stops at 1e-6).
TAU_RTOL = 1e-5
# Relative offset of the two neighbouring times that p_max must beat.
NEIGHBOUR = 1e-3
# Allowance below 0 and above N for a stored energy.
E_SLACK = 1e-9

X_STAR = brentq(lambda x: math.tan(x) - 2.0 * x, 1.0, 1.5, xtol=1e-15)


def closed_form(n: int, m: int, beta: float) -> tuple[float, float]:
    """(p_max, tau) of N uncoupled resonant cavities with m photons each."""
    rate = beta * math.sqrt(m)
    return n * rate * math.sin(X_STAR) ** 2 / X_STAR, X_STAR / rate


def jch_sector_size(n: int, m: int) -> int:
    total = n * m
    return sum(math.comb(n, k) * math.comb(total - k + n - 1, n - 1) for k in range(min(n, total) + 1))


def _compositions(total: int, parts: int) -> np.ndarray:
    """All ways to put ``total`` photons into ``parts`` cavities (stars and bars)."""
    bars = np.array(list(combinations(range(total + parts - 1), parts - 1)), dtype=np.int64)
    bars = bars.reshape(-1, parts - 1)
    edges = np.hstack(
        [np.full((bars.shape[0], 1), -1), bars, np.full((bars.shape[0], 1), total + parts - 1)]
    )
    return np.diff(edges, axis=1) - 1


def _bonds(n: int, topology: str) -> list[tuple[int, int]]:
    if topology == "line":
        return [(c, c + 1) for c in range(n - 1)]
    if topology == "all":
        return [(a, b) for a in range(n) for b in range(a + 1, n)]
    raise ValueError(f"no independent model for topology {topology!r}")


class Model:
    """Sparse H, initial vector and stored-energy diagonal of one configuration."""

    def __init__(self, h: sp.csr_array, psi0: np.ndarray, energy_diag: np.ndarray):
        self.h, self.psi0, self.energy_diag = h, psi0, energy_diag
        self._cache: dict[float, float] = {}

    def energy(self, t: float) -> float:
        if t not in self._cache:
            psi = expm_multiply((-1j * t) * self.h, self.psi0.astype(complex))
            self._cache[t] = float(self.energy_diag @ (psi.real**2 + psi.imag**2))
        return self._cache[t]


def jch_model(n: int, m: int, beta: float, kappa: float, topology: str) -> Model:
    total, base = n * m, n * m + 1
    weights = base ** np.arange(n, dtype=np.int64)
    spin_weight = np.int64(base) ** n
    photons, spins = [], []
    for bits in range(2**n):
        s = np.array([(bits >> c) & 1 for c in range(n)], dtype=np.int64)
        left = total - int(s.sum())
        if left < 0:
            continue
        p = _compositions(left, n)
        photons.append(p)
        spins.append(np.broadcast_to(s, p.shape))
    photons, spins = np.vstack(photons), np.vstack(spins)
    keys = photons @ weights + (spins @ (1 << np.arange(n, dtype=np.int64))) * spin_weight
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def index(target: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(sorted_keys, target)
        if np.any(sorted_keys[np.minimum(pos, len(keys) - 1)] != target):
            raise AssertionError("a hop left the excitation sector")
        return order[pos]

    dim = len(keys)
    rows, cols = [np.arange(dim)], [np.arange(dim)]
    vals = [(photons.sum(axis=1) + spins.sum(axis=1)).astype(float)]
    for c in range(n):
        src = np.nonzero((photons[:, c] > 0) & (spins[:, c] == 0))[0]
        dst = index(keys[src] - weights[c] + (1 << c) * spin_weight)
        amp = beta * np.sqrt(photons[src, c])
        rows += [src, dst]
        cols += [dst, src]
        vals += [amp, amp]
    if kappa:
        for a, b in _bonds(n, topology):
            for frm, to in ((a, b), (b, a)):
                src = np.nonzero(photons[:, frm] > 0)[0]
                dst = index(keys[src] - weights[frm] + weights[to])
                rows.append(src)
                cols.append(dst)
                vals.append(-kappa * np.sqrt(photons[src, frm] * (photons[src, to] + 1.0)))
    h = sp.csr_array(
        (np.concatenate(vals).astype(float), (np.concatenate(rows), np.concatenate(cols))), shape=(dim, dim)
    )
    psi0 = np.zeros(dim)
    psi0[index(np.array([m * int(weights.sum())]))[0]] = 1.0
    return Model(h, psi0, spins.sum(axis=1).astype(float))


def dicke_model(n: int, n_max: int, beta: float) -> Model:
    j = n / 2.0
    mz = np.arange(n + 1) - j  # m_j from -j (all ground) to j
    raise_amp = np.sqrt(j * (j + 1.0) - mz[:-1] * (mz[:-1] + 1.0))
    j_plus = sp.diags_array(raise_amp, offsets=-1, shape=(n + 1, n + 1))
    a = sp.diags_array(np.sqrt(np.arange(1, n_max + 1, dtype=float)), offsets=1, shape=(n_max + 1, n_max + 1))
    photon_id, spin_id = sp.eye_array(n_max + 1), sp.eye_array(n + 1)
    excited = sp.diags_array(mz + j)
    h = (
        sp.kron(a.T @ a, spin_id)
        + sp.kron(photon_id, excited)
        + (beta / math.sqrt(n)) * sp.kron(a + a.T, j_plus + j_plus.T)
    ).tocsr()
    psi0 = np.zeros((n_max + 1) * (n + 1))
    psi0[n * (n + 1)] = 1.0  # n photons (m = 1), every system in the ground state
    return Model(h, psi0, np.kron(np.ones(n_max + 1), mz + j))


class Checker:
    """Collects failures; builds each independent model once per run."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        # Last (p_max, tau, energy, n) that passed, for the check of the checks.
        self.last = None
        self._models: dict[tuple, Model] = {}

    def fail(self, label: str, message: str) -> None:
        self.failures.append(f"{label}: {message}")

    def model(self, key: tuple) -> Model:
        if key not in self._models:
            self._models[key] = jch_model(*key[1:]) if key[0] == "jch" else dicke_model(*key[1:])
        return self._models[key]

    def power(self, label: str, p_max: float, tau: float, energy, n: int) -> bool:
        """p_max against E(tau)/tau and the two neighbouring times; returns pass/fail."""
        before = len(self.failures)
        if not (math.isfinite(p_max) and math.isfinite(tau) and tau > 0):
            self.fail(label, f"p_max={p_max} tau={tau} is not a finite search result")
            return False
        ref = energy(tau) / tau
        if abs(p_max - ref) > RTOL * abs(ref):
            self.fail(label, f"p_max {p_max!r} differs from E(tau)/tau = {ref!r}")
        for scale in (1.0 - NEIGHBOUR, 1.0 + NEIGHBOUR):
            t = tau * scale
            if energy(t) / t >= p_max:
                self.fail(label, f"E(t)/t at t = tau*{scale} reaches {energy(t) / t!r} >= p_max {p_max!r}")
        if not -E_SLACK <= ref * tau <= n + E_SLACK:
            self.fail(label, f"E(tau) = {ref * tau!r} outside [0, N]")
        if len(self.failures) > before:
            return False
        self.last = (p_max, tau, energy, n)
        return True

    def jch(self, label: str, n: int, m: int, beta: float, kappa: float, topology: str,
            p_max: float, tau: float, e_max: float, dim: int | None = None) -> None:
        if dim is not None and dim != jch_sector_size(n, m):
            self.fail(label, f"dim {dim} is not the sector size {jch_sector_size(n, m)}")
        if kappa == 0.0:
            p_ref, tau_ref = closed_form(n, m, beta)
            rate = beta * math.sqrt(m)
            energy = lambda t: n * math.sin(rate * t) ** 2  # noqa: E731
            if abs(p_max - p_ref) > RTOL * p_ref:
                self.fail(label, f"p_max {p_max!r} differs from the closed form {p_ref!r}")
            if abs(tau - tau_ref) > TAU_RTOL * tau_ref:
                self.fail(label, f"tau {tau!r} differs from the closed form {tau_ref!r}")
        else:
            energy = self.model(("jch", n, m, beta, kappa, topology)).energy
        self.power(label, p_max, tau, energy, n)
        if not -E_SLACK <= e_max <= n + E_SLACK:
            self.fail(label, f"e_max {e_max!r} outside [0, N]")

    def series(self, label: str, energies, n: int) -> None:
        e = np.asarray(energies, dtype=float)
        if e.size == 0 or not np.all(np.isfinite(e)) or e.min() < -E_SLACK or e.max() > n + E_SLACK:
            self.fail(label, f"E(t) series leaves [0, N]: min {e.min()!r}, max {e.max()!r}")

    def dicke(self, label: str, row: dict) -> None:
        n, n_max = row["n"], row["n_max"]
        if row["dim"] != (n_max + 1) * (n + 1):
            self.fail(label, f"dim {row['dim']} is not (n_max + 1)(N + 1)")
        self.power(label, row["p_max"], row["tau"], self.model(("dicke", n, n_max, row["beta"])).energy, n)
        if not -E_SLACK <= row["e_max"] <= n + E_SLACK:
            self.fail(label, f"e_max {row['e_max']!r} outside [0, N]")
        if row["p_scaled"] != row["p_max"] / n:
            self.fail(label, "p_scaled is not p_max / N")
        if row["cutoff_converged"] is not True:
            self.fail(label, "the point is not cutoff-converged")


def check_of_checks(p_max: float, tau: float, energy, n: int) -> bool:
    """True when a p_max perturbed by 1e-6 relative is rejected."""
    probe = Checker()
    return not probe.power("probe", p_max * (1.0 + 1e-6), tau, energy, n)


def read_table(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(cell: str) -> float:
    return float(cell) if cell else math.nan


def check_cli_row(checker: Checker, preset: str, row: dict) -> bool:
    """One row of a preset table; returns False when the row holds no result."""
    n, m, beta, kappa = int(row["N"]), int(row["m"]), _num(row["beta"]), _num(row["kappa"])
    label = f"{preset} N={n} kappa={kappa:g}"
    p_max = _num(row["p_max"])
    if not math.isfinite(p_max):
        return False
    if row["model"] != "jch" or row["topology"] != "line" or m != 1 or beta != 0.05:
        checker.fail(label, "row is not a JCH line point at m = 1, beta = 0.05")
        return True
    checker.jch(label, n, m, beta, kappa, "line", p_max, _num(row["tau"]), _num(row["e_max"]), int(row["dim"]))
    expected = p_max / n if preset == "fig2" else p_max * kappa
    if _num(row["p_scaled"]) != expected:
        checker.fail(label, f"p_scaled {row['p_scaled']} is not {expected!r}")
    return True
