"""Workload definitions: the fixed configurations each workload runs.

Plain data only (no qbattery import), so the worker that runs the program
and the checks that verify it read the same parameters.  The seed draws
beta, and kappa where it is nonzero, from a band of +-1 % around the
stated values; N, m and the photon cutoffs never change, so every sector
keeps its size and the run time stays put.
"""

from __future__ import annotations

import random

WORKLOADS = ("jch_sparse", "dicke_dense", "cli_presets")

# Relative half-width of the band the seed draws beta and kappa from.
BAND = 0.01

# A run repeats one round for --seconds and reports the median round time.
# The rounds of jch_sparse and dicke_dense are kept at 3-5 s so that a run
# holds six or more of them.

# jch_sparse: two sectors above the dense limit (Chebyshev engine): a large
# line sector without hopping, where Python basis and CSR assembly weigh
# most, and an all-to-all sector with hopping.
JCH_SPARSE = (
    # name, N, m, beta, kappa, topology
    ("N7_m1_line", 7, 1, 0.05, 0.0, "line"),  # 28,814 states
    ("N6_m1_all", 6, 1, 0.05, 0.05, "all"),  # 5,336 states
)

# dicke_dense: the fig5 beta = 0.5 curve at N = 2, 5, 10, 15, cutoffs 4 and 5
# times n*m: 8 points of 33 to 1,216 states, all on the dense engine.
DICKE_BETA = 0.5
DICKE_NS = (2, 5, 10, 15)
DICKE_CUTOFFS = (4, 5)

# cli_presets: presets fix their own parameters, so the seed has no effect.
# Rows per table: fig2 is N = 2..6 at three kappas, fig4 is 14 kappas at N = 2, 3.
CLI_PRESETS = {"fig2": 15, "fig4": 28}


def _draw(rng: random.Random, value: float) -> float:
    return value * (1.0 + BAND * rng.uniform(-1.0, 1.0)) if value else value


def configurations(workload: str, seed: int) -> list[dict]:
    """The configurations one round of ``workload`` runs, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "jch_sparse":
        out = []
        for name, n, m, beta, kappa, topology in JCH_SPARSE:
            out.append(
                {
                    "name": name,
                    "n": n,
                    "m": m,
                    "beta": _draw(rng, beta),
                    "kappa": _draw(rng, kappa),
                    "topology": topology,
                }
            )
        return out
    if workload == "dicke_dense":
        return [{"beta": _draw(rng, DICKE_BETA), "ns": list(DICKE_NS), "cutoffs": list(DICKE_CUTOFFS)}]
    if workload == "cli_presets":
        return [{"preset": p} for p in CLI_PRESETS]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
