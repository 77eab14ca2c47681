"""One benchmark process: import qbattery from the checkout, warm up, run rounds.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
the line ``ready`` once the import and the warm-up quench are done, then,
after the timed rounds, one JSON line with the time of each round in
seconds and in reference units, the reference times, the peak resident
memory of this process and where the outputs went.
Rounds follow one another while the next one is expected to end within
``--seconds`` of the first one's start; there is always at least one.
Everything the program itself prints goes to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import threading
import time

import numpy as np

sys.dont_write_bytecode = True

# Size of the reference computation: about 0.3 s on the machine in README.md.
REF_LOOP = 1_200_000
REF_ARRAY = 100_000
REF_PASSES = 120


def _import_qbattery(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import qbattery
    import qbattery.cli  # the package does not import its command line

    where = os.path.realpath(qbattery.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"qbattery was imported from {where}, not from {src}")
    return qbattery


def _passes(x: np.ndarray) -> None:
    y = x.copy()
    for _ in range(REF_PASSES):
        y = np.sin(y) * 0.5 + x


def _reference() -> float:
    """Seconds for a fixed computation that does not touch qbattery.

    Interpreter work on one thread, then numpy element-wise passes on two
    threads at once (numpy lets go of the GIL in them), as the pool and
    multithreaded BLAS use both cores; no BLAS, so the program's thread
    settings cannot change it.  Timed between the steps of every round, it
    tracks the speed the shared machine gives this process at that moment.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i * i
    threads = [threading.Thread(target=_passes, args=(np.linspace(0.0, k, REF_ARRAY),)) for k in (1.0, 2.0)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - t0


def _jch_point(qb, cfg: dict) -> list[dict]:
    params = qb.ModelParams(
        model=qb.Model.JCH,
        n=cfg["n"],
        m=cfg["m"],
        beta=cfg["beta"],
        kappa=cfg["kappa"],
        topology=qb.Topology(cfg["topology"]),
    )
    try:
        result = qb.charge(params)
    except Exception as err:  # a failed configuration is counted, not fatal
        return [{"error": f"{type(err).__name__}: {err}"}]
    return [
        {
            "p_max": result.p_max,
            "tau": result.tau,
            "e_max": result.e_max,
            "series": result.series[:, 1].tolist(),
            "error": "",
        }
    ]


def _dicke_sweep(qb, cfg: dict) -> list[dict]:
    spec = qb.SweepSpec(
        base=qb.ModelParams(model=qb.Model.DICKE, n=cfg["ns"][0], m=1, beta=cfg["beta"]),
        axis=qb.Axis.N,
        values=tuple(cfg["ns"]),
        scaling=qb.Scaling.PER_N,
        cutoff_multipliers=tuple(cfg["cutoffs"]),
    )
    rows = qb.run_sweep(spec, jobs=1)
    keys = ("n", "m", "beta", "n_max", "dim", "p_max", "tau", "e_max", "p_scaled", "cutoff_converged", "error")
    return [{k: getattr(r, k) for k in keys} for r in rows]


def _cli_preset(qb, cfg: dict, out_dir: str) -> list[dict]:
    jobs = len(os.sched_getaffinity(0))
    path = os.path.join(out_dir, f"{cfg['preset']}.csv")
    with contextlib.redirect_stdout(sys.stderr):
        code = qb.cli.main(["sweep", "--preset", cfg["preset"], "--out", path, "--jobs", str(jobs)])
    return [{"preset": cfg["preset"], "exit_code": code, "csv": path}]


def _steps(qb, workload: str, configs: list[dict], round_dir: str) -> list:
    """One round as a list of calls, each returning a list of outputs."""
    if workload == "jch_sparse":
        return [lambda cfg=cfg: _jch_point(qb, cfg) for cfg in configs]
    if workload == "dicke_dense":
        return [lambda: _dicke_sweep(qb, configs[0])]
    os.makedirs(round_dir)
    return [lambda cfg=cfg: _cli_preset(qb, cfg, round_dir) for cfg in configs]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    qb = _import_qbattery(args.root)
    warm = qb.ModelParams(model=qb.Model.JCH, n=2, m=1, beta=0.05, kappa=0.05)
    qb.charge(warm)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import configurations

    configs = configurations(args.workload, args.seed)
    tracer = None
    if args.trace:
        from spans import Tracer, instrument

        tracer = Tracer()
        instrument(qb, tracer)

    # Each step of a round is timed on its own and set against the mean of the
    # reference times just before and after it.
    walls: list[float] = []
    in_ref: list[float] = []
    refs = [_reference()]
    rounds: list[list[dict]] = []
    started = time.perf_counter()
    while True:
        outputs: list[dict] = []
        wall = ratio = 0.0
        round_start = time.perf_counter()
        for step in _steps(qb, args.workload, configs, os.path.join(args.out, f"round{len(rounds)}")):
            t0 = time.perf_counter()
            outputs += step()
            took = time.perf_counter() - t0
            refs.append(_reference())
            wall += took
            ratio += took / (0.5 * (refs[-2] + refs[-1]))
        walls.append(wall)
        in_ref.append(ratio)
        rounds.append(outputs)
        now = time.perf_counter()
        if now - started + (now - round_start) > args.seconds:
            break

    outputs_path = os.path.join(args.out, "outputs.json")
    with open(outputs_path, "w", encoding="utf-8") as fh:
        json.dump({"configs": configs, "rounds": rounds}, fh)
    summary = {
        "walls": walls,
        "in_ref": in_ref,
        "refs": refs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outputs_path,
    }
    if tracer is not None:
        from spans import metrics

        trace_path = os.path.join(args.out, "trace.jsonl")
        tracer.write(trace_path)
        summary.update(trace=trace_path, layer=metrics(tracer.spans), absent=tracer.absent)
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
