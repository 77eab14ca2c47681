"""qbattery benchmark: three workloads, measured end to end and per module.

    python3 bench/run.py --workload jch_sparse --seed 1 --seconds 33 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Three worker processes (see ``worker.py``), one after
the other, each import qbattery, finish a warm-up quench and then run the
workload's configurations round after round for a third of ``--seconds``
(at least one round each).  Every step of a round (one configuration, one
sweep or one preset) is timed between two runs of a fixed reference
computation; ``wall_ref`` is the median round time in units of the
reference time, which cancels the drift in speed of a shared machine.
Further workers only set up, for ``setup_s``.  The outputs of every round
are checked afterwards, outside the timed region, against the independent
models in ``checks.py``.  With ``--trace 1`` the run makes one plain and
one traced round and reports the per-module metrics of the traced one,
the plain round time and the difference of the two round times.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (configurations) and ``metrics``.  Exit code 0 when that
line was printed, 1 when a worker failed, 2 on bad arguments or when the
checkout holds no qbattery sources.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import CLI_PRESETS, WORKLOADS, configurations  # noqa: E402

# Workers that run rounds, one after the other, each for its share of
# --seconds.  The pool of cli_presets makes a process's peak memory depend on
# which points happen to overlap, so peak_rss_mb is the median over workers.
ROUND_WORKERS = 3
# Processes that only set up, started before the first round worker and
# again after the checks.  Start-up time drifts with the load on the machine,
# so the samples come from both ends of the run; setup_s is the median over
# these and the round workers.
SETUP_BATCH = 1
# Every worker must have finished this long after the run started.
DEADLINE_S = 170.0


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; returns (seconds until it reported ready, its stdout after that)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT, *args]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=max(deadline - time.monotonic(), 0.0)):
                raise subprocess.TimeoutExpired(cmd, deadline)
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker {args} ran past the deadline") from None
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerError(f"worker {args} exited with code {proc.returncode}")
    return ready, rest


def run_rounds(
    workload: str, seed: int, seconds: float, trace: bool, out_dir: str, deadline: float
) -> tuple[float, dict]:
    """One worker process running rounds for ``seconds``; returns (its setup time, its summary)."""
    os.makedirs(out_dir)
    flags = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--out", out_dir]
    if trace:
        flags += ["--trace", "1"]
    ready, out = spawn(flags, deadline)
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no summary")
    return ready, json.loads(lines[-1])


def verify(workload: str, outputs_path: str, checker: checks.Checker) -> tuple[int, int]:
    """Check every configuration of every round of one worker; returns (attempted, failed)."""
    with open(outputs_path, encoding="utf-8") as fh:
        data = json.load(fh)
    configs = data["configs"]
    attempted = failed = 0
    for outputs in data["rounds"]:
        done, bad = verify_round(workload, configs, outputs, checker)
        attempted += done
        failed += bad
    return attempted, failed


def verify_round(workload: str, configs: list[dict], outputs: list[dict], checker: checks.Checker) -> tuple[int, int]:
    """Check every configuration of one round; returns (attempted, failed)."""
    attempted = failed = 0
    if workload == "jch_sparse":
        for cfg, res in zip(configs, outputs, strict=True):
            attempted += 1
            if res["error"]:
                failed += 1
                continue
            args = (cfg["n"], cfg["m"], cfg["beta"], cfg["kappa"], cfg["topology"])
            checker.jch(cfg["name"], *args, res["p_max"], res["tau"], res["e_max"])
            checker.series(cfg["name"], res["series"], cfg["n"])
    elif workload == "dicke_dense":
        cfg = configs[0]
        expected = [(n, mult * n) for n in cfg["ns"] for mult in cfg["cutoffs"]]
        if [(r["n"], r["n_max"]) for r in outputs] != expected:
            checker.fail("dicke_dense", "rows do not match the swept (N, cutoff) points")
        for row in outputs:
            attempted += 1
            if row["error"]:
                failed += 1
                continue
            label = f"dicke N={row['n']} n_max={row['n_max']}"
            if row["beta"] != cfg["beta"] or row["m"] != 1:
                checker.fail(label, "row parameters differ from the configured ones")
            checker.dicke(label, row)
    else:
        for res in outputs:
            preset = res["preset"]
            expected = CLI_PRESETS[preset]
            attempted += expected
            if res["exit_code"] != 0 or not os.path.exists(res["csv"]):
                checker.fail(preset, f"cli exited with code {res['exit_code']}")
                failed += expected
                continue
            rows = checks.read_table(res["csv"])
            if len(rows) != expected:
                checker.fail(preset, f"table has {len(rows)} rows, expected {expected}")
            failed += sum(1 for row in rows if not checks.check_cli_row(checker, preset, row))
    return attempted, failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "qbattery", "__init__.py")):
        print(f"error: no qbattery sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "out"))
    checker = checks.Checker()
    setups: list[float] = []
    workers: list[dict] = []
    attempted = failed = 0

    def setup_only() -> None:
        for _ in range(SETUP_BATCH):
            setups.append(spawn(["--setup-only"], deadline)[0])

    try:
        if args.trace:
            for traced in (False, True):
                out_dir = os.path.join(scratch, "traced" if traced else "plain")
                workers.append(run_rounds(args.workload, args.seed, 0.0, traced, out_dir, deadline)[1])
        else:
            setup_only()
            for k in range(ROUND_WORKERS):
                ready, summary = run_rounds(
                    args.workload,
                    args.seed,
                    args.seconds / ROUND_WORKERS,
                    False,
                    os.path.join(scratch, f"worker{k}"),
                    deadline,
                )
                setups.append(ready)
                workers.append(summary)
        for summary in workers:
            done, bad = verify(args.workload, summary["outputs"], checker)
            attempted += done
            failed += bad
        if checker.last is not None and not checks.check_of_checks(*checker.last):
            checker.fail("check of checks", "a p_max perturbed by 1e-6 relative passed")
        if args.trace:
            plain, traced = workers
            shutil.copyfile(traced["trace"], os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.jsonl"))
            for name in traced["absent"]:
                print(f"absent: {name}", file=sys.stderr)
            metrics = dict(traced["layer"])
            metrics["trace.overhead_s"] = {"value": traced["walls"][0] - plain["walls"][0], "unit": "s"}
            metrics["round.wall_s"] = {"value": plain["walls"][0], "unit": "s"}
        else:
            setup_only()
            metrics = {
                "wall_ref": {"value": statistics.median(x for w in workers for x in w["in_ref"]), "unit": "ref"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(w["peak_rss_mb"] for w in workers), "unit": "MB"},
            }
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for failure in checker.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(
        f"{args.workload}: seed {args.seed}, {attempted} configurations checked, "
        f"round times {[round(w, 3) for r in workers for w in r['walls']]} s, "
        f"in reference units {[round(x, 3) for r in workers for x in r['in_ref']]}, "
        f"reference times {[round(x, 3) for r in workers for x in r['refs']]} s, "
        f"setup times {[round(t, 3) for t in setups]} s",
        file=sys.stderr,
    )
    print(json.dumps({"correct": not checker.failures, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
