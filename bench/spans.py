"""Spans around the calls into each qbattery module, recorded from outside.

The tracer replaces a public name with a wrapper where the calling module
looks it up, so the program itself is unchanged.  Spans stay in memory
and are written out once, when the run ends.  Each span carries the span
open on its thread when it started (its parent) and a configuration
identifier: a new one starts with every ``QuenchSystem``, and the basis,
assembly, engine and search spans that follow on that thread share it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._config_ids = itertools.count(1)
        self._origin = time.perf_counter()

    def wrap(self, owner, attr: str, label: str, name: str, facts=None, new_config: bool = False) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``.

        ``facts(args, kwargs, result)`` returns extra fields for the span.
        A missing attribute is noted in ``absent`` and left alone; a span
        whose facts cannot be read keeps its time and contributes 0 counts.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(label)
            return
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = local.__dict__.setdefault("stack", [])
            if new_config:
                local.config = next(tracer._config_ids)
            span_id = next(tracer._span_ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "config": getattr(local, "config", 0),
                    "name": name,
                    "start": start - tracer._origin,
                    "end": end - tracer._origin,
                    "thread": threading.get_ident(),
                    "ok": ok,
                }
                if ok and facts is not None:
                    try:
                        span.update(facts(args, kwargs, result))
                    except (AttributeError, IndexError, KeyError, OSError, TypeError) as err:
                        # The call changed shape; keep its time, never break the program.
                        span["facts_error"] = f"{type(err).__name__}: {err}"
                with tracer._lock:
                    tracer.spans.append(span)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def instrument(qbattery, tracer: Tracer) -> None:
    """Wrap the public calls at every module boundary the workloads cross."""
    battery, sweeps, cli = qbattery.battery, qbattery.sweeps, qbattery.cli
    system_cls = getattr(battery, "QuenchSystem", None)
    wrap = tracer.wrap
    wrap(battery, "build_basis", "qbattery.battery.build_basis", "basis.build",
         lambda a, k, r: {"states": int(r.dim)})
    wrap(battery, "build_csr", "qbattery.battery.build_csr", "hamiltonians.csr",
         lambda a, k, r: {"nnz": int(r.nnz)})
    wrap(battery, "build_hamiltonian", "qbattery.battery.build_hamiltonian", "hamiltonians.dense")
    wrap(battery, "diagonalize", "qbattery.battery.diagonalize", "dynamics.eigh",
         lambda a, k, r: {"dim": int(r.eigenvalues.shape[0])})
    if system_cls is None:
        tracer.absent.append("qbattery.battery.QuenchSystem")
    else:
        wrap(system_cls, "__init__", "QuenchSystem.__init__", "battery.system",
             lambda a, k, r: {"dim": int(a[0].dim), "engine": str(a[0].engine)}, new_config=True)
        wrap(system_cls, "at", "QuenchSystem.at", "dynamics.at")
        wrap(system_cls, "on_grid", "QuenchSystem.on_grid", "dynamics.grid",
             lambda a, k, r: {"points": int(len(a[1]))})
    for module, label in ((battery, "battery"), (sweeps, "sweeps"), (cli, "cli")):
        wrap(module, "max_power", f"qbattery.{label}.max_power", "battery.search")
    sweep_facts = lambda a, k, r: {"points": len(r), "busy": float(sum(row.wall_time_s for row in r))}  # noqa: E731
    wrap(qbattery, "run_sweep", "qbattery.run_sweep", "sweeps.run_sweep", sweep_facts)
    wrap(cli, "run_sweep", "qbattery.cli.run_sweep", "sweeps.run_sweep", sweep_facts)
    wrap(cli, "write_table", "qbattery.cli.write_table", "cli.write_table",
         lambda a, k, r: {"bytes": os.path.getsize(a[1] if len(a) > 1 else k["path"])})


# Unit of each per-module figure that is not a time in seconds.
UNITS = {
    "basis.states": "states",
    "hamiltonians.nnz": "entries",
    "dynamics.eigh_work": "dim3/1e9",
    "dynamics.grid_points": "points",
    "dynamics.at_calls": "calls",
    "battery.dense_points": "points",
    "battery.chebyshev_points": "points",
    "sweeps.points": "rows",
    "sweeps.concurrency": "busy/wall",
    "cli.bytes": "bytes",
    "trace.spans": "spans",
}


def metrics(spans: list[dict]) -> dict[str, dict]:
    """Per-module figures summed over one round's spans, as {name: {value, unit}}."""

    def total(name: str, field: str | None = None) -> float:
        picked = [s for s in spans if s["name"] == name and s["ok"]]
        if field is None:
            return float(sum(s["end"] - s["start"] for s in picked))
        return float(sum(s.get(field, 0) for s in picked))

    def count(name: str, **match) -> int:
        return sum(1 for s in spans if s["name"] == name and all(s.get(k) == v for k, v in match.items()))

    grid_s, at_s = total("dynamics.grid"), total("dynamics.at")
    search_s = total("battery.search")
    busy_s, sweep_wall = total("sweeps.run_sweep", "busy"), total("sweeps.run_sweep")
    eigh_work = sum(s.get("dim", 0) ** 3 for s in spans if s["name"] == "dynamics.eigh" and s["ok"]) / 1e9
    values = {
        "basis.build_s": total("basis.build"),
        "basis.states": total("basis.build", "states"),
        "hamiltonians.csr_s": total("hamiltonians.csr"),
        "hamiltonians.nnz": total("hamiltonians.csr", "nnz"),
        "hamiltonians.dense_s": total("hamiltonians.dense"),
        "dynamics.eigh_s": total("dynamics.eigh"),
        "dynamics.eigh_work": float(eigh_work),
        "dynamics.grid_s": grid_s,
        "dynamics.grid_points": total("dynamics.grid", "points"),
        "dynamics.at_s": at_s,
        "dynamics.at_calls": float(count("dynamics.at")),
        "battery.system_s": total("battery.system"),
        "battery.search_s": search_s,
        "battery.search_self_s": search_s - grid_s - at_s,
        "battery.dense_points": float(count("battery.system", engine="dense")),
        "battery.chebyshev_points": float(count("battery.system", engine="chebyshev")),
        "sweeps.points": total("sweeps.run_sweep", "points"),
        "sweeps.busy_s": busy_s,
        "sweeps.concurrency": busy_s / sweep_wall if sweep_wall > 0 else 0.0,
        "cli.write_s": total("cli.write_table"),
        "cli.bytes": total("cli.write_table", "bytes"),
        "trace.spans": float(len(spans)),
    }
    return {name: {"value": value, "unit": UNITS.get(name, "s")} for name, value in values.items()}
