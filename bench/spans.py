"""Layer spans and counters for the traced benchmark run.

The tracer wraps the package's module-level functions at each layer
boundary from outside: it replaces every reference to a function in the
package's modules with a timing wrapper, and restores the originals when
it is removed. Nothing under ``src/`` knows about it, and an untraced run
never installs it.

Each span records its name, start and end, parent span, op id and thread
id. Counters (eigensolver calls, symplectic spectra, density-matrix
validations) are per thread; a span stores how far its thread's counters
moved while it was open, so a count "inside ree spans" is exact even when
calls nest.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

import numpy as np

PACKAGE = "nonclassicality"
# (owner, attribute, kind, name). Owner is a package module, "module.Class"
# or an object outside the package. A "span" target is timed under `name`;
# a "count" target only adds one to the counter `name` per call. A target
# missing from the installed package is skipped, so the benchmark keeps
# running after a layer is renamed or deleted; its metrics then read 0.
TARGETS = (
    ("core", "partial_trace", "span", "core.partial_trace"),
    ("dynamics", "evolve_closed", "span", "dynamics.evolve_closed"),
    ("dynamics", "evolve_lindblad", "span", "dynamics.evolve_lindblad"),
    ("measures", "ree", "span", "measures.ree"),
    ("measures", "_ree_upper", "span", "measures.ree.upper"),
    ("measures", "_ree_lower", "span", "measures.ree.lower"),
    ("measures", "discord_deficit", "span", "measures.discord"),
    ("protocol", "theorem_property_suite", "span", "protocol.theorem_property_suite"),
    ("gaussian", "derive_params", "span", "gaussian.derive_params"),
    ("gaussian", "build_drift_diffusion", "span", "gaussian.build_drift_diffusion"),
    ("gaussian.DriftDiffusion", "is_stable", "span", "gaussian.stability"),
    ("gaussian", "propagate_covariance", "span", "gaussian.propagate"),
    ("gaussian", "lyapunov_steady", "span", "gaussian.lyapunov"),
    ("gaussian", "log_negativity_gaussian", "span", "gaussian.log_negativity"),
    ("gaussian", "sweep_steady_state", "span", "gaussian.sweep"),
    ("gaussian", "_sweep_point", "span", "gaussian.sweep_point"),
    ("core.DensityMatrix", "__post_init__", "count", "density"),
    ("gaussian", "symplectic_eigenvalues", "count", "symplectic"),
    (np.linalg, "eigh", "count", "eig"),
    (np.linalg, "eigvalsh", "count", "eig"),
)


def _resolve(owner):
    if not isinstance(owner, str):
        return owner
    module, _, cls = owner.partition(".")
    obj = sys.modules.get(f"{PACKAGE}.{module}")
    return getattr(obj, cls, None) if cls else obj


def _result_attrs(name, out) -> dict:
    """Effort figures a layer returns: FW iterations, integrator steps."""
    if name == "measures.ree" and hasattr(out, "iterations"):
        return {"iters": int(out.iterations)}
    if name == "dynamics.evolve_lindblad" and hasattr(out, "times"):
        return {"steps": len(out.times) - 1}
    return {}


class Tracer:
    """In-memory spans and per-thread counters for one traced pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter_ns()

    # -- per-thread state ------------------------------------------------

    def _thread_state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = self._main_stack if threading.get_ident() == self._main_thread else []
            st.counters = {}
        return st

    def count(self, key: str) -> None:
        c = self._thread_state().counters
        c[key] = c.get(key, 0) + 1

    def open(self, name: str) -> dict:
        st = self._thread_state()
        if st.stack:
            parent = st.stack[-1]["id"]
        elif self._main_stack:
            # a pool thread's outermost span belongs to the main-thread span
            # that is waiting on the pool
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "op": self.op_id,
            "thread": threading.get_ident(),
            "start_ns": time.perf_counter_ns(),
            "_counts": dict(st.counters),
        }
        st.stack.append(span)
        return span

    def close(self, span: dict, **attrs) -> None:
        end = time.perf_counter_ns()
        st = self._thread_state()
        st.stack.pop()
        before = span.pop("_counts")
        for key, val in st.counters.items():
            moved = val - before.get(key, 0)
            if moved:
                span[key] = moved
        span["end_ns"] = end
        span.update(attrs)
        self.spans.append(span)

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer.close(span, **_result_attrs(name, out))

        return wrapper

    def _count_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, original, replacement) -> None:
        """Point every package-level reference to `original` at `replacement`."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for owner, attr, kind, name in TARGETS:
            obj = _resolve(owner)
            original = getattr(obj, attr, None)
            if not callable(original):
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(original, name)
            if isinstance(owner, str) and "." not in owner:
                # module-level function: other modules hold it by name too
                self._replace_everywhere(original, wrapper)
            else:
                self._restore.append((obj, attr, original))
                setattr(obj, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- output -----------------------------------------------------------

    def records(self) -> list[dict]:
        """Closed spans in start order, times in seconds from tracer start."""
        out = []
        for span in sorted(self.spans, key=lambda s: s["start_ns"]):
            rec = {k: v for k, v in span.items() if not k.endswith("_ns")}
            rec["start"] = (span["start_ns"] - self._t0) * 1e-9
            rec["end"] = (span["end_ns"] - self._t0) * 1e-9
            out.append(rec)
        return out


def write_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


# per-layer metric -> unit
LAYER_UNITS = {
    "core.density_checks": "count",
    "core.partial_trace_s": "s",
    "dynamics.evolve_lindblad_s": "s",
    "dynamics.evolve_lindblad_steps": "count",
    "dynamics.evolve_closed_s": "s",
    "measures.ree_s": "s",
    "measures.ree_calls": "count",
    "measures.ree.upper_s": "s",
    "measures.ree.lower_s": "s",
    "measures.ree.fw_iters": "iter",
    "measures.ree.eig_per_call": "count",
    "measures.discord_s": "s",
    "measures.discord_calls": "count",
    "measures.discord.eig_per_call": "count",
    "protocol.suite_self_s": "s",
    "gaussian.propagate_s": "s",
    "gaussian.propagate_steps": "count",
    "gaussian.log_negativity_s": "s",
    "gaussian.derive_params_s": "s",
    "gaussian.build_drift_diffusion_s": "s",
    "gaussian.stability_s": "s",
    "gaussian.lyapunov_s": "s",
    "gaussian.lyapunov_calls": "count",
    "gaussian.sweep_wall_s": "s",
    "gaussian.sweep_busy_s": "s",
}


def counter_total(spans: list[dict], key: str) -> int:
    """All calls a counter saw: the sum over each thread's outermost spans."""
    thread_of = {s["id"]: s["thread"] for s in spans}
    return sum(s.get(key, 0) for s in spans
               if s["parent"] is None or thread_of[s["parent"]] != s["thread"])


def aggregate(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and exact counts over one traced pass."""
    selft = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def self_s(name):
        return sum(selft[s["id"]] for s in by_name.get(name, ()))

    def wall_s(name):
        return sum(s["end"] - s["start"] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def field_sum(name, key):
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def per_call(name, key):
        n = calls(name)
        return field_sum(name, key) / n if n else 0.0

    return {
        "core.density_checks": counter_total(spans, "density"),
        "core.partial_trace_s": self_s("core.partial_trace"),
        "dynamics.evolve_lindblad_s": self_s("dynamics.evolve_lindblad"),
        "dynamics.evolve_lindblad_steps": field_sum("dynamics.evolve_lindblad", "steps"),
        "dynamics.evolve_closed_s": self_s("dynamics.evolve_closed"),
        "measures.ree_s": self_s("measures.ree"),
        "measures.ree_calls": calls("measures.ree"),
        "measures.ree.upper_s": self_s("measures.ree.upper"),
        "measures.ree.lower_s": self_s("measures.ree.lower"),
        "measures.ree.fw_iters": per_call("measures.ree", "iters"),
        "measures.ree.eig_per_call": per_call("measures.ree", "eig"),
        "measures.discord_s": self_s("measures.discord"),
        "measures.discord_calls": calls("measures.discord"),
        "measures.discord.eig_per_call": per_call("measures.discord", "eig"),
        "protocol.suite_self_s": self_s("protocol.theorem_property_suite"),
        "gaussian.propagate_s": self_s("gaussian.propagate"),
        "gaussian.propagate_steps": field_sum("gaussian.propagate", "symplectic"),
        "gaussian.log_negativity_s": self_s("gaussian.log_negativity"),
        "gaussian.derive_params_s": self_s("gaussian.derive_params"),
        "gaussian.build_drift_diffusion_s": self_s("gaussian.build_drift_diffusion"),
        "gaussian.stability_s": self_s("gaussian.stability"),
        "gaussian.lyapunov_s": self_s("gaussian.lyapunov"),
        "gaussian.lyapunov_calls": calls("gaussian.lyapunov"),
        "gaussian.sweep_wall_s": wall_s("gaussian.sweep"),
        "gaussian.sweep_busy_s": wall_s("gaussian.sweep_point"),
    }
