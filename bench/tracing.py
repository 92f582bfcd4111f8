"""Span tracing of conflictlab's public functions, from outside the package.

Tracer.install() replaces every public function (a module-level function
whose name has no leading underscore) of every conflictlab module with a
wrapper in each namespace that holds it, so a call is traced under
the function's home name (``calculus.inv_laplacian``) whether its caller
resolves it as ``conflictlab.calculus.inv_laplacian`` or as
``conflictlab.liouville.inv_laplacian``.  The flow steppers are also
patched in the dispatch table ``run_flow`` reads them from.
The small helpers in COUNTED and ``RadialField`` construction are only
counted.

A span is (id, parent id, name, start, end, ok); spans live in compact
arrays in memory and are written out once, at the end.  Pool threads start
with an empty stack, so spans they open have no parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from array import array
from collections import Counter

import numpy as np

MODULES = (
    "model",
    "calculus",
    "liouville",
    "functionals",
    "flow",
    "phase",
    "blowdown",
    "annulus_ode",
    "cli",
)

# Helpers called many times per point or per step, where a span would cost
# as much as the call: they are counted, not timed.
COUNTED = {
    "model.validate_params",
    "phase.lambda_values",
    "phase.strip_mass",
    "calculus.face_masses",
    "calculus.face_flux",
    "calculus.integrate_disk",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ok = array("b")
        self.counters: Counter = Counter()
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._absorbed = 1 << 40

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def _record(self, sid, parent, idx, t0, t1, ok):
        with self._lock:
            self.sid.append(sid)
            self.parent.append(parent)
            self.name.append(idx)
            self.start.append(t0)
            self.end.append(t1)
            self.ok.append(ok)

    def span_wrapper(self, name, fn, namer=None, after=None):
        """fn wrapped to record one span; namer(args, kwargs) may refine
        the name from the arguments, after(args, kwargs, result) updates
        counters."""
        idx = self._name_id(name)
        local, ids, record, clock = self._local, self._ids, self._record, time.perf_counter
        sub: dict[str, int] = {}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            i = idx
            if namer is not None:
                full = namer(args, kwargs)
                i = sub.get(full)
                if i is None:
                    i = sub[full] = self._name_id(full)
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                record(sid, parent, i, t0, t1, ok)
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def count_wrapper(self, name, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --------------------------------------------------------- installation

    def _hooks(self, name):
        counters = self.counters
        if name in ("liouville.solve_single", "liouville.solve_pair"):
            def after(args, kwargs, sol):
                counters["liouville.iterations"] += sol.iterations
            return None, after
        if name == "calculus.inv_laplacian":
            def after(args, kwargs, out):
                rho = args[0] if args else kwargs["rho"]
                counters["calculus.inv_laplacian_cells"] += rho.grid.n
            return None, after
        if name == "cli.run":
            def namer(args, kwargs):
                cfg = args[0] if args else kwargs["cfg"]
                return "cli.run." + cfg.command
            return namer, None
        return None, None

    def install(self) -> None:
        """Patch the wrappers into every conflictlab namespace."""
        if self._patches:
            return
        mods = {m: importlib.import_module(f"conflictlab.{m}") for m in MODULES}
        package = importlib.import_module("conflictlab")
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in COUNTED:
                    wrapped[fn] = self.count_wrapper(name, fn)
                else:
                    namer, after = self._hooks(name)
                    wrapped[fn] = self.span_wrapper(name, fn, namer, after)
        for mod in [package, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        steppers = mods["flow"]._STEPPERS
        for key, fn in list(steppers.items()):
            self._patch_item(steppers, key, wrapped[fn])
        field = mods["model"].RadialField
        post_init = field.__post_init__
        self._patch(field, "__post_init__", self.count_wrapper("model.RadialField", post_init))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- results

    def arrays(self) -> dict:
        return {
            "sid": np.frombuffer(self.sid, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "ok": np.frombuffer(self.ok, dtype=np.int8).copy(),
        }

    def absorb(self, path) -> None:
        """Merge the spans and counters another process saved with save().

        Its span ids are shifted past every id used so far, so they stay
        distinct from this process's own spans and from earlier merges."""
        with np.load(path, allow_pickle=False) as data:
            names = [str(x) for x in data["names"]]
            remap = np.array([self._name_id(n) for n in names], dtype=np.int32)
            base = self._absorbed
            self._absorbed += int(data["sid"].max(initial=-1)) + 1
            parent = data["parent"]
            with self._lock:
                self.sid.extend((data["sid"] + base).tolist())
                self.parent.extend(np.where(parent >= 0, parent + base, -1).tolist())
                self.name.extend(remap[data["name"]].tolist())
                self.start.extend(data["start"].tolist())
                self.end.extend(data["end"].tolist())
                self.ok.extend(data["ok"].tolist())
            for key, value in zip(data["counter_keys"], data["counter_values"]):
                self.counters[str(key)] += int(value)

    def save(self, path) -> None:
        keys = sorted(self.counters)
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            counter_keys=np.array(keys, dtype=str),
            counter_values=np.array([self.counters[k] for k in keys], dtype=np.int64),
            **self.arrays(),
        )


class SpanTable:
    """Per-name aggregates of a tracer's spans: calls, errors, inclusive and
    self time.  Self time is a span's duration minus the part of it its
    child spans cover."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.a = a
        dur = a["end"] - a["start"]
        self.dur = dur
        k = len(self.names)
        self.calls = np.bincount(a["name"], minlength=k)
        self.total = np.bincount(a["name"], weights=dur, minlength=k)
        self.errors = np.bincount(a["name"], weights=(a["ok"] == 0), minlength=k)
        self.total_ok = np.bincount(a["name"], weights=dur * (a["ok"] == 1), minlength=k)
        order = np.argsort(a["sid"])
        has_parent = a["parent"] >= 0
        parent_pos = order[np.searchsorted(a["sid"][order], a["parent"][has_parent])]
        child = np.bincount(parent_pos, weights=dur[has_parent], minlength=dur.size)
        self.self_time = dur - child
        self.self_total = np.bincount(a["name"], weights=self.self_time, minlength=k)
        self._ids = {n: i for i, n in enumerate(self.names)}

    def _ids_of(self, names):
        return [self._ids[n] for n in names if n in self._ids]

    def count(self, *names) -> int:
        return int(sum(self.calls[i] for i in self._ids_of(names)))

    def errors_of(self, *names) -> int:
        return int(sum(self.errors[i] for i in self._ids_of(names)))

    def seconds(self, *names) -> float:
        return float(sum(self.total[i] for i in self._ids_of(names)))

    def seconds_ok(self, *names) -> float:
        return float(sum(self.total_ok[i] for i in self._ids_of(names)))

    def mean(self, *names) -> float:
        calls = self.count(*names)
        return self.seconds(*names) / calls if calls else 0.0

    def mean_self(self, *names) -> float:
        calls = self.count(*names)
        ids = self._ids_of(names)
        return float(sum(self.self_total[i] for i in ids)) / calls if calls else 0.0

    def prefixed(self, prefix) -> list[str]:
        return [n for n in self.names if n.startswith(prefix)]

    def step_growth(self, min_steps=500) -> float:
        """Median over runs of at least min_steps steps of the mean step time
        in the last fifth over that in the first fifth; 0 without such runs."""
        a = self.a
        run_id = self._ids.get("flow.run_flow")
        steps = self._ids_of(["flow.step_single_density", "flow.step_two_densities", "flow.step_potentials"])
        if run_id is None or not steps:
            return 0.0
        is_step = np.isin(a["name"], steps)
        ratios = []
        for sid in a["sid"][a["name"] == run_id]:
            mine = is_step & (a["parent"] == sid)
            if mine.sum() < min_steps:
                continue
            order = np.argsort(a["start"][mine])
            d = self.dur[mine][order]
            fifth = d.size // 5
            ratios.append(float(np.mean(d[-fifth:]) / np.mean(d[:fifth])))
        return float(np.median(ratios)) if ratios else 0.0
