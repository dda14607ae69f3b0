"""In-memory spans around the public functions of each coxlab layer.

``Tracer.installed()`` replaces every public function of the six layer
modules, in its own module and under every name another coxlab module
imported it as, with a wrapper that records one span per call: name,
parent span, start, end and whether it raised.  The coefficient
callables of each returned ``SeparatedODE`` are wrapped as
``backgrounds.coef_eval`` and the branch callables of each Airy pair as
``axial.airy_eval``.  Nothing under ``src/`` changes; leaving the
context restores the original functions.

Spans are columns of machine integers appended in start order, so the
parent of a span always has a smaller index.  ``aggregate`` turns them
into per-function calls, busy time (outermost spans of that function
only, so recursion is not counted twice), self time (duration minus
direct children) and failures.
"""

from __future__ import annotations

import contextlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("tensor_algebra", "backgrounds", "radial", "axial", "special_functions", "cli")
ROOT = "bench.request"

_ODE_CALLABLES = ("pcoef", "qcoef", "weight")
_AIRY_CALLABLES = ("z1", "z2", "dz1", "dz2")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


# work counted at the boundary: (span name, counter name, amount per call)
_COUNTERS = {
    "radial.solve_radial_eigen": ("radial.solve_radial_eigen.cells",
                                  lambda a, k: 3 * _arg(a, k, 2, "grid").points),  # n and 2n cells
    "axial.integrate_axial": ("axial.integrate_axial.steps", lambda a, k: _arg(a, k, 3, "steps")),
    "axial.potential_profile": ("axial.potential_profile.samples",
                                lambda a, k: _arg(a, k, 4, "samples")),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.failed = array("b")
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, post=None):
        nid = self._id(name)
        names, parents, starts, ends, failed = self.name, self.parent, self.start, self.end, self.failed
        stack = self._stack
        clock = time.perf_counter_ns
        counter = _COUNTERS.get(name)
        counters = self.counters

        def traced(*args, **kwargs):
            if counter is not None:
                counters[counter[0]] = counters.get(counter[0], 0) + counter[1](args, kwargs)
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            failed.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            return post(out) if post is not None else out

        traced.__wrapped__ = fn
        return traced

    # -- wrapping returned callables ---------------------------------------

    def _wrap_ode(self, ode):
        for owner in (ode, getattr(ode, "schrodinger", None)):
            if owner is None:
                continue
            for attr in _ODE_CALLABLES:
                fn = getattr(owner, attr, None)
                if fn is not None and not hasattr(fn, "__wrapped__"):
                    setattr(owner, attr, self.wrap("backgrounds.coef_eval", fn))
        return ode

    def _wrap_airy(self, pair):
        for attr in _AIRY_CALLABLES:
            setattr(pair, attr, self.wrap("axial.airy_eval", getattr(pair, attr)))
        return pair

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        import coxlab.cli  # noqa: F401  (cli is not imported by the package itself)

        modules = {layer: __import__(f"coxlab.{layer}", fromlist=["_"]) for layer in LAYERS}
        originals = {}
        for layer, mod in modules.items():
            public = ["main"] if layer == "cli" else mod.__all__
            for fname in public:
                fn = getattr(mod, fname)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[fn] = f"{layer}.{fname}"
        posts = {"backgrounds.assemble_radial_ode": self._wrap_ode,
                 "backgrounds.assemble_axial_ode": self._wrap_ode,
                 "axial.airy_pair": self._wrap_airy}
        wrappers = {fn: self.wrap(name, fn, posts.get(name)) for fn, name in originals.items()}
        patched = []
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays())

    def aggregate(self) -> dict:
        """Per span name: calls, busy_s, self_s, failed; plus layer totals."""
        a = self.arrays()
        names = np.array(self.names + ["<none>"])
        name, parent, failed = a["name"], a["parent"], a["failed"]
        dur = (a["end"] - a["start"]).astype(np.float64) * 1e-9
        n = len(name)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        layer_of = np.array([nm.split(".")[0] for nm in names])
        # flag spans with an ancestor of the same name / of the same layer
        same_name = np.zeros(n, dtype=bool)
        same_layer = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while np.any(anc >= 0):
            live = anc >= 0
            idx = np.where(live, anc, 0)
            same_name |= live & (name[idx] == name)
            same_layer |= live & (layer_of[name[idx]] == layer_of[name])
            anc = np.where(live, parent[idx], -1)
        per_name = {}
        for nid, nm in enumerate(self.names):
            sel = name == nid
            per_name[nm] = {
                "calls": int(np.count_nonzero(sel)),
                "busy_s": float(dur[sel & ~same_name].sum()),
                "self_s": float(self_t[sel].sum()),
                "failed": int(failed[sel].sum()),
            }
        per_layer = {}
        for layer in LAYERS:
            sel = (layer_of[name] == layer) & ~same_layer
            per_layer[layer] = {"outer_calls": int(np.count_nonzero(sel)),
                                "busy_s": float(dur[sel].sum())}
        return {"functions": per_name, "layers": per_layer, "counters": dict(self.counters)}
