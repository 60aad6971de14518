"""Span tracing of the package's public functions, installed from outside.

`Tracer.install()` replaces every plain function listed in a layer module's
`__all__` (and `TrigPolynomial.evaluate`) by a timing wrapper, in every
`semifourier` namespace that holds it: a name bound by `from .x import f`
lives in several modules and must be patched in each.  `uninstall()` puts
the originals back, so untraced operations run the unmodified package.

Spans are kept in memory in column arrays and written out by `save()`.
Each span has a name, start, end, parent span and operation id.  Runs of
childless sibling calls to the same function (the per-mode `eigenvalue`
loops, say) are folded into one span that records the call count and the
summed busy time, which keeps memory bounded without losing self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("spectral", "quadrature", "ladder", "expansion", "catalog", "report", "verify", "cli")

# Functions reported together under one name: `render` delegates to the
# format renderers, `main` to `run` and the parser.
GROUPS = {
    "report.render_json": "report.render",
    "report.render_csv": "report.render",
    "cli.run": "cli.main",
    "cli.build_parser": "cli.main",
    "spectral.TrigPolynomial.evaluate": "spectral.trigpoly_evaluate",
}


def _integrate_key(args, kwargs):
    from semifourier.quadrature import DEFAULT_QUADRATURE

    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    spec = args[2] if len(args) > 2 else kwargs.get("spec", DEFAULT_QUADRATURE)
    return (cfg.a, cfg.b, spec.panels, spec.nodes_per_panel)


def _basis_points(args, kwargs, result):
    return float(np.size(args[2] if len(args) > 2 else kwargs["x"]))


def _integrate_nodes(args, kwargs, result):
    key = _integrate_key(args, kwargs)
    return float(key[2] * key[3])


def _rendered_bytes(args, kwargs, result):
    return float(len(result.encode()))


# Work counted per call, beside the call itself.
UNITS = {
    "spectral.basis_eval": _basis_points,
    "quadrature.integrate": _integrate_nodes,
    "report.render": _rendered_bytes,
}


class Tracer:
    """Installs the span wrappers and holds the spans they record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._originals: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self.op = -1
        self._next_id = 0
        self._stack: list[list] = []  # [span id, has_child]
        cols = ("id", "name", "parent", "op", "count")
        self.cols = {c: array("q") for c in cols}
        self.cols.update({c: array("d") for c in ("start", "end", "busy", "units")})
        self.keys: dict[int, tuple] = {}  # record index -> integrate (a, b, panels, nodes)
        self.errors: dict[int, str] = {}  # record index -> exception type
        self._last_foldable = False

    # ------------------------------------------------------------ patching

    def _targets(self):
        for layer in LAYERS:
            module = importlib.import_module(f"semifourier.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    yield f"{layer}.{attr}", fn
        from semifourier.spectral import TrigPolynomial

        yield "spectral.TrigPolynomial.evaluate", TrigPolynomial.evaluate

    def install(self) -> None:
        if not self._wrappers:
            for name, fn in self._targets():
                self._wrappers[id(fn)] = (fn, self._wrap(fn, name))
        from semifourier.spectral import TrigPolynomial

        holders = [mod for key, mod in sys.modules.items()
                   if key == "semifourier" or key.startswith("semifourier.")]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        original = TrigPolynomial.__dict__["evaluate"]
        self._originals.append((TrigPolynomial, "evaluate", original))
        setattr(TrigPolynomial, "evaluate", self._wrappers[id(original)][1])

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._originals):
            setattr(holder, attr, value)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        metric = GROUPS.get(name, name)
        if metric not in self.names:
            self.names.append(metric)
        name_id = self.names.index(metric)
        units = UNITS.get(metric)
        keyed = metric == "quadrature.integrate"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            sid = tracer._next_id
            tracer._next_id = sid + 1
            if stack:
                parent = stack[-1]
                parent[1] = True
                parent_id = parent[0]
            else:
                parent_id = -1
            frame = [sid, False]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter()
                stack.pop()
                tracer._record(sid, name_id, parent_id, t0, t1, True, 0.0,
                               _integrate_key(args, kwargs) if keyed else None, type(exc).__name__)
                raise
            t1 = perf_counter()
            stack.pop()
            tracer._record(sid, name_id, parent_id, t0, t1, frame[1],
                           units(args, kwargs, result) if units else 0.0,
                           _integrate_key(args, kwargs) if keyed else None, None)
            return result

        return functools.wraps(fn)(traced)

    def _record(self, sid, name_id, parent_id, t0, t1, had_child, units, key, error) -> None:
        c = self.cols
        foldable = not had_child and key is None and error is None
        if (foldable and self._last_foldable and c["name"][-1] == name_id
                and c["parent"][-1] == parent_id and c["op"][-1] == self.op):
            # fold into the previous childless sibling call of the same function
            c["end"][-1] = t1
            c["busy"][-1] += t1 - t0
            c["count"][-1] += 1
            c["units"][-1] += units
            return
        self._last_foldable = foldable
        index = len(c["id"])
        c["id"].append(sid)
        c["name"].append(name_id)
        c["parent"].append(parent_id)
        c["op"].append(self.op)
        c["count"].append(1)
        c["start"].append(t0)
        c["end"].append(t1)
        c["busy"].append(t1 - t0)
        c["units"].append(units)
        if key is not None:
            self.keys[index] = key
        if error is not None:
            self.errors[index] = error

    # ------------------------------------------------------------ analysis

    def column(self, name: str) -> np.ndarray:
        col = self.cols[name]
        return np.frombuffer(col, dtype=np.int64 if col.typecode == "q" else np.float64).copy()

    def self_times(self) -> np.ndarray:
        """Busy time of each span minus the busy time of its child spans."""
        ids, parents, busy = self.column("id"), self.column("parent"), self.column("busy")
        child = np.zeros(len(busy))
        has_parent = parents >= 0
        order = np.argsort(ids)
        pos = order[np.searchsorted(ids, parents[has_parent], sorter=order)]
        np.add.at(child, pos, busy[has_parent])
        return busy - child

    def save(self, path) -> None:
        """Write every span (one row per span, folded calls counted) to an .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{("calls" if c == "count" else c): self.column(c) for c in self.cols},
        )
