"""Span tracer installed from outside the lietrees package.

The layers are the package's modules.  A wrapper is installed around
every function and every class method that one lietrees module imports
from another (found by reading the package source, so function-local
imports and `from . import module` attribute access are covered), in
the defining module and in every namespace that bound the name at
import time.  A call through a wrapper opens a span only when it
crosses from one layer into another; a call that stays inside its own
layer passes straight through, apart from the few counters below that
count every call.

Spans (name, parent, job, start, end) are kept in memory in flat arrays
and written once, at exit, by `Tracer.dump`.  Per-layer aggregates are
kept as spans close:

- `calls`: spans opened in the layer (cache hits included);
- `busy_s`: wall time during which the layer is on the span stack;
- `self_s`: span time minus the time covered by child spans, which are
  always in other layers.
"""

from __future__ import annotations

import ast
import functools
import importlib
import inspect
import json
import os
import time
from array import array

LAYERS = ("cli", "documents", "exact_linalg", "free_lie", "jacobi",
          "johnson", "koszul", "symplectic", "tensor_hopf")

# exact_linalg entry points that eliminate a freshly assembled matrix;
# BlockSolver.solve replays a recorded elimination and counts as a solve.
_BUILDS = frozenset({"BlockSolver.__init__", "_eliminate", "rank_of_columns",
                     "echelon_reduce", "solve", "kernel_basis"})


def _cells(name: str, args: tuple) -> int:
    """rows x cols of the matrix handed to an exact_linalg build."""
    if name == "BlockSolver.__init__":
        return len(args[1]) * len(args[2])
    if name == "_eliminate":
        return len(args[0]) * args[1]
    if name == "rank_of_columns":
        return len({k for col in args[0] for k in col}) * len(args[0])
    if name == "echelon_reduce":
        return len(args[0]) * args[1]
    a = args[0]                                   # a MatrixQ
    return a.rows * a.cols


def cross_module_imports(package_dir: str) -> dict[str, set[str]]:
    """Map each package module to the names other package modules take from it."""
    modules = {f[:-3] for f in os.listdir(package_dir) if f.endswith(".py")}
    found: dict[str, set[str]] = {m: set() for m in modules}
    for importer in sorted(modules):
        with open(os.path.join(package_dir, importer + ".py"),
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        module_aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            for alias in node.names:
                if node.module is None:
                    module_aliases[alias.asname or alias.name] = alias.name
                elif node.module != importer:
                    found[node.module].add(alias.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in module_aliases):
                found[module_aliases[node.value.id]].add(node.attr)
    return found


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.job = -1
        self.layer = "bench"
        self.stack: list[list] = []          # [span index, child time]
        self.depth = {layer: 0 for layer in LAYERS}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.busy = dict.fromkeys(LAYERS, 0.0)
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.counters = {
            "free_lie.bracket_basis_calls": 0,
            "tensor_hopf.coproduct_terms": 0,
            "exact_linalg.builds": 0,
            "exact_linalg.build_s": 0.0,
            "exact_linalg.solves": 0,
            "exact_linalg.solve_s": 0.0,
            "exact_linalg.max_block_cells": 0,
            "jacobi.eta_calls": 0,
            "documents.bytes_in": 0,
            "documents.bytes_out": 0,
        }

    # -- wrapping

    def wrap(self, fn, layer: str, name: str):
        """A traced stand-in for fn, attributed to layer."""
        name_id = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.name_layer.append(layer)
        counters = self.counters
        stack, depth = self.stack, self.depth
        calls, busy, self_time = self.calls, self.busy, self.self_time
        span_name, span_parent, span_job = (self.span_name, self.span_parent,
                                            self.span_job)
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter
        count_all = _count_every_call(layer, name, counters)
        linalg = layer == "exact_linalg" and (
            name in _BUILDS or name == "BlockSolver.solve")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.layer == layer:
                if count_all is None:
                    return fn(*args, **kwargs)
                result = fn(*args, **kwargs)
                count_all(args, result)
                return result
            idx = len(span_start)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_job.append(self.job)
            outer = self.layer
            self.layer = layer
            entry = [idx, 0.0]
            stack.append(entry)
            depth[layer] += 1
            if linalg and name != "BlockSolver.solve":
                cells = _cells(name, args)
            span_end.append(0.0)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                span_end[idx] = end
                stack.pop()
                self.layer = outer
                depth[layer] -= 1
                dur = end - start
                calls[layer] += 1
                self_time[layer] += dur - entry[1]
                if not depth[layer]:
                    busy[layer] += dur
                if stack:
                    stack[-1][1] += dur
            if count_all is not None:
                count_all(args, result)
            if linalg:
                if name == "BlockSolver.solve":
                    counters["exact_linalg.solves"] += 1
                    counters["exact_linalg.solve_s"] += dur
                else:
                    counters["exact_linalg.builds"] += 1
                    counters["exact_linalg.build_s"] += dur
                    if cells > counters["exact_linalg.max_block_cells"]:
                        counters["exact_linalg.max_block_cells"] = cells
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every cross-module import of the package."""
        package_dir = os.path.dirname(package.__file__)
        imports = cross_module_imports(package_dir)
        namespaces = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in sorted(imports) if m not in ("__init__", "__main__")]
        for home in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{home}")
            for name in sorted(imports[home]):
                obj = getattr(module, name, None)
                if inspect.isclass(obj):
                    if obj.__module__ == module.__name__:
                        self._wrap_class(obj, home, package_dir)
                elif callable(obj) and _defined_in(obj, package_dir):
                    traced = self.wrap(obj, home, name)
                    for namespace in namespaces:
                        for local, value in list(vars(namespace).items()):
                            if value is obj:
                                setattr(namespace, local, traced)

    def _wrap_class(self, cls, layer: str, package_dir: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif isinstance(raw, property):
                fn = raw.fget
            else:
                fn = raw
            if not (inspect.isfunction(fn) and _defined_in(fn, package_dir)):
                continue
            traced = self.wrap(fn, layer, f"{cls.__name__}.{attr}")
            if isinstance(raw, property):
                traced = raw.getter(traced)
            elif isinstance(raw, (classmethod, staticmethod)):
                traced = type(raw)(traced)
            setattr(cls, attr, traced)

    # -- results

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy[layer]
            out[f"{layer}.self_s"] = self.self_time[layer]
        out.update(self.counters)
        return out

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"columns": ["name", "layer", "start", "end",
                                             "parent", "job"]}) + "\n")
            for i in range(len(self.span_start)):
                n = self.span_name[i]
                fh.write(f'["{self.names[n]}","{self.name_layer[n]}",'
                         f"{self.span_start[i]!r},{self.span_end[i]!r},"
                         f"{self.span_parent[i]},{self.span_job[i]}]\n")


def _defined_in(fn, package_dir: str) -> bool:
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code is not None and os.path.dirname(code.co_filename) == package_dir


def _count_every_call(layer: str, name: str, counters: dict):
    """Counter update run on every call of one of the counted functions."""
    key = f"{layer}.{name}"
    if key == "free_lie.bracket_basis":
        def count(args, result):
            counters["free_lie.bracket_basis_calls"] += 1
    elif key == "tensor_hopf.coproduct":
        def count(args, result):
            counters["tensor_hopf.coproduct_terms"] += len(result)
    elif key == "jacobi.eta":
        def count(args, result):
            counters["jacobi.eta_calls"] += 1
    elif key == "documents.load_json":
        def count(args, result):
            counters["documents.bytes_in"] += len(args[0].encode())
    elif key in ("documents.dump_json", "documents.tree_combo_to_text"):
        def count(args, result):
            counters["documents.bytes_out"] += len(result.encode())
    else:
        return None
    return count
