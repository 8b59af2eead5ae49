"""Outside-in tracer for bstar's public functions.

The tracer wraps a fixed list of public functions and methods and rebinds
each wrapper wherever bstar holds the original by name: in every
``bstar`` module namespace (``from .linalg import rank`` binds ``rank`` in
``homology`` too) and, for methods, on the class.  After rebinding, a
completeness check scans every bstar module, class and function for a
surviving reference to an original; a traced run refuses to report if one
is found, since calls through it would go uncounted.

Each wrapper records calls, inclusive time and self time (its span minus
the spans of wrapped functions it called).  Nothing inside bstar changes;
``uninstall`` restores every original binding.
"""

from __future__ import annotations

import sys
import types
from time import perf_counter

FIELDS = ("Q", "F2", "F3")
SUITES = (
    "balanced-lbt", "euler-corollary", "flag-lower-bound", "h3-bound",
    "hierarchy", "lemma-oracle", "m-rank-selection", "orientability-rp2",
    "rank-selection", "stanley-hnums", "swartz-identity",
)

# (module, attribute path, how calls are keyed).  "field" keys a call by
# the label of its coefficient-field argument, "suite" by the suite name.
TARGETS = (
    ("complexes", "build", None),
    ("complexes", "Complex.link", None),
    ("complexes", "Complex.delete", None),
    ("complexes", "Complex.contrastar", None),
    ("complexes", "Complex.missing_faces", None),
    ("complexes", "Complex.faces", None),
    ("linalg", "rank", "field"),
    ("linalg", "kernel_basis", "field"),
    ("homology", "reduced_betti", "field"),
    ("homology", "relative_betti_vector", None),
    ("homology", "top_restriction_surjective", None),
    ("homology", "pair_restriction_surjective", None),
    ("homology", "load_betti_cache", None),
    ("homology", "save_betti_cache", None),
    ("files", "parse", None),
    ("cli", "main", None),
    ("properties", "is_cohen_macaulay", None),
    ("properties", "is_buchsbaum", None),
    ("properties", "is_buchsbaum_star", None),
    ("properties", "is_m_cm", None),
    ("properties", "is_m_buchsbaum_star", None),
    ("properties", "is_doubly_buchsbaum", None),
    ("properties", "rank_selected", None),
    ("facevectors", "f_vector", None),
    ("facevectors", "h_vector", None),
    ("facevectors", "h_prime_vector", None),
    ("facevectors", "short_simplicial_h", None),
    ("suites", "run_suite", "suite"),
    ("suites", "explore_question", None),
)

RANK = "linalg.rank"
BETTI = "homology.reduced_betti"
INCLUSIVE = ("suites.",)


def _keys(module, path, split):
    base = f"{module}.{path}"
    if split == "field":
        return [f"{base}.{f}" for f in FIELDS]
    if split == "suite":
        return [f"{base}.{s}" for s in SUITES]
    return [base]


def metric_units() -> dict:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for module, path, split in TARGETS:
        for key in _keys(module, path, split):
            units[f"{key}.calls"] = "count"
            units[f"{key}.self_s"] = "s"
            if key.startswith(INCLUSIVE):
                units[f"{key}.incl_s"] = "s"
            if key.startswith(RANK):
                units[f"{key}.cells"] = "count"
                units[f"{key}.nnz"] = "count"
            if key.startswith(BETTI):
                units[f"{key}.miss_ratio"] = "ratio"
    return units


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "cells", "nnz", "misses")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.cells = 0
        self.nnz = 0
        self.misses = 0


class IncompleteTraceError(RuntimeError):
    """An original function is still reachable after rebinding."""


class Tracer:
    """Installs the wrappers into an imported bstar package."""

    def __init__(self, package: types.ModuleType):
        self.package = package
        self.stats: dict = {}
        self._stack = [0.0]
        self._rank_calls = 0
        self._originals = {}      # id(original) -> (original, wrapper)
        self._bindings = []       # (namespace owner, name, original)
        for module, path, split in TARGETS:
            owner = getattr(package, module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, f"{module}.{path}", split)
            self._originals[id(original)] = (original, wrapper)

    def _wrap(self, original, name, split):
        stack = self._stack
        stats = self.stats
        is_rank = name == RANK
        is_betti = name == BETTI

        def wrapper(*args, **kwargs):
            if split == "field":
                key = f"{name}.{(args[1] if len(args) > 1 else kwargs['field']).label}"
            elif split == "suite":
                key = f"{name}.{args[0] if args else kwargs['name']}"
            else:
                key = name
            if is_rank:
                self._rank_calls += 1
            ranks_before = self._rank_calls
            stack.append(0.0)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                span = perf_counter() - start
                children = stack.pop()
                stack[-1] += span
                st = stats.get(key)
                if st is None:
                    st = stats[key] = Stat()
                st.calls += 1
                st.incl_s += span
                st.self_s += span - children
                if is_rank:
                    m = args[0] if args else kwargs["m"]
                    st.cells += m.nrows * m.ncols
                    st.nnz += len(m.entries)
                if is_betti and self._rank_calls > ranks_before:
                    st.misses += 1

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__qualname__ = getattr(original, "__qualname__", name)
        return wrapper

    def _bstar_modules(self):
        prefix = self.package.__name__ + "."
        return [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package.__name__
                                      or n.startswith(prefix))]

    def install(self) -> None:
        """Rebind every wrapper, then refuse if any original survives."""
        self.stats.clear()
        for module in self._bstar_modules():
            namespaces = [module] + [
                v for v in vars(module).values()
                if isinstance(v, type) and v.__module__ == module.__name__]
            for owner in namespaces:
                for name, value in list(vars(owner).items()):
                    hit = self._originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._bindings.append((owner, name, value))
                        setattr(owner, name, hit[1])
        leaks = self.find_originals()
        if leaks:
            self.uninstall()
            raise IncompleteTraceError(
                "original functions still reachable: " + ", ".join(leaks))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    def find_originals(self) -> list:
        """Places in bstar that still reference an original function:
        module and class namespaces, containers held there (one level),
        and function defaults and closures."""
        leaks = []

        def check(value, where):
            hit = self._originals.get(id(value))
            if hit is not None and hit[0] is value:
                leaks.append(where)

        def check_function(fn, where):
            for i, d in enumerate(fn.__defaults__ or ()):
                check(d, f"{where} default {i}")
            for k, d in (fn.__kwdefaults__ or {}).items():
                check(d, f"{where} default {k}")
            for cell in fn.__closure__ or ():
                try:
                    check(cell.cell_contents, f"{where} closure")
                except ValueError:
                    pass

        for module in self._bstar_modules():
            owners = [(module.__name__, vars(module))]
            owners += [(f"{module.__name__}.{v.__name__}", vars(v))
                       for v in vars(module).values()
                       if isinstance(v, type) and v.__module__ == module.__name__]
            for owner_name, namespace in owners:
                for name, value in namespace.items():
                    where = f"{owner_name}.{name}"
                    check(value, where)
                    if isinstance(value, dict):
                        items = list(value.values()) + list(value.keys())
                    elif isinstance(value, (list, tuple, set, frozenset)):
                        items = list(value)
                    else:
                        items = []
                    for item in items:
                        check(item, f"{where}[...]")
                        if isinstance(item, tuple):
                            for sub in item:
                                check(sub, f"{where}[...][...]")
                        if isinstance(item, types.FunctionType):
                            check_function(item, f"{where}[...]")
                    if isinstance(value, (staticmethod, classmethod)):
                        value = value.__func__
                    if isinstance(value, property):
                        value = value.fget
                    if (isinstance(value, types.FunctionType)
                            and value.__module__ == module.__name__):
                        check_function(value, where)
        return leaks

    def snapshot(self) -> dict:
        """Per-layer metrics of everything traced since ``install``."""
        out = {}
        for key, unit in metric_units().items():
            base, _, field = key.rpartition(".")
            st = self.stats.get(base)
            if st is None:
                value = 0.0 if unit in ("s", "ratio") else 0
            elif field == "miss_ratio":
                value = st.misses / st.calls
            else:
                value = getattr(st, field)
            out[key] = value
        return out

    def unknown_keys(self) -> list:
        """Traced keys outside the reported metric list (an unexpected
        field or suite), so that a run cannot drop work silently."""
        known = {k.rpartition(".")[0] for k in metric_units()}
        return sorted(set(self.stats) - known)
