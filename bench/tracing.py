"""Spans around calls into charrig's layers, installed from outside the
library.

``Tracer.install`` replaces each traced function by a wrapper in every
charrig module that binds it (``saturated_dominants`` is bound in
``lattice``, ``oracle``, ``rigidity`` and the package), so no call goes
round the wrapper.  Spans (name, start, end, parent) stay in memory and
are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

import importlib
import os
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import refs

# module: traced functions; a product of two CharElements is "ring.mul"
TRACED = {
    "lattice": ("saturated_dominants", "orbit"),
    "ring": ("CharElement.__mul__",),
    "oracle": ("freudenthal_character", "tensor_decompose", "decompose"),
    "rigidity": (
        "extract_structure_constants",
        "check_duality_condition",
        "check_support_condition",
        "reconstruct_family",
        "lr_table",
        "perturb_family",
        "verify_family",
    ),
    "serialize": ("table_from_doc", "table_to_doc", "family_to_doc", "family_from_doc", "dump_doc"),
    "cli": ("main",),
}

# the per-layer metrics a traced run reports, with their units
PER_LAYER = (
    ("lattice.saturated_dominants.calls", "count"),
    ("lattice.saturated_dominants.self_s", "s"),
    ("lattice.orbit.calls", "count"),
    ("lattice.orbit.self_s", "s"),
    ("ring.mul.calls", "count"),
    ("ring.mul.self_s", "s"),
    ("ring.mul.orbit_pairs", "count"),
    ("oracle.freudenthal_character.calls", "count"),
    ("oracle.freudenthal_character.self_s", "s"),
    ("oracle.tensor_decompose.calls", "count"),
    ("oracle.tensor_decompose.self_s", "s"),
    ("oracle.decompose.calls", "count"),
    ("oracle.decompose.self_s", "s"),
    ("oracle.decompose.constituents", "count"),
    ("oracle.cache.files", "count"),
    ("oracle.cache.bytes", "bytes"),
    ("rigidity.extract_structure_constants.calls", "count"),
    ("rigidity.extract_structure_constants.self_s", "s"),
    ("rigidity.check_duality_condition.self_s", "s"),
    ("rigidity.check_support_condition.self_s", "s"),
    ("rigidity.duality.triples_checked", "count"),
    ("rigidity.duality.triples_skipped", "count"),
    ("rigidity.reconstruct_family.self_s", "s"),
    ("rigidity.lr_table.self_s", "s"),
    ("rigidity.perturb_family.self_s", "s"),
    ("serialize.table_from_doc.self_s", "s"),
    ("serialize.table_to_doc.self_s", "s"),
    ("serialize.family_to_doc.self_s", "s"),
    ("serialize.family_from_doc.self_s", "s"),
    ("serialize.dump_doc.self_s", "s"),
    ("serialize.dump_doc.bytes", "bytes"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
)

MODULES = ("lattice", "ring", "oracle", "rigidity", "serialize", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self._undo: list = []
        self._orbit_sizes: dict = {}

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one per item."""
        if not self.active:
            yield
            return
        i = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(i)

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not traced."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(i, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str):
        """Counter hook run after a call returns, outside its span."""
        if name == "ring.mul":
            return lambda i, args, result: self._count_orbit_pairs(*args)
        if name == "lattice.saturated_dominants":
            duality = self.name_id("rigidity.check_duality_condition")

            def triples(i, args, result):
                p = self.parent[i]
                if p >= 0 and self.span_name[p] == duality:
                    self.counts["rigidity.duality.triples"] += len(result)

            return triples
        if name == "rigidity.check_duality_condition":
            return lambda i, args, result: self.counts.update(
                {"rigidity.duality.triples_skipped": len(result[1])}
            )
        if name == "oracle.decompose":
            return lambda i, args, result: self.counts.update(
                {"oracle.decompose.constituents": len(result)}
            )
        if name == "serialize.dump_doc":
            return lambda i, args, result: self.counts.update(
                {"serialize.dump_doc.bytes": len(result.encode())}
            )
        return None

    def _count_orbit_pairs(self, a, b) -> None:
        sizes = self._orbit_sizes
        for key in (*a.terms, *b.terms):
            if key not in sizes:
                sizes[key] = refs.orbit_count(key)
        self.counts["ring.mul.orbit_pairs"] += sum(sizes[k] for k in a.terms) * sum(
            sizes[k] for k in b.terms
        )

    def install(self) -> None:
        """Wrap every traced function wherever a charrig module binds it."""
        modules = [importlib.import_module("charrig")]
        modules += [importlib.import_module(f"charrig.{m}") for m in MODULES]
        ring = importlib.import_module("charrig.ring")
        for module, names in TRACED.items():
            mod = importlib.import_module(f"charrig.{module}")
            for attr in names:
                if attr == "CharElement.__mul__":
                    self._install_mul(ring.CharElement)
                    continue
                fn = getattr(mod, attr)
                name = f"{module}.{attr}"
                wrapper = self._wrap(name, fn, self._after(name))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            self._undo.append((m, key, fn))
                            setattr(m, key, wrapper)
        self.active = True

    def _install_mul(self, cls) -> None:
        fn = cls.__mul__
        product = self._wrap("ring.mul", fn, self._after("ring.mul"))

        def mul(a, b):
            # scaling by an integer is not a ring product
            if isinstance(b, cls):
                return product(a, b)
            return fn(a, b)

        for key in ("__mul__", "__rmul__"):
            self._undo.append((cls, key, getattr(cls, key)))
            setattr(cls, key, mul)

    def uninstall(self) -> None:
        self.active = False
        for target, key, fn in reversed(self._undo):
            setattr(target, key, fn)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def record_cache(self, cache_dir) -> None:
        files = sizes = 0
        if cache_dir and os.path.isdir(cache_dir):
            for entry in os.scandir(cache_dir):
                files += 1
                sizes += entry.stat().st_size
        self.counts["oracle.cache.files"] = files
        self.counts["oracle.cache.bytes"] = sizes

    def layer_totals(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_s[name] += self.end[i] - self.start[i] - covered[i]
        return calls, self_s

    def metrics(self) -> dict:
        calls, self_s = self.layer_totals()
        counts = dict(self.counts)
        counts["rigidity.duality.triples_checked"] = counts.pop(
            "rigidity.duality.triples", 0
        ) - counts.get("rigidity.duality.triples_skipped", 0)
        out = {}
        for metric, unit in PER_LAYER:
            name, _, kind = metric.rpartition(".")
            if kind == "calls":
                value = calls[name]
            elif kind == "self_s":
                value = self_s[name]
            else:
                value = counts.get(metric, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str) -> None:
        """One line per span: id, parent, name, start and end in seconds
        from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
