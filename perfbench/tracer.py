"""Spans around calls into heckeprod's public functions.

The tracer wraps each traced name from benchmark code and rebinds the
wrapper wherever a heckeprod module holds the original, so calls made from
inside the package are timed too.  Nothing in ``src/heckeprod`` changes.

Each span records a name, its start and end, its parent span and the id of
the benchmark item it belongs to.  Spans live in flat arrays while the run
is timed and are written out afterwards.  A span's self time is its
duration minus the durations of its children; calls are sequential, so
children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

# layer (package module) -> traced public names; "Class.method" wraps a
# method on the class, and "Class.__init__" is reported as "Class".
TRACED = {
    "partitions": ("beta_row", "from_beta", "multisegment_of",
                   "make_partition", "content_count"),
    "symbols": ("symbol_of", "is_standard", "pair_structure",
                "standard_ancestors"),
    "multisegments": ("multisegment_of_symbol", "max_segment_length"),
    "products": ("normalize_inputs", "expansion", "composition_factors",
                 "Expansion.__init__", "Expansion.factors"),
    "schurweyl": ("tensor_factors", "drinfeld"),
    "cli": ("main",),
}

# Library calls the batch command makes to compute a record's answer;
# everything else under ``cli.main`` is enumeration, rendering and writes.
BATCH_LIBRARY = ("products.expansion", "products.Expansion.factors")


class TracedNameMissing(RuntimeError):
    """A public name the tracer times is no longer in the package."""


def _span_name(layer: str, name: str) -> str:
    return f"{layer}.{name.removesuffix('.__init__')}"


def _row_entries(args) -> int:
    sigma = args[0]
    return len(sigma.top) + len(sigma.bottom)


# span name -> function of the call's arguments, recorded as the span's size
ARG_SIZE = {"symbols.standard_ancestors": _row_entries}


class Tracer:
    """Spans of one process: install, record the timed section, summarise."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.item: array = array("i")
        self.result_len: array = array("i")
        self.size: array = array("i")
        self.current_item = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []
        # read by every wrapper, so that references taken while installed
        # (such as `from heckeprod import ...`) obey it too
        self._recording = [False]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        size_of = ARG_SIZE.get(name)
        clock = time.perf_counter
        stack = self._stack
        recording = self._recording
        starts, ends, parents = self.start, self.end, self.parent
        name_ids, items, lens, sizes = (self.name_id, self.item,
                                        self.result_len, self.size)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recording[0]:
                return fn(*args, **kwargs)
            sid = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            items.append(self.current_item)
            sizes.append(size_of(args) if size_of else -1)
            lens.append(-1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if isinstance(result, tuple):
                lens[sid] = len(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in TRACED; raise if one has disappeared."""
        modules = {layer: importlib.import_module(f"heckeprod.{layer}")
                   for layer in TRACED}
        for layer, names in TRACED.items():
            for dotted in names:
                owner_name, _, attr = dotted.rpartition(".")
                owner = modules[layer]
                if owner_name:
                    owner = getattr(owner, owner_name, None)
                original = getattr(owner, attr, None) if owner else None
                if original is None or (owner_name and attr not in vars(owner)):
                    raise TracedNameMissing(
                        f"heckeprod.{layer}.{dotted} is gone; the traced "
                        "run cannot attribute its time"
                    )
                wrapper = self.wrap(_span_name(layer, dotted), original)
                if owner_name:
                    self._patch(owner, attr, wrapper)
                    continue
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").partition(".")[0] != "heckeprod":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)

    def record(self, on: bool) -> None:
        """Spans are kept only while recording: the timed section."""
        self._recording[0] = on

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the originals back."""
        self._recording[0] = False
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write("id\tname\tstart\tend\tparent\titem\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{self.names[self.name_id[sid]]}\t"
                    f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\t"
                    f"{self.parent[sid]}\t{self.item[sid]}\n"
                )

    def summary(self, wall_s: float) -> dict:
        """Per-name and per-layer totals for the traced section."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                children[self.parent[i]] += duration[i]
        by_name = {name: {"calls": 0, "self_s": 0.0, "max_ms": 0.0,
                          "results": 0}
                   for name in self.names}
        layers = {layer: 0.0 for layer in TRACED}
        row_entries_max = 0
        batch_library_s = 0.0
        survivors = factors_under_tensor = 0
        for i in range(n):
            name = self.names[self.name_id[i]]
            own = duration[i] - children[i]
            stats = by_name[name]
            stats["calls"] += 1
            stats["self_s"] += own
            stats["max_ms"] = max(stats["max_ms"], duration[i] * 1e3)
            stats["results"] += max(self.result_len[i], 0)
            layers[name.partition(".")[0]] += own
            row_entries_max = max(row_entries_max, self.size[i])
            parent = self.parent[i]
            parent_name = (self.names[self.name_id[parent]]
                           if parent >= 0 else None)
            if parent_name == "cli.main" and name in BATCH_LIBRARY:
                batch_library_s += duration[i]
            if parent_name == "schurweyl.tensor_factors" \
                    and name == "products.composition_factors":
                factors_under_tensor += max(self.result_len[i], 0)
            if name == "schurweyl.tensor_factors":
                survivors += max(self.result_len[i], 0)
        return {
            "spans": n,
            "wall_s": wall_s,
            "by_name": by_name,
            "layers": layers,
            "row_entries_max": row_entries_max,
            "batch_library_s": batch_library_s,
            "survivors": survivors,
            "factors_under_tensor": factors_under_tensor,
        }
