"""Call spans around the public functions of each spinchain module.

The benchmark wraps every public function of every layer from the outside;
no file of the package changes.  A function imported by name into another
module (``from .linalg import embed``) is bound there too, so it is replaced
in every module namespace that holds it, or calls through that name would
be missed.

A span is (name, start, end, parent).  Spans are kept in memory and written
out once the run ends.  A span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

LAYERS = ("linalg", "algebra", "braid", "rmatrix", "lax", "boundary", "bethe", "cli")

# Functions whose returned matrix size is recorded, as computed bytes.
BYTES_OF = frozenset({"linalg.embed", "linalg.embed_pair", "linalg.embed_wrap_pair"})


def _nbytes(value) -> int:
    entries = getattr(value, "entries", value)
    return int(getattr(entries, "nbytes", 0))


class Tracer:
    """Records one span per call of a wrapped function, in one thread."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.bytes: dict = {}
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        count_bytes = name in BYTES_OF

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if count_bytes:
                self.bytes[name] = self.bytes.get(name, 0) + _nbytes(out)
            return out

        return traced

    def install(self, package) -> set:
        """Wrap the public functions of every layer; returns their span names."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        wrapped = set()
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                wrapped.add(f"{layer}.{attr}")
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._patched.append((holder, key, fn))
                            setattr(holder, key, traced)
        return wrapped

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus the root-span total.

        Raises ValueError when a child span is not inside its parent, since
        self times would then not add up.
        """
        child_time = [0.0] * len(self.starts)
        roots = 0.0
        for i, parent in enumerate(self.parents):
            dur = self.ends[i] - self.starts[i]
            if parent < 0:
                roots += dur
                continue
            if self.starts[i] < self.starts[parent] or self.ends[i] > self.ends[parent]:
                raise ValueError(f"span {i} ({self.names[i]}) leaves its parent")
            child_time[parent] += dur
        by_name: dict = {}
        for i, name in enumerate(self.names):
            rec = by_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += self.ends[i] - self.starts[i] - child_time[i]
        return {"by_name": by_name, "root_s": roots, "spans": len(self.names)}

    def write(self, path, origin: float) -> None:
        """One JSON line per span, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i],
                    "start": self.starts[i] - origin, "end": self.ends[i] - origin,
                }) + "\n")
