"""Out-of-program tracing of torikit's layers.

``Tracer.install`` wraps the public functions of each torikit module and
the public methods of ``Cone``, ``Fan`` and ``HomogeneousDerivation``,
rebinding every name under which a ``torikit.*`` module holds them.
Each call records a span (name, start, end, parent, op, value) in
memory, in compact columns; a span's index is the order in which it was
entered, so a parent's index is always below its children's.  ``value``
is the size of the result for the few calls whose yield is counted, and
-1 otherwise.  ``uninstall`` puts every original back.

The vector primitives of ``torikit.lattice`` (``pairing``, ``add`` and
friends) are not wrapped: they run millions of times per pass, and a
wrapper on each would measure the tracer.  Their time counts as self
time of the calling layer.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("cli", "lattice", "cone", "semigroup", "fan", "derivations")

# classes whose public methods are spans, by module
TRACED_CLASSES = {"cone": ("Cone",), "fan": ("Fan",), "derivations": ("HomogeneousDerivation",)}

LATTICE_PRIMITIVES = frozenset(
    {"vector", "pairing", "add", "sub", "neg", "scale", "content", "primitive", "is_primitive"}
)

# span name -> how to measure the result of the call
_YIELD = {
    "semigroup.hilbert_basis": lambda r: len(r.generators),
    "derivations.is_root": lambda r: int(bool(r)),
    "derivations.enumerate_roots": len,
}


class Spans:
    """Recorded spans as columns; span ``i`` is the ``i``-th one entered."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.value = array("q")

    def __len__(self) -> int:
        return len(self.start)

    def clear(self) -> None:
        for column in (self.name, self.start, self.end, self.parent, self.op, self.value):
            del column[:]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def rows(self):
        """(index, name, start, end, parent, op, value) for every span."""
        names = self.names
        return zip(range(len(self)), (names[i] for i in self.name), self.start, self.end,
                   self.parent, self.op, self.value)

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines, in index order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("index\tname\tstart\tend\tparent\top\tvalue\n")
            for row in self.rows():
                out.write("\t".join(map(str, row)) + "\n")


class Tracer:
    """Wrappers around torikit's layers that record into ``spans``."""

    def __init__(self) -> None:
        self.spans = Spans()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, measure = self.spans, self._stack, _YIELD.get(name)
        name_id = spans.name_id(name)
        names, starts, ends = spans.name, spans.start, spans.end
        parents, ops, values = spans.parent, spans.op, spans.value
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            values.append(-1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[index] = clock()
                stack.pop()
                if measure is not None and result is not None:
                    values[index] = measure(result)

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "torikit" or n.startswith("torikit.")]
        wrapped: dict[int, object] = {}
        for name, owner, attr, original in targets():
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original)
                replacement = wrapped[id(original)]
            if inspect.isclass(owner):
                self._patch(owner, attr, replacement)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, replacement)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def targets() -> list[tuple[str, object, str, object]]:
    """(span name, owner, attribute, original) for everything to wrap."""
    out = []
    for layer in LAYERS:
        module = sys.modules[f"torikit.{layer}"]
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
                and not (layer == "lattice" and attr in LATTICE_PRIMITIVES)
            ):
                out.append((f"{layer}.{attr}", module, attr, value))
        for cls_name in TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for attr, value in vars(cls).items():
                if attr.startswith("_") and attr != "__call__":
                    continue
                if isinstance(value, classmethod):
                    value = value.__func__
                elif not inspect.isfunction(value):
                    continue
                label = "apply" if value.__name__ == "__call__" else value.__name__
                out.append((f"{layer}.{label}", cls, attr, vars(cls)[attr]))
    return out


def self_times(spans: Spans) -> array:
    """Each span's duration minus the durations of its direct children."""
    own = array("d", (e - s for s, e in zip(spans.start, spans.end)))
    for i, p in enumerate(spans.parent):
        if p >= 0:
            own[p] -= spans.end[i] - spans.start[i]
    return own


def layer_metrics(spans: Spans, ops: int) -> dict[str, float]:
    """Per-op counts, times and ratios of one traced pass of ``ops`` operations.

    One forward pass: a parent is entered before its children, so whether a
    span lies under ``hilbert_basis`` or ``from_cones`` is known from its
    parent's flag when the span is reached."""
    ids = {n: i for i, n in enumerate(spans.names)}
    layer_of = [n.split(".")[0] for n in spans.names]
    hilbert, from_cones = ids.get("semigroup.hilbert_basis", -2), ids.get("fan.from_cones", -2)
    intersect, contains = ids.get("cone.intersect", -2), ids.get("cone.contains", -2)
    solve, is_root = ids.get("lattice.solve_rational", -2), ids.get("derivations.is_root", -2)

    own = self_times(spans)
    in_hilbert = bytearray(len(spans))
    in_from_cones = bytearray(len(spans))
    calls = [0] * len(spans.names)
    self_seconds = dict.fromkeys(LAYERS, 0.0)
    pair_checks = sieve_contains = root_contains = solves_in_hilbert = 0
    generators_out = roots_found = 0
    from_cones_seconds = 0.0
    for i, (n, start, end, p, value) in enumerate(
        zip(spans.name, spans.start, spans.end, spans.parent, spans.value)
    ):
        calls[n] += 1
        self_seconds[layer_of[n]] += own[i]
        pn = spans.name[p] if p >= 0 else -1
        if p >= 0:
            in_hilbert[i] = in_hilbert[p] or pn == hilbert
            in_from_cones[i] = in_from_cones[p] or pn == from_cones
        if n == intersect and pn == from_cones:
            pair_checks += 1
        elif n == contains and pn >= 0:
            sieve_contains += layer_of[pn] == "semigroup"
            root_contains += layer_of[pn] == "derivations"
        elif n == solve and in_hilbert[i]:
            solves_in_hilbert += 1
        elif n == hilbert:
            generators_out += value
        elif n == is_root:
            roots_found += value
        elif n == from_cones and not in_from_cones[i]:
            from_cones_seconds += end - start

    per_op = 1.0 / ops
    count = {name: calls[i] for name, i in ids.items()}
    m = {
        "fan.pair_checks": pair_checks * per_op,
        "fan.from_cones.ms_per_op": from_cones_seconds * 1000 * per_op,
        "semigroup.useful_ratio": generators_out / solves_in_hilbert if solves_in_hilbert else 0.0,
        "semigroup.sieve_contains.calls": sieve_contains * per_op,
        "semigroup.generators_out": generators_out * per_op,
        "derivations.root_hit_ratio": roots_found / count["derivations.is_root"] if roots_found else 0.0,
        "derivations.contains.calls": root_contains * per_op,
    }
    for name in ("cone.intersect", "fan.split_torus_factor", "lattice.smith_normal_form",
                 "lattice.solve_rational", "derivations.is_root", "derivations.enumerate_roots",
                 "derivations.apply", "cone.from_rays", "cone.faces", "lattice.saturated_span"):
        m[f"{name}.calls"] = count.get(name, 0) * per_op
    for layer in LAYERS:
        m[f"{layer}.self_ms_per_op"] = self_seconds[layer] * 1000 * per_op
    return m
