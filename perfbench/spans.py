"""Span recorder for one greenpot process, and the self-time arithmetic.

The recorder wraps the public functions listed in ``LAYERS`` from outside
the package: every ``greenpot.*`` module attribute that *is* one of those
functions is rebound to a timing wrapper, so calls made through a
``from .lattice import killed_green_matrix`` binding are seen as well.
Spans stay in memory and are written once, when the process ends.

Calls nest on one thread: the benchmark runs every child with
``GREENPOT_THREADS=1``, so ``mc`` never hands work to a pool.

Only traced children import this module, and it needs only the standard
library.
"""

from __future__ import annotations

import functools
import sys
import time

# Counters taken at each call, from the arguments and the result.  Byte
# counts are computed from array sizes (8 bytes per float64 entry), not
# measured.


def _m_squared_bytes(m: int) -> int:
    return 8 * m * m


def _killed_green(counters, args, kwargs, result):
    m = result.entries.shape[0]
    counters["points"] = counters.get("points", 0) + m
    counters["max_points"] = max(counters.get("max_points", 0), m)
    counters["dense_bytes"] = counters.get("dense_bytes", 0) + _m_squared_bytes(m)


def _inverse_m(counters, args, kwargs, result):
    size = len(args[0]) if args else len(kwargs["u"])
    counters["max_size"] = max(counters.get("max_size", 0), size)
    counters["unreliable"] = counters.get("unreliable", 0) + bool(result.unreliable)


def _grid(counters, args, kwargs, result):
    counters["points"] = counters.get("points", 0) + len(result)


def _assemble(counters, args, kwargs, result):
    m = len(result.lattice)
    counters["points"] = counters.get("points", 0) + m
    counters["matrix_bytes"] = counters.get("matrix_bytes", 0) + _m_squared_bytes(m)


def _draws(counters, args, kwargs, result):
    counters["draws"] = counters.get("draws", 0) + int(getattr(result, "size", 1))


def _green_key(args, kwargs):
    d, x = args[0], args[1]
    return d, tuple(sorted(abs(int(c)) for c in x))


def _potential_key(args, kwargs):
    d, size_range, seed = args[:3]
    return d, tuple(size_range), int(seed)


# layer name -> (counter hook or None, key of the call for unique_ratio or None)
LAYERS = {
    "lattice.whole_space_green": (None, _green_key),
    "lattice.potential_kernel_2d": (None, None),
    "lattice.killed_green_matrix": (_killed_green, None),
    "potential.is_inverse_m_matrix": (_inverse_m, None),
    "potential.random_potential": (None, _potential_key),
    "potential.sample_cmp": (None, None),
    "domains.grid_points": (_grid, None),
    "domains.exterior_grid": (_grid, None),
    "operators.assemble": (_assemble, None),
    "operators.apply_operator": (None, None),
    "operators.converge": (None, None),
    "kernels.ball_kernel_integral": (None, None),
    "mc.sample_stable_increment": (_draws, None),
    "mc.estimate_riesz_potential": (None, None),
    "mc.estimate_boundary_term": (None, None),
    "cli.main": (None, None),
}


class Recorder:
    """In-memory spans ``[layer index, start, end, parent index]`` plus counters."""

    def __init__(self):
        self.names = list(LAYERS)
        self.spans: list[list] = []
        self.counters = {name: {} for name in self.names}
        self.keys = {name: set() for name, (_, key) in LAYERS.items() if key is not None}
        self._stack: list[int] = []

    def wrap(self, index: int, fn):
        name = self.names[index]
        hook, key_of = LAYERS[name]
        counters = self.counters[name]
        keys = self.keys.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            if keys is not None:
                keys.add(key_of(args, kwargs))
            return result

        return traced

    def install(self) -> int:
        """Rebind every greenpot module attribute that is a listed function.

        Returns the number of bindings replaced.
        """
        wrappers = {}
        for index, name in enumerate(self.names):
            module, attr = name.split(".")
            fn = getattr(sys.modules[f"greenpot.{module}"], attr)
            wrappers[id(fn)] = (fn, self.wrap(index, fn))
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "greenpot" and not mod_name.startswith("greenpot."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced += 1
        return replaced

    def dump(self) -> dict:
        counters = {name: dict(c) for name, c in self.counters.items()}
        for name, keys in self.keys.items():
            counters[name]["unique"] = len(keys)
        return {"names": self.names, "spans": self.spans, "counters": counters}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover.

    `spans` holds ``(layer, start, end, parent)`` rows, parent ``-1`` for a
    root.  Overlapping children are merged before subtracting, and each
    child is clipped to its parent's interval.
    """
    children: dict[int, list] = {}
    for layer, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out
