"""Timing wrappers installed on ``tensorjet`` module attributes for the traced run.

No ``tensorjet`` source changes: each traced function is replaced, in every
``tensorjet`` module that binds it, by a wrapper that records a span (name,
start, end, parent).  Spans nest through a stack, so a span's self time is
its duration minus its children's.  Aggregates are kept per span name; the
raw spans of the first traced round are kept for writing out.
"""

from __future__ import annotations

import functools
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> (module, attribute) of the function it wraps
TARGETS = {
    "multitensor._symmetrize_component": ("multitensor", "_symmetrize_component"),
    "multitensor.symmetrize": ("multitensor", "symmetrize"),
    "multitensor.algebra_product": ("multitensor", "algebra_product"),
    "program.derivative_tower": ("program", "derivative_tower"),
    "program.evaluate": ("program", "evaluate"),
    "operators.compose_towers": ("operators", "compose_towers"),
    "operators.forward_chain": ("operators", "forward_chain"),
    "operators.reverse_chain": ("operators", "reverse_chain"),
    "operators.order_reduce": ("operators", "order_reduce"),
    "operators.taylor_series": ("operators", "taylor_series"),
    "reducesum.reduce_sum_apply": ("reducesum", "reduce_sum_apply"),
    "reducesum.reduce_sum_polynomials": ("reducesum", "reduce_sum_polynomials"),
    "reducesum.reduction_velocity": ("reducesum", "reduction_velocity"),
    "iterators.find_fixed_point": ("iterators", "find_fixed_point"),
    "iterators.schroeder": ("iterators", "schroeder"),
    "iterators.fractional_iterate": ("iterators", "fractional_iterate"),
    "iterators.iterating_velocity": ("iterators", "iterating_velocity"),
    "sexpr.parse": ("sexpr", "parse"),
    "cli.main": ("cli", "main"),
}

# Binding sites that must be wrapped: the names each module takes from the
# layer below, including those program._tower imports when it is called.
REQUIRED_SITES = (
    ("operators", "_symmetrize_component"),
    ("program", "algebra_product"),
    ("program", "symmetrize"),
    ("operators", "derivative_tower"),
    ("reducesum", "derivative_tower"),
    ("iterators", "derivative_tower"),
    ("operators", "compose_towers"),
    ("operators", "order_reduce"),
    ("cli", "parse"),
)


@functools.lru_cache(maxsize=None)
def partition_count(n: int, largest: int | None = None) -> int:
    """Number of integer partitions of n with parts <= largest."""
    largest = n if largest is None else largest
    if n == 0:
        return 1
    return sum(partition_count(n - first, first) for first in range(1, min(n, largest) + 1))


def _on_symmetrize(tr, args, out, parent):
    comp = args[0]
    tr.counters["multitensor.symmetrize.entries"] += out.size
    if comp.ndim >= 3:  # at least two tensor slots: permutation work happens
        tr.counters["symmetrize.multi_slot_calls"] += 1
        # the early exit returns an exact copy; otherwise some orbit is averaged
        if np.array_equal(out, comp):
            tr.counters["symmetrize.already_symmetric"] += 1


def _on_compose(tr, args, out, parent):
    tr.counters["operators.compose_towers.partition_terms"] += sum(
        partition_count(n) for n in range(1, args[0].order + 1))


def _on_tower(tr, args, out, parent):
    if parent is not None and parent[0] == "iterators.find_fixed_point":
        tr.counters["iterators.newton_steps"] += 1


def _on_parse(tr, args, out, parent):
    tr.counters["sexpr.parse.bytes"] += len(args[0].encode("utf-8"))


HOOKS = {
    "multitensor._symmetrize_component": _on_symmetrize,
    "operators.compose_towers": _on_compose,
    "program.derivative_tower": _on_tower,
    "sexpr.parse": _on_parse,
}


class Tracer:
    def __init__(self):
        self.stack = []  # open frames: [name, child seconds, span index or None]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, busy s, self s
        self.depth = defaultdict(int)
        self.counters = defaultdict(float)
        self.spans = []  # [name, start, end, parent index], first traced round only
        self.record = False
        self._installed = []

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            idx = None
            start = perf_counter()
            if tracer.record:
                idx = len(tracer.spans)
                tracer.spans.append([name, start, None, None if parent is None else parent[2]])
            frame = [name, 0.0, idx]
            stack.append(frame)
            tracer.depth[name] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                dur = end - start
                stack.pop()
                tracer.depth[name] -= 1
                st = tracer.stats[name]
                st[0] += 1
                if tracer.depth[name] == 0:
                    st[1] += dur  # busy time counts the outermost span of a name once
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                if idx is not None:
                    tracer.spans[idx][2] = end
            if hook is not None:
                hook_start = perf_counter()
                hook(tracer, args, out, parent)
                if parent is not None:
                    parent[1] += perf_counter() - hook_start  # not the parent's own work
            return out

        return wrapper

    def install(self, tj):
        """Wrap every target in each ``tensorjet`` module that binds it."""
        import importlib

        for sub in ("cli", "selftest"):
            importlib.import_module(f"tensorjet.{sub}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tensorjet" or n.startswith("tensorjet.")) and m is not None]
        wrapped_sites = set()
        for name, (mod_name, attr) in TARGETS.items():
            orig = getattr(getattr(tj, mod_name), attr)
            wrapper = self._wrap(name, orig, HOOKS.get(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, orig))
                        wrapped_sites.add((mod.__name__.rsplit(".", 1)[-1], key))
        missing = [site for site in REQUIRED_SITES if site not in wrapped_sites]
        if missing:
            self.uninstall()
            raise RuntimeError(f"trace: binding sites not found: {missing}")

    def uninstall(self):
        for mod, key, orig in reversed(self._installed):
            setattr(mod, key, orig)
        self._installed.clear()


def import_times(repeats: int = 3) -> dict:
    """Median import cost of numpy and of tensorjet's own modules, via -X importtime."""
    numpy_s, own_s = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tensorjet"],
                              capture_output=True, text=True, timeout=60, check=True)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        numpy_s.append(cumulative["numpy"])
        own_s.append(cumulative["tensorjet"] - cumulative["numpy"])
    return {"cli.import.numpy_s": float(np.median(numpy_s)),
            "cli.import.tensorjet_s": float(np.median(own_s))}


# name, unit, better
LAYER_METRICS = [
    ("multitensor.symmetrize.busy_s", "s", "lower"),
    ("multitensor.symmetrize.calls", "count", "lower"),
    ("multitensor.symmetrize.entries", "count", "lower"),
    ("multitensor.symmetrize.already_symmetric_ratio", "ratio", "lower"),
    ("multitensor.algebra_product.busy_s", "s", "lower"),
    ("multitensor.algebra_product.calls", "count", "lower"),
    ("program.derivative_tower.self_s", "s", "lower"),
    ("program.derivative_tower.calls", "count", "lower"),
    ("program.evaluate.busy_s", "s", "lower"),
    ("program.evaluate.calls", "count", "lower"),
    ("program.build_s", "s", "lower"),
    ("operators.compose_towers.self_s", "s", "lower"),
    ("operators.compose_towers.calls", "count", "lower"),
    ("operators.compose_towers.partition_terms", "count", "lower"),
    ("operators.forward_chain.self_s", "s", "lower"),
    ("operators.reverse_chain.self_s", "s", "lower"),
    ("operators.order_reduce.busy_s", "s", "lower"),
    ("operators.taylor_series.self_s", "s", "lower"),
    ("reducesum.reduce_sum_apply.self_s", "s", "lower"),
    ("reducesum.reduce_sum_polynomials.self_s", "s", "lower"),
    ("reducesum.reduction_velocity.self_s", "s", "lower"),
    ("reducesum.calls", "count", "lower"),
    ("iterators.find_fixed_point.self_s", "s", "lower"),
    ("iterators.newton_steps", "count", "lower"),
    ("iterators.schroeder.self_s", "s", "lower"),
    ("iterators.query.busy_s", "s", "lower"),
    ("sexpr.parse.busy_s", "s", "lower"),
    ("sexpr.parse.bytes", "count", "lower"),
    ("cli.import.numpy_s", "s", "lower"),
    ("cli.import.tensorjet_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def layer_values(tr: Tracer, rounds: int) -> dict:
    """Per-layer values per traced round (one pass over the op sequence)."""
    st = tr.stats
    per = 1.0 / rounds

    def busy(n):
        return st[n][1] * per if n in st else 0.0

    def self_s(n):
        return st[n][2] * per if n in st else 0.0

    def calls(n):
        return st[n][0] * per if n in st else 0.0

    multi = tr.counters["symmetrize.multi_slot_calls"]
    return {
        "multitensor.symmetrize.busy_s": busy("multitensor._symmetrize_component"),
        "multitensor.symmetrize.calls": calls("multitensor._symmetrize_component"),
        "multitensor.symmetrize.entries": tr.counters["multitensor.symmetrize.entries"] * per,
        "multitensor.symmetrize.already_symmetric_ratio":
            tr.counters["symmetrize.already_symmetric"] / multi if multi else 0.0,
        "multitensor.algebra_product.busy_s": busy("multitensor.algebra_product"),
        "multitensor.algebra_product.calls": calls("multitensor.algebra_product"),
        "program.derivative_tower.self_s": self_s("program.derivative_tower"),
        "program.derivative_tower.calls": calls("program.derivative_tower"),
        "program.evaluate.busy_s": busy("program.evaluate"),
        "program.evaluate.calls": calls("program.evaluate"),
        "operators.compose_towers.self_s": self_s("operators.compose_towers"),
        "operators.compose_towers.calls": calls("operators.compose_towers"),
        "operators.compose_towers.partition_terms":
            tr.counters["operators.compose_towers.partition_terms"] * per,
        "operators.forward_chain.self_s": self_s("operators.forward_chain"),
        "operators.reverse_chain.self_s": self_s("operators.reverse_chain"),
        "operators.order_reduce.busy_s": busy("operators.order_reduce"),
        "operators.taylor_series.self_s": self_s("operators.taylor_series"),
        "reducesum.reduce_sum_apply.self_s": self_s("reducesum.reduce_sum_apply"),
        "reducesum.reduce_sum_polynomials.self_s": self_s("reducesum.reduce_sum_polynomials"),
        "reducesum.reduction_velocity.self_s": self_s("reducesum.reduction_velocity"),
        "reducesum.calls": sum(calls(n) for n in (
            "reducesum.reduce_sum_apply", "reducesum.reduce_sum_polynomials",
            "reducesum.reduction_velocity")),
        "iterators.find_fixed_point.self_s": self_s("iterators.find_fixed_point"),
        "iterators.newton_steps": tr.counters["iterators.newton_steps"] * per,
        "iterators.schroeder.self_s": self_s("iterators.schroeder"),
        "iterators.query.busy_s":
            busy("iterators.fractional_iterate") + busy("iterators.iterating_velocity"),
        "sexpr.parse.busy_s": busy("sexpr.parse"),
        "sexpr.parse.bytes": tr.counters["sexpr.parse.bytes"] * per,
        "cli.main.self_s": self_s("cli.main"),
    }
