"""Per-layer spans and counts, recorded from outside the program.

`Tracer.install` replaces the public functions of each layer module with
wrappers, under every name the package binds them to (so `from .psi import
psi_of_prime` in `mincol` is wrapped too).  A call that crosses from one layer
into another records a span: name, parent span, start and end.  A call within
one layer only pushes a frame, so its time stays in the enclosing span of that
layer.  Spans live in flat arrays and are written out when the run ends.

Two functions run once per block step or more and are counted, not timed:
`zmod.check_modulus` and `thk.propagate_block`.  Their time stays in their
caller's span.  A generator function (`seq.u_mod_stream`) gets one span whose
length is the time spent inside the generator, summed over its resumptions.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("zmod", "seq", "psi", "thk", "mincol", "cli")
COUNTED_ONLY = {"zmod.check_modulus", "thk.propagate_block"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.calls: Counter = Counter()
        self.pairs: Counter = Counter()  # (caller frame, callee) -> calls
        self.sieve_cells = 0
        self.stream_residues = 0
        self._ticks: dict = {}  # counted-only functions
        self._stack: list[tuple[str, str, int]] = [("", "", -1)]  # (layer, name, span index)

    # -- wrappers ----------------------------------------------------------------

    def _new_span(self, nid: int, parent: int) -> int:
        self.span_name.append(nid)
        self.span_parent.append(parent)
        self.span_start.append(0)
        self.span_end.append(0)
        return len(self.span_start) - 1

    def counted_calls(self, name: str) -> int:
        """Calls of a counted-only function; read once, when the run has ended."""
        tick = self._ticks.get(name)
        return next(tick) if tick else 0

    def _counted(self, name: str, fn):
        tick = self._ticks.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, layer: str, name: str, fn):
        calls, pairs, stack = self.calls, self.pairs, self._stack
        starts, ends = self.span_start, self.span_end
        generator = inspect.isgeneratorfunction(fn)
        nid = len(self.names)
        self.names.append(name)
        after = {"zmod.primes_up_to": self._after_sieve, "psi.psi": self._after_psi}.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            top = stack[-1]
            pairs[(top[1], name)] += 1
            if top[0] == layer:
                stack.append((layer, name, top[2]))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack.pop()
            elif generator:
                idx = self._new_span(nid, top[2])
                starts[idx] = ends[idx] = perf_counter_ns()
                return self._timed_generator(fn(*args, **kwargs), idx)
            else:
                idx = self._new_span(nid, top[2])
                stack.append((layer, name, idx))
                starts[idx] = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = perf_counter_ns()
                    stack.pop()
            if after is not None:
                after(args, result)
            return result

        return spanned

    def _timed_generator(self, gen, idx: int):
        busy = 0
        try:
            while True:
                t0 = perf_counter_ns()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    busy += perf_counter_ns() - t0
                yield item
        finally:
            self.span_end[idx] = self.span_start[idx] + busy

    def _after_sieve(self, args, result) -> None:
        self.sieve_cells += max(args[0], 0)

    def _after_psi(self, args, result) -> None:
        self.stream_residues += result.steps_scanned

    def install(self) -> None:
        """Wrap every public function of each layer under all its bindings."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"turkshead.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if layer == "cli" and attr != "main":
                    continue  # cli's own helpers are cli self time
                if inspect.isfunction(inspect.unwrap(obj)):  # plain or lru_cache-wrapped
                    name = f"{layer}.{attr}"
                    make = self._counted if name in COUNTED_ONLY else functools.partial(self._spanned, layer)
                    wrapped[id(obj)] = make(name, obj)
        coloring = sys.modules["turkshead.thk"].Coloring
        from_input = vars(coloring)["from_input"].__func__
        coloring.from_input = classmethod(self._spanned("thk", "thk.Coloring.from_input", from_input))
        for modname, module in list(sys.modules.items()):
            if modname == "turkshead" or modname.startswith("turkshead."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in wrapped:
                        setattr(module, attr, wrapped[id(obj)])

    # -- results -----------------------------------------------------------------

    def self_seconds(self) -> dict[str, float]:
        """Per layer: span time minus the time its child spans cover."""
        child = [0] * len(self.span_start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = dict.fromkeys(LAYERS, 0.0)
        for i, nid in enumerate(self.span_name):
            layer = self.names[nid].split(".", 1)[0]
            out[layer] += (self.span_end[i] - self.span_start[i] - child[i]) / 1e9
        return out

    def per_layer(self) -> dict[str, float]:
        calls, pairs = self.calls, self.pairs
        metrics = {f"{layer}.self_s": value for layer, value in self.self_seconds().items()}
        metrics.update({
            "zmod.is_prime.calls": calls["zmod.is_prime"],
            "zmod.sieve_cells": self.sieve_cells,
            "zmod.check_modulus.calls": self.counted_calls("zmod.check_modulus"),
            "seq.u_mod.calls": calls["seq.u_mod"],
            "seq.stream_residues": self.stream_residues,
            "seq.u.calls": calls["seq.u"],
            "psi.psi.calls": calls["psi.psi"],
            "psi.psi_of_prime.calls": calls["psi.psi_of_prime"],
            "psi.divisors_per_prime": _ratio(pairs[("psi.psi_of_prime", "seq.u_mod")], calls["psi.psi_of_prime"]),
            "thk.block_steps": self.counted_calls("thk.propagate_block"),
            "thk.search_inputs_per_search": _ratio(
                pairs[("thk.min_colors_standard", "thk.Coloring.from_input")], calls["thk.min_colors_standard"]
            ),
        })
        return metrics

    def dump(self, path) -> None:
        """Write every span as a tab-separated line: index, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{names[self.span_name[i]]}\t"
                    f"{self.span_start[i]}\t{self.span_end[i]}\n"
                )


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0
