"""Per-layer tracing of thetacalc from outside the package.

Tracer.install replaces, in every thetacalc module namespace, each
binding of a function that another layer defines with a wrapper that
counts calls, measures inclusive time and counts True results.  Calls a
layer makes into its own functions are not boundaries, except for the
entry points and hot predicates named in OWN_BOUNDARIES.  The dataclass
hooks Symbol.__post_init__ and GeneralCharacter.__post_init__ are
wrapped too, so constructions are counted and their time lands in
their own layer.

A layer's self time is the inclusive time of its wrapped calls minus
the inclusive time of the wrapped calls made inside them.  Generator
functions are only counted: their bodies run when the caller iterates,
so that time stays with the caller's span.  The oracle workloads make
millions of boundary calls, so calls are aggregated per boundary; whole
spans are kept only per operation (see child.py).
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("partitions", "symbols", "theta", "characters", "cuspidal", "verify", "cli")

OWN_BOUNDARIES = {
    "partitions": ("parse_partition",),
    "symbols": ("normalize", "parse_symbol"),
    "theta": (
        "in_b_relation",
        "theta_zero_sp",
        "theta_zero_orth",
        "first_occurrence_bruteforce",
        "first_occurrence_unitary",
        "first_occurrence_unitary_closed",
        "_partitions_by_symbol_defect",
    ),
    "characters": (
        "character_from_json",
        "corresponds",
        "enumerate_characters",
        "first_occurrence_partner",
        "first_occurrence_general_brute",
    ),
    "cuspidal": (
        "check_unipotent_cuspidal_odd_partner",
        "check_cuspidal_preservation_sums",
        "check_pseudo_cuspidal_even_partners",
        "check_pseudo_cuspidal_odd_partners",
    ),
    "verify": (),
    "cli": ("main",),
}


class Tracer:
    def __init__(self):
        # boundary "layer.name" -> [calls, inclusive_s, true_results]
        self.stats: dict[str, list] = {}
        # layer -> [self_s]
        self.self_s = {layer: [0.0] for layer in LAYERS}
        # child time accumulated under each open span; [0] is the root
        self.stack = [0.0]
        self.modules = {
            layer: importlib.import_module(f"thetacalc.{layer}") for layer in LAYERS
        }
        self.series_cache = self.modules["symbols"].enumerate_series

    def _stat(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0])

    def wrap(self, layer: str, name: str, fn):
        stat = self._stat(f"{layer}.{name}")
        if inspect.isgeneratorfunction(fn):

            def counted(*args, **kwargs):
                stat[0] += 1
                return fn(*args, **kwargs)

            return counted

        own = self.self_s[layer]
        stack = self.stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = clock() - start
                inner = stack.pop()
                stack[-1] += spent
                own[0] += spent - inner
                stat[0] += 1
                stat[1] += spent
            if result is True:
                stat[2] += 1
            return result

        return timed

    def install(self) -> None:
        wrappers = {}
        for caller, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                owner = getattr(obj, "__module__", None) or ""
                layer = owner.removeprefix("thetacalc.")
                if isinstance(obj, type) or not callable(obj) or layer not in self.modules:
                    continue
                if layer == caller and name not in OWN_BOUNDARIES[layer]:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(layer, name, obj)
                setattr(module, name, wrappers[id(obj)])
        for layer, cls in (("symbols", "Symbol"), ("characters", "GeneralCharacter")):
            klass = getattr(self.modules[layer], cls)
            klass.__post_init__ = self.wrap(layer, f"{cls}.built", klass.__post_init__)

    def snapshot(self) -> dict[str, float]:
        """Self time per layer so far."""
        return {layer: cell[0] for layer, cell in self.self_s.items()}

    def metrics(self, op_time_s: float) -> dict[str, float]:
        """The per-layer metrics of one pass; op_time_s is the summed
        duration of its operations."""

        def calls(key):
            return self.stats.get(key, (0, 0.0, 0))[0]

        def ratio(key):
            calls_, _, hits = self.stats.get(key, (0, 0.0, 0))
            return hits / calls_ if calls_ else 0.0

        info = self.series_cache.cache_info()
        lookups = info.hits + info.misses
        out = {f"{layer}.self_s": cell[0] for layer, cell in self.self_s.items()}
        out.update(
            {
                "bench.self_s": op_time_s - self.stack[0],
                "partitions.partition_of_beta.calls": calls("partitions.partition_of_beta"),
                "partitions.interleaves.calls": calls("partitions.interleaves"),
                "partitions.interleaves.hit_ratio": ratio("partitions.interleaves"),
                "theta.in_b_relation.calls": calls("theta.in_b_relation"),
                "theta.in_b_relation.hit_ratio": ratio("theta.in_b_relation"),
                "theta.oracle.calls": calls("theta.first_occurrence_bruteforce")
                + calls("theta.first_occurrence_unitary"),
                "theta.oracle.ranks_scanned": calls("symbols.series_by_defect")
                + calls("theta._partitions_by_symbol_defect"),
                "characters.GeneralCharacter.built": calls("characters.GeneralCharacter.built"),
                "characters.corresponds.calls": calls("characters.corresponds"),
                "characters.corresponds.hit_ratio": ratio("characters.corresponds"),
                "characters.oracle.sizes_scanned": calls("characters.enumerate_characters"),
                "symbols.Symbol.built": calls("symbols.Symbol.built"),
                "symbols.normalize.calls": calls("symbols.normalize"),
                "symbols.enumerate_series.misses": info.misses,
                "symbols.enumerate_series.hit_ratio": info.hits / lookups if lookups else 0.0,
                "cli.main.calls": calls("cli.main"),
            }
        )
        return out
