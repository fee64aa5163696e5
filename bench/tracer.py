"""Traced runs: wrap sytmaj's public calls, record spans, sum time per layer.

Every public module-level function of each layer, plus the few hot methods
in METHODS, is replaced by a wrapper at every place a sytmaj module binds it:
module globals (so `genfun`'s `from .qpolys import expand` is covered),
module-level dicts such as `verify.SUITES`, and class attributes.  A wrapper
records one span (name, start, end, parent) per call, or per resumption of
a generator, and adds its duration minus its wrapped children's to its
layer's self time.  Spans stay in memory until `write_spans`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

from workloads import suite_cases

LAYERS = ("shapes", "qpolys", "tableaux", "genfun", "deformed", "mutations", "zeros", "verify")
METHODS = {
    "qpolys": {"QPoly": ("__init__", "__add__", "__mul__")},  # __rmul__ is __mul__
    "tableaux": {"Tableau": ("__init__",)},
    "shapes": {"BlockShape": ("block_of_cell",)},
}
MAX_SPANS = 1_000_000  # 24 MB; later calls are timed but not kept as spans
ORACLES = ("maj_gf_oracle", "des_gf_oracle", "majdes_values_oracle",
           "wreath_gf_oracle", "gmdn_gf_oracle", "word_inv_oracle")
SUPPORTS = ("support_type_A", "support_des", "support_wreath", "support_gmdn")
SUITES = {"stanley": "suite_stanley", "support-a": "suite_support_a",
          "des": "suite_des", "gmdn": "suite_gmdn"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.yields: list[int] = []
        self.incl: list[float] = []  # outermost activations only
        self.depth: list[int] = []
        self.layer_self = [0.0] * len(LAYERS)
        self.span_name = array("I")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.spans_dropped = 0
        self.stack: list[list] = []  # [span index or -1, child time, start]
        self.counters = {"expand_coeffs": 0, "canonical_seen": 0, "covers": 0, "cases": 0}
        self._bindings: list[tuple] | None = None
        self._fid: dict[str, int] = {}

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, fid: int) -> list:
        stack = self.stack
        idx = len(self.span_name)
        if idx < MAX_SPANS:
            self.span_name.append(fid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.spans_dropped += 1
        self.depth[fid] += 1
        frame = [idx, 0.0, 0.0]
        stack.append(frame)
        frame[2] = t0 = perf_counter()
        if idx >= 0:
            self.span_start.append(t0)
        return frame

    def _leave(self, fid: int, frame: list) -> None:
        t1 = perf_counter()
        stack = self.stack
        stack.pop()
        dur = t1 - frame[2]
        if frame[0] >= 0:
            self.span_end[frame[0]] = t1
        if stack:
            stack[-1][1] += dur
        self.layer_self[self.layer_of[fid]] += dur - frame[1]
        self.depth[fid] -= 1
        if not self.depth[fid]:
            self.incl[fid] += dur

    # -- wrappers ---------------------------------------------------------

    def _register(self, name: str, layer: str) -> int:
        fid = len(self.names)
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.yields.append(0)
        self.incl.append(0.0)
        self.depth.append(0)
        self._fid[name] = fid
        return fid

    def _wrap(self, fn, name: str, layer: str):
        fid = self._register(name, layer)
        enter, leave, calls, yields = self._enter, self._leave, self.calls, self.yields
        on_result = self._result_hook(name)

        if inspect.isgeneratorfunction(fn):
            on_yield = self._yield_hook(name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[fid] += 1
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        frame = enter(fid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            leave(fid, frame)
                        yields[fid] += 1
                        if on_yield:
                            on_yield()
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            frame = enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(fid, frame)
            if on_result:
                on_result(result)
            return result
        return wrapper

    def _result_hook(self, name: str):
        counters = self.counters
        if name == "qpolys.expand":
            def hook(poly):
                counters["expand_coeffs"] += len(poly.coeffs)
            return hook
        if name == "mutations.build_poset":
            def hook(poset):
                counters["covers"] += sum(len(c) for c in poset.covers)
            return hook
        if name in {f"verify.{fn}" for fn in SUITES.values()}:
            def hook(results):
                counters["cases"] += suite_cases(results) or 0
            return hook
        return None

    def _yield_hook(self, name: str):
        if name != "tableaux.enumerate_tableaux":
            return None
        counters, depth = self.counters, self.depth

        def hook():
            canon = self._fid.get("tableaux.canonical_orbit_tableaux")
            if canon is not None and depth[canon]:
                counters["canonical_seen"] += 1
        return hook

    # -- installation -----------------------------------------------------

    def _find_bindings(self) -> list[tuple]:
        """(target, key, original, wrapper) for every binding of a wrapped callable."""
        modules = {layer: importlib.import_module(f"sytmaj.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer)
        originals = {id(w.__wrapped__): w.__wrapped__ for w in wrappers.values()}

        def wrapped(val):
            return id(val) in wrappers and originals[id(val)] is val

        bindings = []
        for modname, mod in list(sys.modules.items()):
            if modname != "sytmaj" and not modname.startswith("sytmaj."):
                continue
            ns = vars(mod)
            for key, val in list(ns.items()):
                if key.startswith("__"):
                    continue
                if wrapped(val):
                    bindings.append((ns, key, val, wrappers[id(val)]))
                elif isinstance(val, dict):
                    bindings += [(val, k, v, wrappers[id(v)]) for k, v in val.items() if wrapped(v)]
        for layer, classes in METHODS.items():
            for cls_name, meths in classes.items():
                cls = getattr(modules[layer], cls_name)
                for meth in meths:
                    orig = cls.__dict__[meth]
                    wrapper = self._wrap(orig, f"{layer}.{cls_name}.{meth}", layer)
                    bindings += [(cls, attr, orig, wrapper)
                                 for attr, val in cls.__dict__.items() if val is orig]
        return bindings

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._find_bindings()
        for target, key, _, wrapper in self._bindings:
            _bind(target, key, wrapper)

    def uninstall(self) -> None:
        for target, key, orig, _ in reversed(self._bindings or ()):
            _bind(target, key, orig)

    # -- results ----------------------------------------------------------

    def _c(self, name: str) -> int:
        fid = self._fid.get(name)
        return self.calls[fid] if fid is not None else 0

    def _s(self, *names: str) -> float:
        return sum(self.incl[self._fid[n]] for n in names if n in self._fid)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per traced round."""
        c, s = self._c, self._s

        def per(x):
            return x / rounds

        def ratio(a, b):
            return a / b if b else 0.0

        enum_s = s("tableaux.enumerate_tableaux")
        enumerated = self.yields[self._fid["tableaux.enumerate_tableaux"]]
        kept = self.yields[self._fid["tableaux.canonical_orbit_tableaux"]]
        out = {
            "qpolys.expand.calls": (per(c("qpolys.expand")), "count"),
            "qpolys.expand.s": (per(s("qpolys.expand")), "s"),
            "qpolys.expand.coeffs_per_s": (ratio(self.counters["expand_coeffs"], s("qpolys.expand")), "1/s"),
            "qpolys.mul.calls": (per(c("qpolys.QPoly.__mul__")), "count"),
            "qpolys.mul.s": (per(s("qpolys.QPoly.__mul__")), "s"),
            "qpolys.add.s": (per(s("qpolys.QPoly.__add__")), "s"),
            "qpolys.new.calls": (per(c("qpolys.QPoly.__init__")), "count"),
            "qpolys.substitute_power.s": (per(s("qpolys.substitute_power")), "s"),
            "qpolys.q_multinomial.calls": (per(c("qpolys.q_multinomial")), "count"),
            "qpolys.q_multinomial.s": (per(s("qpolys.q_multinomial")), "s"),
            "qpolys.q_binomial.calls": (per(c("qpolys.q_binomial")), "count"),
            "qpolys.q_binomial.s": (per(s("qpolys.q_binomial")), "s"),
            "genfun.stanley.calls": (per(c("genfun.stanley")), "count"),
            "genfun.gmdn_fake_degree.s": (per(s("genfun.gmdn_fake_degree")), "s"),
            "genfun.wreath_fake_degree.s": (per(s("genfun.wreath_fake_degree")), "s"),
            "genfun.block_maj_gf.s": (per(s("genfun.block_maj_gf")), "s"),
            "deformed.deformed_multinomial.calls": (per(c("deformed.deformed_multinomial")), "count"),
            "deformed.deformed_multinomial.s": (per(s("deformed.deformed_multinomial")), "s"),
            "tableaux.enumerate.s": (per(enum_s), "s"),
            "tableaux.enumerated": (per(enumerated), "count"),
            "tableaux.enumerated_per_s": (ratio(enumerated, enum_s), "1/s"),
            "tableaux.canonical.kept_ratio": (ratio(kept, self.counters["canonical_seen"]), "ratio"),
            "tableaux.tableau_new.calls": (per(c("tableaux.Tableau.__init__")), "count"),
            "shapes.block_of_cell.calls": (per(c("shapes.BlockShape.block_of_cell")), "count"),
            "shapes.block_of_cell.s": (per(s("shapes.BlockShape.block_of_cell")), "s"),
        }
        for suite, fn in SUITES.items():
            out[f"verify.suite.{suite}.s"] = (per(s(f"verify.{fn}")), "s")
        out.update({
            "verify.oracle.s": (per(s(*(f"verify.{o}" for o in ORACLES))), "s"),
            "verify.cases": (per(self.counters["cases"]), "count"),
            "zeros.support.s": (per(s(*(f"zeros.{f}" for f in SUPPORTS))), "s"),
            "zeros.verify_support.s": (per(s("zeros.verify_support")), "s"),
            "mutations.phi.calls": (per(c("mutations.phi")), "count"),
            "mutations.phi.us": (1e6 * ratio(s("mutations.phi"), c("mutations.phi")), "us"),
            "mutations.strong_cover_moves.calls": (per(c("mutations.strong_cover_moves")), "count"),
            "mutations.strong_cover_moves.us": (
                1e6 * ratio(s("mutations.strong_cover_moves"), c("mutations.strong_cover_moves")), "us"),
            "mutations.build_poset.s": (per(s("mutations.build_poset")), "s"),
            "mutations.covers": (per(self.counters["covers"]), "count"),
        })
        for i, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = (per(self.layer_self[i]), "s")
        out["trace.spans"] = (per(len(self.span_name) + self.spans_dropped), "count")
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as a JSON header line followed by the four packed arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "count": len(self.span_name),
            "dropped": self.spans_dropped,
            "arrays": [["name", "I"], ["start", "d"], ["end", "d"], ["parent", "i"]],
            "clock": "time.perf_counter, seconds",
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(fh)


def _bind(target, key, value) -> None:
    if isinstance(target, type):
        setattr(target, key, value)
    else:
        target[key] = value
