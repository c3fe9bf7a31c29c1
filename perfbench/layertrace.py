"""Per-layer tracing from outside the program.

The tracer replaces the public functions of each qrate module (and the
disturbance methods) with wrappers that record a span per call: name,
start, end, parent span and iteration id.  Spans stay in memory until the
run ends.  Nothing under ``src/`` changes; the wrappers are installed into
the loaded modules' namespaces and removed again by :meth:`Tracer.uninstall`.

Per span name the tracer also keeps, for the current iteration, the call
count, the busy time (inclusive), the self time (busy time minus the part
covered by child spans) and the calls that raised.  A few wrappers add
counters that need the call's arguments or result.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("matnum", "design", "codec", "signals", "plant", "analysis", "config",
          "svgplot", "cli")

# Public functions wrapped per module (the layer is the module name).
FUNCTIONS = {
    "matnum": ("as_matrix", "as_vector", "inf_norm_vec", "inf_norm_mat", "expm",
               "phi_integral", "max_norm_over_interval", "sym_eig_extremes", "dlyap",
               "is_schur_stable"),
    "design": ("check_assumptions", "derive_constants", "validate_design",
               "synthesize_design"),
    "codec": ("symbol_count", "initial_state", "encode", "decode_center", "quad_value",
              "advance", "controller_input"),
    "plant": ("sup_norm_on", "step_interval", "run_closed_loop"),
    "analysis": ("gain_constants", "eta_functions", "iss_gains", "check_trajectory"),
    "config": ("parse_config", "serialize_config", "load_config", "save_config"),
    "svgplot": ("render_svg",),
    "cli": ("main",),
}
# Disturbance methods, traced under one span name each for all signal classes.
SIGNAL_METHODS = ("value", "sup_norm", "breakpoints")
SIGNAL_CLASSES = ("Disturbance", "Zero", "Constant", "PulseTrain", "Sinusoid", "SeededUniform")

# Counters that must repeat exactly between traced iterations of one seed,
# besides every span's call count.
EXACT_COUNTERS = ("analysis.pairs_checked", "plant.dense_points", "plant.zoh_cache_keys",
                  "design.expm_in_validate", "cli.bytes_written")


SPAN_FIELDS = ("span", "parent", "name", "iteration", "start", "end")


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Finished spans, SPAN_FIELDS values each, ids stored as exact floats.
        self.spans = array("d")
        self.iteration = -1
        self._next_span = 0
        self._stack: list[list] = []          # open spans: [span id, child seconds, name id]
        self._stats: dict[str, list] = {}     # name -> [calls, busy s, self s, errors]
        self.counters: Counter = Counter()
        self._zoh_caches: dict[int, dict] = {}
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._stats[name] = [0, 0.0, 0.0, 0]
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        nid = self._name(name)
        stats = self._stats[name]
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0, nid]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                busy = t1 - t0
                stats[0] += 1
                stats[1] += busy
                stats[2] += busy - frame[1]
                if not ok:
                    stats[3] += 1
                if parent is not None:
                    parent[1] += busy
                spans.extend((sid, parent[0] if parent is not None else -1, nid,
                              tracer.iteration, t0, t1))
            if after is not None:
                after(tracer, args, kwargs, out)
            return out

        return traced

    def begin_iteration(self, iteration: int) -> None:
        self.iteration = iteration
        for st in self._stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self.counters.clear()
        self._zoh_caches.clear()

    def end_iteration(self) -> dict:
        """This iteration's per-name stats and counters."""
        self.counters["plant.zoh_cache_keys"] = sum(len(c) for c in self._zoh_caches.values())
        self._zoh_caches.clear()
        return {"stats": {k: list(v) for k, v in self._stats.items()},
                "counters": dict(self.counters)}

    # ------------------------------------------------------ installation

    def install(self) -> None:
        """Wrap every listed function in every qrate module that holds it."""
        from qrate import signals

        modules = [m for n, m in sys.modules.items() if n == "qrate" or n.startswith("qrate.")]
        hooks = _hooks(self)
        for layer, fnames in FUNCTIONS.items():
            mod = sys.modules[f"qrate.{layer}"]
            for fname in fnames:
                orig = getattr(mod, fname)
                before, after = hooks.get(f"{layer}.{fname}", (None, None))
                wrapped = self.wrap(f"{layer}.{fname}", orig, before, after)
                for holder in modules:
                    for attr, val in list(vars(holder).items()):
                        if val is orig:
                            self._patch(holder, attr, wrapped)
        for cname in SIGNAL_CLASSES:
            cls = getattr(signals, cname)
            for meth in SIGNAL_METHODS:
                if meth in vars(cls):
                    self._patch(cls, meth, self.wrap(f"signals.{meth}", vars(cls)[meth]))

    def _patch(self, holder, attr: str, value) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patches):
            setattr(holder, attr, orig)
        self._patches.clear()

    # ----------------------------------------------------------- output

    def write_spans(self, path: Path) -> None:
        """All recorded spans, one row of SPAN_FIELDS each; times in seconds."""
        n = len(SPAN_FIELDS)
        rows = [[int(v) for v in self.spans[i:i + 4]] + self.spans[i + 4:i + n].tolist()
                for i in range(0, len(self.spans), n)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": SPAN_FIELDS, "spans": rows}, fh)


def _hooks(tracer: Tracer) -> dict:
    """before/after hooks that count what a span name alone does not give."""
    validate = tracer._name("design.validate_design")

    def expm_before(tr, args, kwargs):
        if any(frame[2] == validate for frame in tr._stack):
            tr.counters["design.expm_in_validate"] += 1

    def encode_after(tr, args, kwargs, out):
        if out == 0:
            tr.counters["codec.overflow"] += 1

    def step_after(tr, args, kwargs, out):
        ts = out[2][0]
        substeps = _arg(args, kwargs, 6, "substeps", 100)
        cache = _arg(args, kwargs, 7, "zoh_cache", None)
        decimation = _arg(args, kwargs, 8, "decimation", 1)
        tr.counters["plant.dense_points"] += ts.size
        if decimation == 1:
            segments = ts.size - 1
            tr.counters["plant.breakpoint_splits"] += segments - substeps
            if _arg(args, kwargs, 4, "sig", None).piecewise_constant:
                tr.counters["plant.zoh_lookups"] += segments
        if cache is not None:
            tr._zoh_caches[id(cache)] = cache

    def run_after(tr, args, kwargs, out):
        tr.counters["codec.events"] += len(out.events)

    def check_after(tr, args, kwargs, out):
        tr.counters["analysis.pairs_checked"] += sum(int(r.n_checked) for r in out.rows)

    def render_after(tr, args, kwargs, out):
        path = _arg(args, kwargs, 0, "path", None)
        series = _arg(args, kwargs, 1, "series", [])
        tr.counters["svgplot.points_in"] += sum(s.xs.size for s in series)
        tr.counters["svgplot.bytes"] += os.path.getsize(path)

    def main_after(tr, args, kwargs, out):
        argv = list(_arg(args, kwargs, 0, "argv", None) or [])
        if "--out" not in argv:
            return
        for dirpath, _, files in os.walk(argv[argv.index("--out") + 1]):
            for f in files:
                tr.counters["cli.files_written"] += 1
                tr.counters["cli.bytes_written"] += os.path.getsize(os.path.join(dirpath, f))

    return {
        "matnum.expm": (expm_before, None),
        "codec.encode": (None, encode_after),
        "plant.step_interval": (None, step_after),
        "plant.run_closed_loop": (None, run_after),
        "analysis.check_trajectory": (None, check_after),
        "svgplot.render_svg": (None, render_after),
        "cli.main": (None, main_after),
    }


def exact_counts(snapshot: dict) -> dict:
    """The counts that must not drift between two traced iterations of one seed."""
    out = {f"{name}.calls": st[0] for name, st in snapshot["stats"].items()}
    out.update({k: snapshot["counters"].get(k, 0) for k in EXACT_COUNTERS})
    return out


def layer_metrics(snapshot: dict, wall_s: float) -> dict:
    """Per-layer metrics of one traced iteration lasting ``wall_s`` seconds.

    ``<layer>.self_s`` is the layer's self time: the busy time of its spans
    minus the part covered by child spans.  A metric named after a function
    (``matnum.expm_s``, ``plant.run_s``) is that function's busy time,
    children included.  Shares are self time over the iteration's wall time.
    """
    stats, counters = snapshot["stats"], snapshot["counters"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0, 0])[0]

    def busy(*names):
        return sum(stats.get(n, [0, 0.0, 0.0, 0])[1] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in LAYERS:
        mine = [st for name, st in stats.items() if name.split(".", 1)[0] == layer]
        self_s = sum(st[2] for st in mine)
        m[f"{layer}.self_s"] = self_s
        m[f"{layer}.share"] = ratio(self_s, wall_s)
        m[f"{layer}.errors"] = sum(st[3] for st in mine)

    dense = counters.get("plant.dense_points", 0)
    lookups = counters.get("plant.zoh_lookups", 0)
    keys = counters.get("plant.zoh_cache_keys", 0)
    m.update({
        "matnum.expm_calls": calls("matnum.expm"),
        "matnum.expm_s": busy("matnum.expm"),
        "matnum.phi_integral_calls": calls("matnum.phi_integral"),
        "matnum.phi_integral_s": busy("matnum.phi_integral"),
        "matnum.max_norm_s": busy("matnum.max_norm_over_interval"),
        "matnum.dlyap_s": busy("matnum.dlyap"),
        "design.validate_calls": calls("design.validate_design"),
        "design.validate_s": busy("design.validate_design"),
        "design.synthesize_s": busy("design.synthesize_design"),
        "design.derive_calls": calls("design.derive_constants"),
        "design.derive_s": busy("design.derive_constants"),
        "design.expm_per_validate": ratio(counters.get("design.expm_in_validate", 0),
                                          calls("design.validate_design")),
        "codec.encode_calls": calls("codec.encode"),
        "codec.encode_s": busy("codec.encode"),
        "codec.decode_s": busy("codec.decode_center"),
        "codec.advance_s": busy("codec.advance"),
        "codec.overflow_ratio": ratio(counters.get("codec.overflow", 0), calls("codec.encode")),
        "codec.events": counters.get("codec.events", 0),
        "signals.value_calls": calls("signals.value"),
        "signals.value_s": busy("signals.value"),
        "signals.sup_norm_calls": calls("signals.sup_norm"),
        "signals.sup_norm_s": busy("signals.sup_norm"),
        "signals.breakpoints_s": busy("signals.breakpoints"),
        "signals.value_per_dense_point": ratio(calls("signals.value"), dense),
        "plant.run_s": busy("plant.run_closed_loop"),
        "plant.step_interval_calls": calls("plant.step_interval"),
        "plant.step_interval_s": busy("plant.step_interval"),
        "plant.dense_points": dense,
        "plant.breakpoint_splits": counters.get("plant.breakpoint_splits", 0),
        "plant.zoh_cache_keys": keys,
        "plant.zoh_hit_ratio": ratio(lookups - keys, lookups),
        "analysis.check_s": busy("analysis.check_trajectory"),
        "analysis.pairs_checked": counters.get("analysis.pairs_checked", 0),
        "analysis.gains_s": busy("analysis.gain_constants", "analysis.iss_gains"),
        "config.parse_s": busy("config.parse_config"),
        "config.serialize_s": busy("config.serialize_config"),
        "svgplot.render_calls": calls("svgplot.render_svg"),
        "svgplot.render_s": busy("svgplot.render_svg"),
        "svgplot.points_in": counters.get("svgplot.points_in", 0),
        "svgplot.bytes": counters.get("svgplot.bytes", 0),
        "cli.files_written": counters.get("cli.files_written", 0),
        "cli.bytes_written": counters.get("cli.bytes_written", 0),
    })
    return m
