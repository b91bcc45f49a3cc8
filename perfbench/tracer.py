"""Outside-in tracing of the levelcross layers.

The tracer wraps public functions of the ``levelcross.*`` modules from the
benchmark's side; no library file changes.  A function is found by name
in the ``__all__`` of any ``levelcross`` module, and its layer is the
module that defines it.  Its wrapper replaces every ``levelcross.*``
module attribute bound to it, so calls through re-exports and
``from .x import f`` import sites are all seen.  A function that moves to
another module stays traced under the same name, and its time moves
with its code to the new layer.

Three kinds of wrapper exist:

* span: one record (name, layer, start, end, parent span, item) per call;
* hot: aggregated count, self time and count of ``None`` results, for the
  calls that run millions of times (see ``HOT``);
* integrand: the function a quadrature routine integrates, counted and
  timed as work of the layer that called the quadrature.

Self time of a frame is its duration minus the durations of the wrapped
frames it directly contains.  Every self time is accumulated under
(name, layer, method), where *method* is the outermost call of
``METHODS`` open at the time; those calls define the benchmark items.

An untraced run installs spans on ``METHODS`` only (a few hundred calls per
run), which is enough to time items; a full trace wraps everything below.
"""

import sys
import time

LAYERS = ("cli", "sim", "distributions", "exact", "quadrature", "specfun", "approx", "moments")

# An item is one sweep node with all its methods, or one exact query: the
# outermost of these calls open at a time, keyed by its (u, c, v, t).
METHODS = (
    "main_term",
    "corrected_expansion",
    "exact_conditional",
    "unconditional_exp_first_renewal",
    "simulate_conditional",
)

# Aggregated instead of spans.  ``Distribution.sample`` stands for the
# ``sample`` method of every Distribution subclass that defines one.
HOT_FUNCTIONS = ("log_bessel_i1", "first_crossing_time")
HOT_METHODS = (  # (class, attribute)
    ("Distribution", "sample"),
    ("Mix2Exp", "cdf"),
    ("LcgStream", "next_uniform"),
)
HOT = HOT_FUNCTIONS + tuple(f"{cls}.{attr}" for cls, attr in HOT_METHODS)

# Reached only beneath a HOT call; wrapping them would only add overhead.
BENEATH_HOT = ("lcg_next", "next_uniform")

INTEGRAND = "integrand"

_clock = time.perf_counter


def _levelcross_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "levelcross" or name.startswith("levelcross.")
    ]


def _layer(obj):
    """Short name of the levelcross module that defines ``obj``, or None."""
    module = getattr(obj, "__module__", None) or ""
    return module.rpartition(".")[2] if module.startswith("levelcross.") else None


class Tracer:
    def __init__(self):
        self.phase = 0  # set by a workload to keep its item keys apart
        self.spans = []  # (name, layer, start, end, parent index, item)
        self.stats = {}  # (name, layer, method) -> [calls, self_s, None results]
        self.items = {}  # (phase, key) -> item id
        self.item_spans = []  # per item id: [key, first start, last end, busy_s]
        self.method_calls = {}  # method -> [outermost calls, busy_s, layer]
        self.missing = []  # METHODS or HOT names not found in levelcross
        self._acc = [0.0]  # child time of each open frame; [0] is the root
        self._frames = []  # (span index, layer) of each open span
        self._method = None
        self._item = None
        self._undo = []

    # -- installation ------------------------------------------------------

    def install(self, full):
        """Wrap METHODS, and with ``full`` every public function of every
        loaded levelcross module plus the HOT calls."""
        found = set()
        modules = _levelcross_modules()
        for mod in modules:
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                layer = _layer(obj)  # None once wrapped, so each is wrapped once
                if isinstance(obj, type) or not callable(obj) or layer is None:
                    continue
                name = obj.__name__
                if name in BENEATH_HOT or (name in HOT and not full):
                    continue
                if name in HOT:
                    self._rebind_function(obj, self._hot(obj, name, layer))
                elif full or name in METHODS:
                    self._rebind_function(obj, self._span(obj, name, layer))
                else:
                    continue
                found.add(name)
        if full:
            found.update(self._install_methods(modules))
        wanted = METHODS + HOT if full else METHODS
        self.missing = [name for name in wanted if name not in found]

    def _install_methods(self, modules):
        classes = {
            obj.__name__: obj
            for mod in modules
            for obj in vars(mod).values()
            if isinstance(obj, type) and _layer(obj) is not None
        }
        found = []
        for cls_name, attr in HOT_METHODS:
            base = classes.get(cls_name)
            if base is None:
                continue
            name = f"{cls_name}.{attr}"
            # subclasses that define their own method are wrapped too
            for cls in [base, *(c for c in classes.values() if issubclass(c, base) and c is not base)]:
                if attr in vars(cls):
                    original = vars(cls)[attr]
                    setattr(cls, attr, self._hot(original, name, _layer(cls)))
                    self._undo.append((cls, attr, original))
                    found.append(name)
        return found

    def _rebind_function(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "levelcross" and not modname.startswith("levelcross."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    # -- wrappers ----------------------------------------------------------

    def _record(self, name, layer, elapsed, child, returned_none):
        key = (name, layer, self._method)
        rec = self.stats.get(key)
        if rec is None:
            rec = self.stats[key] = [0, 0.0, 0]
        rec[0] += 1
        rec[1] += elapsed - child
        rec[2] += returned_none

    def _hot(self, fn, name, layer):
        acc, record = self._acc, self._record

        def hot(*args):
            acc.append(0.0)
            result = None
            start = _clock()
            try:
                result = fn(*args)
                return result
            finally:
                elapsed = _clock() - start
                child = acc.pop()
                acc[-1] += elapsed
                record(name, layer, elapsed, child, result is None)

        return hot

    def _span(self, fn, name, layer):
        is_method = name in METHODS
        integrates = layer == "quadrature"
        acc, frames, spans = self._acc, self._frames, self.spans

        def span(*args, **kwargs):
            parent = frames[-1] if frames else None
            outermost = is_method and self._method is None
            if outermost:
                self._method = name
                self._item = self._item_for(fn, args, kwargs)
            if integrates and args and callable(args[0]) and (
                parent is None or parent[1] != "quadrature"
            ):
                caller = parent[1] if parent else layer
                args = (self._hot(args[0], INTEGRAND, caller),) + args[1:]
            index = len(spans)
            spans.append(None)
            frames.append((index, layer))
            acc.append(0.0)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _clock()
                child = acc.pop()
                acc[-1] += end - start
                frames.pop()
                spans[index] = (name, layer, start, end, parent[0] if parent else None, self._item)
                self._record(name, layer, end - start, child, False)
                if outermost:
                    self._close_item(name, layer, start, end)

        return span

    def _item_for(self, fn, args, kwargs):
        key = (self.phase, query_key(fn, args, kwargs))
        item = self.items.get(key)
        if item is None:
            item = self.items[key] = len(self.item_spans)
            self.item_spans.append([key, None, None, 0.0])
        return item

    def _close_item(self, name, layer, start, end):
        rec = self.item_spans[self._item]
        rec[1] = start if rec[1] is None else rec[1]
        rec[2] = end
        rec[3] += end - start
        calls = self.method_calls.setdefault(name, [0, 0.0, layer])
        calls[0] += 1
        calls[1] += end - start
        self._method = self._item = None

    # -- results -----------------------------------------------------------

    def item_times(self):
        """Busy time of each item, in item order."""
        return [rec[3] for rec in self.item_spans]

    def layer_calls(self):
        """Wrapped calls per layer, integrands counted under their caller."""
        out = dict.fromkeys(LAYERS, 0)
        for (_, layer, _), rec in self.stats.items():
            out[layer] = out.get(layer, 0) + rec[0]
        return out

    def layer_metrics(self):
        """Per-layer metrics of a full trace, except the ones that need the
        paired untraced run (see run.py)."""

        def total(field, name=None, layer=None, method=None, names=None):
            return sum(
                rec[field]
                for (n, l, m), rec in self.stats.items()
                if (name is None or n == name)
                and (names is None or n in names)
                and (layer is None or l == layer)
                and (method is None or m == method)
            )

        def ratio(num, den):
            return num / den if den else 0.0

        calls, self_s, nones = 0, 1, 2
        cond = "exact_conditional"
        trajectories = total(calls, name="first_crossing_time")
        draws = total(calls, name="Distribution.sample")
        values = total(calls, name=cond, method=cond)

        def entries(layer):  # calls into the layer from outside it
            return sum(
                1
                for _, l, _, _, parent, _ in self.spans
                if l == layer and (parent is None or self.spans[parent][1] != layer)
            )

        return {
            "sim.self_s": total(self_s, layer="sim"),
            "sim.trajectories": trajectories,
            "sim.uniforms_per_trajectory": ratio(
                total(calls, name="LcgStream.next_uniform"), trajectories
            ),
            "sim.horizon_stopped_frac": ratio(
                total(nones, name="first_crossing_time"), trajectories
            ),
            "distributions.draws": draws,
            "distributions.sample_s": total(
                self_s, names=("Distribution.sample", "Mix2Exp.cdf")
            ),
            "distributions.cdf_evals_per_draw": ratio(
                total(calls, name="Mix2Exp.cdf"), draws
            ),
            "exact.conditional_calls": values,
            "exact.conditional_s": total(self_s, layer="exact", method=cond),
            "exact.bessel_evals_per_value": ratio(
                total(calls, name="log_bessel_i1", method=cond), values
            ),
            "exact.unconditional_s": total(
                self_s, layer="exact", method="unconditional_exp_first_renewal"
            ),
            "quadrature.calls": entries("quadrature"),
            "quadrature.integrand_evals": total(calls, name=INTEGRAND),
            "quadrature.self_s": total(self_s, layer="quadrature"),
            "specfun.log_bessel_i1_calls": total(calls, name="log_bessel_i1"),
            "specfun.log_bessel_i1_s": total(self_s, name="log_bessel_i1"),
            "approx.calls": entries("approx"),
            "moments.constants_s": total(self_s, layer="moments"),
            "cli.sweep_s": total(self_s, name="build_sweep"),
            "cli.output_s": total(self_s, layer="cli") - total(self_s, name="build_sweep", layer="cli"),
        }

    def dump(self):
        """Everything recorded, as plain JSON-ready data."""
        return {
            "spans": [
                {"name": n, "layer": l, "start": s, "end": e, "parent": p, "item": i}
                for n, l, s, e, p, i in self.spans
            ],
            "items": [
                {"id": i, "phase": key[0], "query": list(key[1]), "start": s, "end": e,
                 "busy_s": busy}
                for i, (key, s, e, busy) in enumerate(self.item_spans)
            ],
            "aggregates": [
                {"name": n, "layer": l, "method": m, "calls": c, "self_s": t, "none_results": z}
                for (n, l, m), (c, t, z) in sorted(self.stats.items(), key=str)
            ],
        }


def query_key(fn, args, kwargs):
    """(u, c, v, t) of a method call: from a CrossingQuery argument, else
    from the parameters of those names (missing ones read as None)."""
    for arg in (*args, *kwargs.values()):
        if all(hasattr(arg, f) for f in ("u", "c", "v", "t")):
            return (arg.u, arg.c, arg.v, arg.t)
    code = fn.__code__
    bound = dict(zip(code.co_varnames[: code.co_argcount], args))
    bound.update(kwargs)
    return tuple(bound.get(f) for f in ("u", "c", "v", "t"))
