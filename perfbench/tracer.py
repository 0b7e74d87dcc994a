"""Per-layer tracing of mclex from outside its source.

The tracer replaces public functions of the mclex modules with wrappers
that record one span per call (name, parent span, start, end) in memory.
A module that did `from .closure import decide` holds its own binding of
the function, so every binding of the same function object in every loaded
mclex module is replaced, and the originals are put back on uninstall.
`decide` is named after the module that binds it, so that the time spent
deciding is split by caller; every other layer keeps one name.
"""

from __future__ import annotations

import functools
import json
import random
import statistics
import sys
import time

# (layer, module defining the binding looked up, attribute path)
LAYERS = (
    ("kernel.sharp_bits", "mclex._kernel", "sharp_bits"),
    ("kernel.closure_mask", "mclex._kernel", "closure_mask"),
    ("enumeration.signature", "mclex.enumeration", "signature"),
    ("enumeration.candidates", "mclex.enumeration", "candidate_batches"),
    ("degeneracy.degeneracy_class", "mclex.degeneracy", "degeneracy_class"),
    ("enumeration.classify", "mclex.enumeration", "classify"),
    ("closure.decide", "mclex.closure", "decide"),
    ("enumeration.Decider.implies", "mclex.enumeration", "Decider.implies"),
    ("enumeration.compute_edges", "mclex.enumeration", "compute_edges"),
    ("enumeration.transitive_reduction", "mclex.enumeration", "transitive_reduction"),
    ("enumeration.compute_groups", "mclex.enumeration", "compute_groups"),
    ("enumeration.subposet_by_localization", "mclex.enumeration", "subposet_by_localization"),
    ("localization.loc_equal", "mclex.localization", "loc_equal"),
    ("localization.localize", "mclex.localization", "localize"),
    ("export.poset_to_json", "mclex.export", "poset_to_json"),
    ("export.poset_to_dot", "mclex.export", "poset_to_dot"),
    ("closure.saturate", "mclex.closure", "saturate"),
    ("closure.build_proof", "mclex.closure", "_build_proof"),
    ("closure.verify_tableau", "mclex.closure", "verify_tableau"),
    ("closure.tableau_json", "mclex.closure", "tableau_to_json"),
    ("closure.tableau_json", "mclex.closure", "tableau_from_json"),
)

# every layer a traced run reports, in report order; `decide` is split by
# the module holding the binding that was called, and `saturate` by record
LAYER_NAMES = (
    "kernel.sharp_bits", "kernel.closure_mask", "enumeration.signature",
    "enumeration.candidates", "degeneracy.degeneracy_class", "enumeration.classify",
    "closure.decide", "enumeration.decide", "localization.decide",
    "enumeration.Decider.implies", "enumeration.compute_edges",
    "enumeration.transitive_reduction", "enumeration.compute_groups",
    "enumeration.subposet_by_localization", "localization.loc_equal",
    "localization.localize", "export.poset_to_json", "export.poset_to_dot",
    "closure.saturate", "closure.saturate.record", "closure.build_proof",
    "closure.verify_tableau", "closure.tableau_json",
)
PER_BINDING = {"decide"}
DECIDE_LAYERS = ("closure.decide", "enumeration.decide", "localization.decide")
SATURATE_RECORD = "closure.saturate.record"
# probes of enumeration.probes_for over every window the workloads use
PROBES = ("p1-1", "p2-1", "p3-1", "p2-2", "p4-1", "p3-2")
KERNELS = ("closure_mask", "sharp_bits")
SAMPLED_LAYERS = ("kernel.closure_mask", "kernel.sharp_bits")


def metric_specs():
    """(name, unit, better) of every per-layer metric a traced run reports."""
    specs = []
    for layer in LAYER_NAMES:
        specs += [
            (f"{layer}.s", "s", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.calls", "count", "lower"),
        ]
        if layer == "kernel.sharp_bits":
            for probe in PROBES:
                specs += [
                    (f"{layer}.{probe}.s", "s", "lower"),
                    (f"{layer}.{probe}.calls", "count", "lower"),
                ]
    specs += [
        ("closure.decide.true_ratio", "ratio", "higher"),
        ("enumeration.Decider.hit_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def _saturate_name(args, kwargs):
    record = kwargs["record"] if "record" in kwargs else len(args) > 2 and args[2]
    return SATURATE_RECORD if record else "closure.saturate"


class Tracer:
    """Records spans of mclex calls while installed.

    A span is [name, parent index or -1, start ns, end ns, note] on the
    given nanosecond clock; the note holds the probe of a sharp_bits call
    and the verdict of a decide call.  A seeded reservoir keeps a sample of
    kernel arguments for the backend parity replay.
    """

    def __init__(self, seed, clock=time.perf_counter_ns, sample_size=32):
        self.spans = []
        self._clock = clock
        self._stack = []
        self._patches = []
        self._rng = random.Random(seed)
        self._sample_size = sample_size
        self.samples = {kernel: [] for kernel in KERNELS}
        self._seen = dict.fromkeys(KERNELS, 0)

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mclex" or name.startswith("mclex."))]
        for layer, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(layer, vars(cls)[method]))
                continue
            fn = getattr(owner, attr)
            wrappers = {}
            for module in modules:
                for bound_name, value in list(vars(module).items()):
                    if value is not fn:
                        continue
                    name = layer
                    if attr in PER_BINDING and module.__name__ != "mclex":
                        name = module.__name__.split(".")[-1] + "." + attr
                    if name not in wrappers:
                        wrappers[name] = self._make(name, attr, fn)
                    self._patch(module, bound_name, wrappers[name])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _make(self, name, attr, fn):
        if attr == "candidate_batches":
            return self._wrap_batches(name, fn)
        if attr == "saturate":
            return self._wrap(name, fn, namer=_saturate_name)
        if attr == "decide":
            return self._wrap(name, fn, note=lambda args, result: bool(result[0]))
        if attr == "sharp_bits":
            return self._wrap(name, fn, note=lambda args, result: f"p{args[0]}-{args[1]}",
                              sample=attr)
        if attr == "closure_mask":
            return self._wrap(name, fn, sample=attr)
        return self._wrap(name, fn)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name, fn, namer=None, note=None, sample=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sample:
                self._sample(sample, args, kwargs)
            span = [namer(args, kwargs) if namer else name,
                    stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if note:
                span[4] = note(args, result)
            return result

        return wrapper

    def _wrap_batches(self, name, fn):
        timed = self._timed_iter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for shape, batch in timed(name, fn(*args, **kwargs)):
                yield shape, timed(name, batch)

        return wrapper

    def _timed_iter(self, name, iterator):
        """Each next() on the iterator is one span: candidate generation
        runs lazily inside the consumer's loop."""
        spans, stack, clock = self.spans, self._stack, self._clock
        while True:
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                span[3] = clock()
                stack.pop()
            yield item

    def _sample(self, kernel, args, kwargs):
        seen = self._seen[kernel] = self._seen[kernel] + 1
        kept = self.samples[kernel]
        call = (args, kwargs)
        if len(kept) < self._sample_size:
            kept.append(call)
        else:
            slot = self._rng.randrange(seen)
            if slot < self._sample_size:
                kept[slot] = call

    def write(self, path):
        """One JSON list per line: [name, parent line, start ns, end ns]."""
        with open(path, "w") as fh:
            for name, parent, start, end, _note in self.spans:
                fh.write(json.dumps([name, parent, start, end]))
                fh.write("\n")


# --- overhead ----------------------------------------------------------------


def wrapper_cost_ns(clock, calls=50_000, repeats=3):
    """Nanoseconds a span wrapper adds to one call, plain and with kernel
    argument sampling: the median of `repeats` timings of `calls` calls
    through a wrapped no-op, less the same calls made directly."""
    tracer = Tracer(seed=0, clock=clock)

    def noop(*args):
        return (True, None)

    def per_call(fn):
        times = []
        for _ in range(repeats):
            tracer.spans.clear()
            t0 = clock()
            for _ in range(calls):
                fn(1, 2)
            times.append((clock() - t0) / calls)
        return statistics.median(times)

    direct = per_call(noop)
    return (per_call(tracer._wrap("cost", noop)) - direct,
            per_call(tracer._wrap("cost", noop, sample="closure_mask")) - direct)


def overhead_ns(spans, plain_ns, sampled_ns):
    """Time the wrappers added to a traced unit: each span at the cost of
    its kind of wrapper."""
    sampled = sum(1 for span in spans if span[0] in SAMPLED_LAYERS)
    return (len(spans) - sampled) * plain_ns + sampled * sampled_ns


# --- aggregation -------------------------------------------------------------


def layer_stats(spans):
    """Per span name: busy seconds (outermost spans of that name only),
    self seconds (duration minus direct children) and call count."""
    child_ns = [0] * len(spans)
    for name, parent, start, end, _note in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for idx, (name, parent, start, end, _note) in enumerate(spans):
        st = out.setdefault(name, {"s": 0, "self_s": 0, "calls": 0})
        st["calls"] += 1
        st["self_s"] += end - start - child_ns[idx]
        up = parent
        while up >= 0 and spans[up][0] != name:
            up = spans[up][1]
        if up < 0:
            st["s"] += end - start
    for st in out.values():
        st["s"] /= 1e9
        st["self_s"] /= 1e9
    return out


def layer_metrics(spans):
    """Every per-layer metric except trace.overhead_s, zero where a layer
    was not called."""
    stats = layer_stats(spans)
    metrics = {}
    for layer in LAYER_NAMES:
        st = stats.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for key in ("s", "self_s", "calls"):
            metrics[f"{layer}.{key}"] = st[key]
    probe_ns = dict.fromkeys(PROBES, 0)
    probe_calls = dict.fromkeys(PROBES, 0)
    decides = trues = 0
    decided = set()  # spans with a decide directly below them
    for name, parent, start, end, note in spans:
        if name == "kernel.sharp_bits":
            probe_ns[note] = probe_ns.get(note, 0) + end - start
            probe_calls[note] = probe_calls.get(note, 0) + 1
        elif name in DECIDE_LAYERS:
            decides += 1
            trues += bool(note)
            decided.add(parent)
    # an implies call that did not decide was answered from the cache
    implies = [idx for idx, span in enumerate(spans) if span[0] == "enumeration.Decider.implies"]
    hits = sum(1 for idx in implies if idx not in decided)
    for probe in PROBES:
        metrics[f"kernel.sharp_bits.{probe}.s"] = probe_ns[probe] / 1e9
        metrics[f"kernel.sharp_bits.{probe}.calls"] = probe_calls[probe]
    metrics["closure.decide.true_ratio"] = trues / decides if decides else 0.0
    metrics["enumeration.Decider.hit_ratio"] = hits / len(implies) if implies else 0.0
    return metrics
