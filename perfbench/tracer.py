"""Call tracing from outside the package.

`Tracer.install` replaces each public function of the traced modules, in every
module namespace that binds it (modules import names, so `verify.expect` and
`sampler.expect` are separate bindings of one function), and a few hot methods
on their classes.  Wrappers count calls and time them; per-name totals live in
memory and spans of at least `MIN_SPAN_S` are kept as
`(id, parent_id, name, start, end)` and written out once at the end.
`Tracer.restore` puts every original back.  Tracing only observes calls, so
the package's random streams and results are unchanged.
"""

from __future__ import annotations

import inspect
import itertools
import json
import math
from collections import Counter, defaultdict
from time import perf_counter

#: modules whose public names are traced; `cli` is measured only by set-up time
LAYERS = ("grassmann", "graphs", "core", "sampler", "scaling", "supersym", "quadrature", "verify")

#: shorter spans only feed the per-name totals, so millions of Grassmann
#: products do not fill memory; a kept span's ancestors are always kept
MIN_SPAN_S = 1e-3

#: estimators whose observable argument is timed as its own span
OBSERVABLE_PARAM = {"expect": "observable", "expect_importance": "observable", "super_expect": "f"}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)  # outermost calls only
        self.self_s = defaultdict(float)  # minus time in traced callees
        self.spans = []
        self.expect_chains = set()
        self.draws = 0
        self.ess_frac_min = math.inf
        self._depth = Counter()
        self._stack = []  # per open call: [time in traced callees, span id]
        self._ids = itertools.count(1)
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def timed(self, name, fn, label=None):
        """Wrap fn so each call is counted and timed under `name`
        (plus `.label(args)` when a label function is given)."""
        calls, inclusive, self_s, depth, stack = self.calls, self.inclusive, self.self_s, self._depth, self._stack
        spans, ids = self.spans, self._ids

        def wrapper(*args, **kwargs):
            key = name if label is None else f"{name}.{label(*args, **kwargs)}"
            parent = stack[-1][1] if stack else 0
            frame = [0.0, next(ids)]
            stack.append(frame)
            depth[key] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[key] -= 1
                dur = t1 - t0
                calls[key] += 1
                self_s[key] += dur - frame[0]
                if not depth[key]:
                    inclusive[key] += dur
                if stack:
                    stack[-1][0] += dur
                if dur >= MIN_SPAN_S:
                    spans.append((frame[1], parent, key, t0, t1))

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _estimator(self, name, fn):
        """Time an estimator, its observable apart, and record its chain."""
        sig = inspect.signature(fn)
        obs_param = OBSERVABLE_PARAM.get(name)
        timed = self.timed(f"sampler.{name}", fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            if obs_param is not None:
                bound.arguments[obs_param] = self.timed("supersym.observable", bound.arguments[obs_param])
            result = timed(*bound.args, **bound.kwargs)
            g, cc = bound.arguments["g"], bound.arguments["cc"]
            if name == "expect_importance":
                self.draws += cc.n_samples
                self.ess_frac_min = min(self.ess_frac_min, result.diagnostics["ess"] / cc.n_samples)
            else:
                self.draws += -(-cc.n_samples // cc.n_chains) * cc.n_chains
            if name == "expect":
                self.expect_chains.add((g.vertex_ids, g.weights.tobytes(), cc))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Patch the public functions (names without a leading underscore) of
        `package`'s layer modules everywhere they are bound, plus the hot
        class methods."""
        modules = [package] + [getattr(package, m) for m in LAYERS] + [package.cli]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if layer == "sampler" and name in ("expect", "expect_importance", "super_expect", "sample_u"):
                    wrapper = self._estimator(name, fn)
                elif layer == "verify" and name == "run_check":
                    wrapper = self.timed("verify.check_s", fn, label=lambda spec: spec.id)
                else:
                    wrapper = self.timed(f"{layer}.{name}", fn)
                for m in modules:
                    if m.__dict__.get(name) is fn:
                        self._patch(m, name, wrapper)
        ge = package.grassmann.GrassmannElement
        self._patch(ge, "__mul__", self.timed("grassmann.mul", ge.__mul__))
        self._patch(ge, "fn", self.timed("grassmann.fn", ge.fn))
        self._patch(ge, "__init__", self.counted("grassmann.elements_built", ge.__init__))
        graph = package.graphs.Graph
        self._patch(graph, "edges", self.counted("graphs.edges", graph.edges))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def value(self, metric: str) -> float:
        """Per-layer metric `<key>.calls`, `<key>.s` or `<key>.self_s`."""
        special = {
            "sampler.expect.distinct_chains": len(self.expect_chains),
            "sampler.expect_importance.ess_frac_min": 0.0 if math.isinf(self.ess_frac_min) else self.ess_frac_min,
            "sampler.draws": self.draws,
            "grassmann.elements_built": self.calls["grassmann.elements_built"],
        }
        if metric in special:
            return special[metric]
        if metric.startswith("verify.check_s."):
            return self.inclusive[metric]
        key, _, kind = metric.rpartition(".")
        if kind == "calls":
            return self.calls[key]
        if kind == "self_s":
            return self.self_s[key]
        if kind == "s":
            return self.inclusive[key]
        raise KeyError(metric)

    def write_spans(self, path):
        with open(path, "w") as f:
            json.dump({"fields": ["id", "parent", "name", "start", "end"], "spans": self.spans}, f)
