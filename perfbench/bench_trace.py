"""In-memory tracing of xibergman, installed from outside the program.

``Tracer.install`` wraps the public functions of every module (a layer is a
module) and patches each wrapper into every module that binds the original,
so ``assemble_gram`` is traced whether bergman, fiberwise, ideal or
extension calls it.  ``Tracer.restore`` puts every original object back.

Most wrappers record a span ``(name, start, end, parent, command)``.  Hot
tiny calls (weight ``evaluate``, ``fiber``, ``PolyW`` arithmetic, family
``eval``, ``monomial_moment``, ``grlex_key``) only count calls and time.
Both kinds keep a frame on one stack, so a module's self time is its frames'
time minus the time of frames nested in them, and the self times of one
command add up to its root ``cli.main`` span.  Private helpers count toward
the layer of the public function that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("functional", "family", "weights", "bergman", "fiberwise", "ideal",
          "extension", "cli")

#: module-level functions that get a counter instead of a span
HOT_FUNCTIONS = {"weights.monomial_moment", "functional.grlex_key"}

#: (layer, class, attributes, metric name): methods worth a counter, because
#: other layers call them in tight loops
HOT_METHODS = [
    ("family", "PolyW", ("__mul__", "__rmul__"), "family.polyw_mul"),
    ("family", "PolyW", ("__add__",), "family.polyw_add"),
    ("family", "PolyW", ("evaluate",), "family.polyw_evaluate"),
    ("family", "FunctionalFamily", ("eval",), "family.eval"),
    ("family", "AntiHolomorphicControl", ("eval",), "family.eval"),
]
WEIGHT_CLASSES = ("ZeroWeight", "ConstantWeight", "QuadraticWeight",
                  "LogMonomialWeight", "LogDivisorWeight", "SumWeight")
JOINT_CLASSES = ("JointZero", "JointLogDivisor", "JointQuadraticSplit",
                 "JointPairQuadratic", "WIndependentJoint")
#: methods other layers call that would otherwise count toward the caller
SPAN_METHODS = [
    ("bergman", "GramModel", ("poly_from_coeffs", "norm_sq")),
]

VARIANTS = ("zero", "constant", "quadratic", "log_monomial", "log_divisor",
            "sum")


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, command)
        self.stack: list = []  # frames [enclosing span index, child seconds]
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)  # name -> inclusive s
        self.self_s: defaultdict = defaultdict(float)  # layer -> self s
        self.cmd_self: dict = {}  # command -> {layer: self s}
        self.cmd = None
        self.patches: list = []  # (owner, attribute, original), all installed
        # layer observations
        self.gram_keys: set = set()
        self.gram_variant_s: defaultdict = defaultdict(float)
        self.basis_size_sum = 0
        self.p3_sum = 0
        self.max_rank = 0
        self.psi_outside = 0

    # -- frames ------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, span: bool, observe=None):
        spans, stack, calls, incl = self.spans, self.stack, self.calls, self.incl
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                index = len(spans)
                spans.append(None)
                parent = stack[-1][0] if stack else -1
            else:
                index = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                d = t1 - t0
                own = d - frame[1]
                tracer.self_s[layer] += own
                cs = tracer.cmd_self.setdefault(tracer.cmd, defaultdict(float))
                cs[layer] += own
                if stack:
                    stack[-1][1] += d
                calls[name] += 1
                incl[name] += d
                if span:
                    spans[index] = (name, t0, t1, parent, tracer.cmd)
            if observe is not None:
                observe(args, kwargs, result, d)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    # -- layer observations -------------------------------------------------

    def _observers(self, modules: dict) -> dict:
        bergman = modules["bergman"]
        sig = inspect.signature(bergman.assemble_gram)

        def assemble(args, kwargs, model, d):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            quad = a["quad"] or bergman.QuadSpec()
            self.gram_keys.add(repr((a["domain"], a["weight"], a["degree"],
                                     quad, a["method"])))
            self.gram_variant_s[getattr(a["weight"], "variant", "?")] += d
            self.basis_size_sum += model.size

        def orthonormalize(args, kwargs, model, d):
            self.p3_sum += model.size ** 3

        def annihilator(args, kwargs, res, d):
            self.max_rank = max(self.max_rank, res.r)

        def psi_at(args, kwargs, pt, d):
            self.psi_outside += pt.flag == "outside_U"

        return {
            "bergman.assemble_gram": assemble,
            "bergman.orthonormalize": orthonormalize,
            "ideal.annihilator": annihilator,
            "ideal.psi_at": psi_at,
        }

    # -- install / restore --------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every public function of ``modules`` (layer -> module)."""
        observers = self._observers(modules)
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(layer, name, fn, name not in HOT_FUNCTIONS,
                                     observers.get(name))
                for other in modules.values():
                    for other_attr, obj in list(vars(other).items()):
                        if obj is fn:
                            self._patch(other, other_attr, wrapper)
        methods = [(layer, cls, attrs, name, False)
                   for layer, cls, attrs, name in HOT_METHODS]
        methods += [("weights", cls, ("evaluate",), "weights.evaluate", False)
                    for cls in WEIGHT_CLASSES]
        methods += [("weights", cls, ("fiber",), "weights.fiber", False)
                    for cls in JOINT_CLASSES]
        methods += [(layer, cls, (attr,), f"{layer}.{cls}.{attr}", True)
                    for layer, cls, attrs in SPAN_METHODS for attr in attrs]
        for layer, cls_name, attrs, name, span in methods:
            cls = getattr(modules[layer], cls_name)
            wrapper = self._wrap(layer, name, vars(cls)[attrs[0]], span)
            for attr in attrs:
                self._patch(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)

    def unrestored(self) -> list:
        """Patched attributes that are not the original object."""
        return [(getattr(owner, "__name__", owner), attr)
                for owner, attr, original in self.patches
                if vars(owner).get(attr) is not original]

    # -- results ------------------------------------------------------------

    def root_spans(self) -> list:
        return [s for s in self.spans if s is not None and s[3] == -1]

    def self_time_gaps(self) -> list:
        """Per command: |sum of layer self times - root span duration|."""
        gaps = []
        for name, t0, t1, _, cmd in self.root_spans():
            total = sum(self.cmd_self.get(cmd, {}).values())
            gaps.append((cmd, total, t1 - t0))
        return gaps

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "command"],
                       "spans": self.spans}, fh)

    def metrics(self) -> dict:
        c, s = self.calls, self.incl
        gram_calls = c["bergman.assemble_gram"]
        psi_calls = c["ideal.psi_at"]
        m = {
            "cli.main.calls": (c["cli.main"], "count"),
            "cli.self_s": (self.self_s["cli"], "s"),
            "fiberwise.kernel_on_fiber.calls":
                (c["fiberwise.kernel_on_fiber"], "count"),
            "fiberwise.kernel_on_fiber.s": (s["fiberwise.kernel_on_fiber"], "s"),
            "fiberwise.submean_check.calls":
                (c["fiberwise.submean_check"], "count"),
            "fiberwise.self_s": (self.self_s["fiberwise"], "s"),
            "ideal.build_annihilator.s": (s["ideal.build_annihilator"], "s"),
            "ideal.annihilator.rank": (self.max_rank, "count"),
            "ideal.psi_at.calls": (psi_calls, "count"),
            "ideal.psi_at.s": (s["ideal.psi_at"], "s"),
            "ideal.membership_by_functionals.calls":
                (c["ideal.membership_by_functionals"], "count"),
            "ideal.krull_stabilize.s": (s["ideal.krull_stabilize"], "s"),
            "ideal.outside_u_frac":
                (self.psi_outside / psi_calls if psi_calls else 0.0, "ratio"),
            "ideal.self_s": (self.self_s["ideal"], "s"),
            "extension.minimal_extension.s":
                (s["extension.minimal_extension"], "s"),
            "extension.jensen_diagnostic.s":
                (s["extension.jensen_diagnostic"], "s"),
            "extension.fiber_norm.calls": (c["extension.fiber_norm"], "count"),
            "extension.self_s": (self.self_s["extension"], "s"),
            "bergman.assemble_gram.calls": (gram_calls, "count"),
            "bergman.assemble_gram.s": (s["bergman.assemble_gram"], "s"),
        }
        for v in VARIANTS:
            m[f"bergman.assemble_gram.s.{v}"] = (self.gram_variant_s[v], "s")
        m.update({
            "bergman.assemble_gram.distinct_frac":
                (len(self.gram_keys) / gram_calls if gram_calls else 0.0,
                 "ratio"),
            "bergman.basis_size.sum": (self.basis_size_sum, "count"),
            "bergman.orthonormalize.calls": (c["bergman.orthonormalize"], "count"),
            "bergman.orthonormalize.s": (s["bergman.orthonormalize"], "s"),
            "bergman.orthonormalize.p3_sum": (self.p3_sum, "count"),
            "bergman.xi_kernel.calls": (c["bergman.xi_kernel"], "count"),
            "bergman.xi_kernel.s": (s["bergman.xi_kernel"], "s"),
            "bergman.self_s": (self.self_s["bergman"], "s"),
            "weights.evaluate.calls": (c["weights.evaluate"], "count"),
            "weights.fiber.calls": (c["weights.fiber"], "count"),
            "weights.self_s": (self.self_s["weights"], "s"),
            "family.polyw_mul.calls": (c["family.polyw_mul"], "count"),
            "family.eval.calls": (c["family.eval"], "count"),
            "family.self_s": (self.self_s["family"], "s"),
            "functional.recenter.calls": (c["functional.recenter"], "count"),
            "functional.self_s": (self.self_s["functional"], "s"),
        })
        return m
