"""Per-layer spans for traced benchmark workers.

`Tracer.install()` imports the brauercalc modules one layer at a time (each
import is a span of its layer), then wraps the public functions and methods
of every layer and rebinds each wrapper in every brauercalc module namespace
that imported the original, so that a call such as `algebra.nf_compose` or
`functors.normalize` is charged to `rewrite`, not to its caller.

Spans live in memory as parallel integer arrays (parent, site, start, end);
`Tracer.summary()` folds them into per-layer self time and counts.  Code
that is not wrapped (private helpers, `GaussRational`, `Fraction`) is
charged to the innermost wrapped caller.  Only benchmark workers use this
module; the package itself is never edited.
"""

import importlib
import inspect
import time
from array import array

LAYERS = ("coeff", "diagram", "term", "params", "rewrite", "functors", "algebra", "cli")

# coeff is wrapped only at the LaurentPoly operators, lp_exact_div and
# lp_parse: GaussRational and Fraction run millions of times per verdict and
# a wrapper there would cost more than the work it measures.
COEFF_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__",
                 "scale", "substitute", "unit_inverse", "eval")
COEFF_FUNCTIONS = ("lp_exact_div", "lp_parse")
OPERATOR_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__")

_REWRITE = LAYERS.index("rewrite")
_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.parent = array("q")
        self.site = array("q")
        self.start = array("q")
        self.end = array("q")
        self.sites = []  # site index -> (layer index, name)
        self.stack = [-1]
        self.mul_one = 0
        self.term_pairs = 0
        self.terms_out = 0
        self.peak_terms = 0
        self.modules = {}
        self._undo = []  # (owner, attribute, original) for uninstall()

    # -- recording ---------------------------------------------------------

    def _site(self, layer, name):
        self.sites.append((LAYERS.index(layer), name))
        return len(self.sites) - 1

    def _enter(self, site):
        sid = len(self.start)
        self.parent.append(self.stack[-1])
        self.site.append(site)
        self.end.append(0)
        self.stack.append(sid)
        self.start.append(_now())
        return sid

    def _exit(self, sid):
        self.end[sid] = _now()
        self.stack.pop()

    def _wrap(self, fn, layer, name, observe=None):
        site = self._site(layer, name)
        enter, exit_ = self._enter, self._exit

        if inspect.isgeneratorfunction(fn):
            # A span per resume, so the consumer's work between items is not
            # charged to this layer.
            def wrapper(*args, **kwargs):
                sid = enter(site)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    exit_(sid)
                while True:
                    sid = enter(site)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        exit_(sid)
                    yield item
        elif observe is None:
            def wrapper(*args, **kwargs):
                sid = enter(site)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(sid)
        else:
            def wrapper(*args, **kwargs):
                sid = enter(site)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    exit_(sid)
                observe(args, out)
                return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters observed at the boundary ------------------------------------

    def _observe_mul(self, args, out):
        a, b = args
        self.term_pairs += len(a.terms) * len(b.terms)
        if a.terms == self._one_terms or b.terms == self._one_terms:
            self.mul_one += 1

    def _observe_nf(self, args, out):
        """Terms of normal forms handed out of the rewrite layer."""
        caller = self.stack[-1]
        if caller >= 0 and self.sites[self.site[caller]][0] == _REWRITE:
            return
        terms = getattr(out, "terms", None)
        if terms is not None:
            n = len(terms)
            self.terms_out += n
            if n > self.peak_terms:
                self.peak_terms = n

    # -- installation ------------------------------------------------------

    def install(self):
        """Import every layer under an import span, then wrap and rebind."""
        importlib.import_module("brauercalc")
        for layer in LAYERS:
            sid = self._enter(self._site(layer, "<import>"))
            try:
                self.modules[layer] = importlib.import_module("brauercalc." + layer)
            finally:
                self._exit(sid)
        coeff = self.modules["coeff"]
        self._one_terms = dict(coeff.lp_int(1).terms)

        replaced = {}  # id(original function) -> wrapper
        for layer, mod in self.modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    public = name in COEFF_FUNCTIONS if layer == "coeff" else not name.startswith("_")
                    if public and id(obj) not in replaced:
                        observe = self._observe_nf if layer == "rewrite" else None
                        replaced[id(obj)] = self._wrap(obj, layer, name, observe)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    self._wrap_class(layer, obj)
        for mod in self.modules.values():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in replaced:
                    self._rebind(mod, name, replaced[id(obj)])

    def uninstall(self):
        """Restore every original, so later checks run untraced."""
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _rebind(self, owner, name, wrapper):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrap_class(self, layer, cls):
        if layer == "coeff":
            if cls.__name__ != "LaurentPoly":
                return
            names = COEFF_METHODS
        else:
            names = [n for n, v in vars(cls).items() if inspect.isfunction(v)
                     and (not n.startswith("_") or n in OPERATOR_DUNDERS)]
        for name in names:
            fn = vars(cls).get(name)
            if not inspect.isfunction(fn):
                continue
            observe = None
            if cls.__name__ == "LaurentPoly" and name == "__mul__":
                observe = self._observe_mul
            elif layer == "rewrite":
                observe = self._observe_nf
            self._rebind(cls, name, self._wrap(fn, layer, "%s.%s" % (cls.__name__, name), observe))

    # -- summary -----------------------------------------------------------

    def summary(self):
        """Per-layer self seconds and counters of every closed span."""
        n = len(self.start)
        child = [0] * n
        spans = []
        for sid in range(n):
            end = self.end[sid]
            if end == 0:
                continue
            spans.append(sid)
            par = self.parent[sid]
            if par >= 0:
                child[par] += end - self.start[sid]
        self_ns = [0] * len(LAYERS)
        site_calls = [0] * len(self.sites)
        boundary = [0] * len(LAYERS)
        for sid in spans:
            layer, name = self.sites[self.site[sid]]
            self_ns[layer] += self.end[sid] - self.start[sid] - child[sid]
            site_calls[self.site[sid]] += 1
            par = self.parent[sid]
            if name != "<import>" and (par < 0 or self.sites[self.site[par]][0] != layer):
                boundary[layer] += 1

        def calls(*names):
            return sum(site_calls[i] for i, (_, nm) in enumerate(self.sites) if nm in names)

        out = {"%s.self_s" % layer: self_ns[i] / 1e9 for i, layer in enumerate(LAYERS)}
        out.update({
            "coeff.mul_calls": calls("LaurentPoly.__mul__"),
            "coeff.mul_one": self.mul_one,
            "coeff.term_pairs": self.term_pairs,
            "coeff.add_calls": calls("LaurentPoly.__add__", "LaurentPoly.__sub__"),
            "coeff.exact_div_calls": calls("lp_exact_div"),
            "diagram.compose_oracle_calls": calls("compose_oracle"),
            "diagram.standard_letters_calls": calls("standard_letters"),
            "diagram.blocks_calls": calls("cup_blocks", "cap_blocks"),
            "rewrite.calls": boundary[LAYERS.index("rewrite")],
            "rewrite.terms_out": self.terms_out,
            "rewrite.peak_terms": self.peak_terms,
            "params.check_consistency_calls": calls("check_consistency"),
            "params.fingerprint_calls": calls("CategoryParams.fingerprint"),
            "algebra.calls": boundary[LAYERS.index("algebra")],
            "functors.calls": boundary[LAYERS.index("functors")],
            "term.parse_calls": calls("parse_expr"),
        })
        return out
