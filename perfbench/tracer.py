"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, the public functions of every
``treegroups`` module and the public methods of the classes those modules
define (plus ``Word.__mul__``, ``__pow__`` and ``__str__``).  A wrapped
function is rebound in every ``treegroups`` namespace that binds it, because
``freeness`` and ``cli`` import ``classify``, ``fixed_set`` and others by
name.  Methods are patched on their class.

Each call becomes a span: name, start, end and the index of its parent span.
Spans are appended to flat arrays in memory and are only summarised by
:meth:`Tracer.summary`, after the traced work has finished.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import time
from collections import Counter

LAYERS = ("words", "oracles", "splitting", "tree", "freeness", "growth",
          "bounds", "manifolds", "cli")

_WORD_DUNDERS = ("__mul__", "__pow__", "__str__")

# named spans whose own figures are reported next to the layer totals
COSET_REP = "oracles._FreeCyclicSubgroup.coset_rep"
NORMAL_FORM = "splitting.SplittingSpec.normal_form"
IS_TRIVIAL = "splitting.SplittingSpec.is_trivial"
CERTIFY = ("freeness.certify_rank2_free", "freeness.certify_free_semigroup")
ACYL = "tree.check_acylindricity"
ENUMERATE = "tree.enumerate_words"
S0_CORE = "bounds.s0_core"


class Tracer:
    """Installs span wrappers into ``treegroups`` and summarises the spans."""

    def __init__(self):
        self.names: list = []
        self.layer_of: list = []
        self._ids: dict = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack: list = []
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.nf_seen: set = set()  # normal_form inputs seen in this process
        self.acyl_forms: set = set()

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans and counters (the normal-form history stays,
        because repeats are counted per process)."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.errors.clear()
        self.counters.clear()
        self.acyl_forms.clear()

    def _id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def _wrap(self, fn, name: str, layer: str):
        nid = self._id(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        pre, post = _HOOKS.get(name, (None, None))
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = len(starts)
                        names.append(nid)
                        parents.append(stack[-1] if stack else -1)
                        starts.append(clock())
                        ends.append(0.0)
                        stack.append(idx)
                        try:
                            item = next(it)
                        except StopIteration:
                            ends[idx] = clock()
                            stack.pop()
                            return
                        except BaseException as exc:
                            ends[idx] = clock()
                            stack.pop()
                            tracer._error(nid, exc)
                            raise
                        ends[idx] = clock()
                        stack.pop()
                        if post is not None:
                            post(tracer, args, item)
                        yield item
                finally:
                    it.close()
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                pre(tracer, args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                tracer._error(nid, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if post is not None:
                post(tracer, args, result)
            return result
        return traced

    def _error(self, nid: int, exc: BaseException) -> None:
        """Count an exception once, where it leaves its layer.  SystemExit is
        how the CLI returns its exit code, not an error."""
        if isinstance(exc, (SystemExit, GeneratorExit)):
            return
        layer = self.layer_of[nid]
        parent = self.stack[-1] if self.stack else -1
        if parent < 0 or self.layer_of[self.span_name[parent]] != layer:
            self.errors[layer] += 1

    def parent_name(self) -> str:
        return self.names[self.span_name[self.stack[-1]]] if self.stack else ""

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"treegroups.{layer}")
                   for layer in LAYERS}
        namespaces = [importlib.import_module("treegroups")] + list(modules.values())
        self.hp_trigger = modules["bounds"].HIGH_PRECISION_TRIGGER
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    wrapper = self._wrap(obj, f"{layer}.{attr}", layer)
                    for ns in namespaces:
                        for k, v in list(vars(ns).items()):
                            if v is obj:
                                setattr(ns, k, wrapper)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(obj, layer)

    def _install_class(self, cls, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and not (cls.__name__ == "Word" and attr in _WORD_DUNDERS):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(member.__func__, name, layer)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self._wrap(member.__func__, name, layer)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(member, name, layer))

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name [calls, self_s, total_s], layer errors and counters."""
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        certify_ids = {self._ids[c] for c in CERTIFY if c in self._ids}
        node_ids = {self._ids[c] for c in (NORMAL_FORM, IS_TRIVIAL) if c in self._ids}
        nodes = 0
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
                if names[i] in node_ids and names[p] in certify_ids:
                    nodes += 1
        stats: dict = {}
        for i in range(n):
            dur = ends[i] - starts[i]
            row = stats.get(names[i])
            if row is None:
                row = stats[names[i]] = [0, 0.0, 0.0]
            row[0] += 1
            row[1] += dur - child[i]
            row[2] += dur
        counters = dict(self.counters)
        counters["freeness.certify.nodes"] = nodes
        return {"spans": {self.names[k]: v for k, v in stats.items()},
                "errors": dict(self.errors),
                "counters": counters}


# -- hooks: counts taken at the layer boundaries --------------------------


def _count_letters_out(tracer, args, result) -> None:
    letters = getattr(result, "letters", None)
    if letters is not None:
        tracer.counters["words.letters_out"] += len(letters)


def _normal_form_pre(tracer, args) -> None:
    letters = args[1].letters
    tracer.counters["splitting.normal_form.letters_in"] += len(letters)
    if letters in tracer.nf_seen:
        tracer.counters["splitting.normal_form.repeats"] += 1
    else:
        tracer.nf_seen.add(letters)


def _normal_form_post(tracer, args, result) -> None:
    if tracer.parent_name() == ACYL and not result.is_trivial:
        tracer.acyl_forms.add(result.key())
        tracer.counters["tree.acyl.distinct_forms"] = len(tracer.acyl_forms)


def _enumerate_post(tracer, args, item) -> None:
    tracer.counters["tree.acyl.words_enumerated"] += 1


def _s0_core_pre(tracer, args) -> None:
    mode = args[1] if len(args) > 1 else "auto"
    if mode == "high" or (mode == "auto" and args[0] > tracer.hp_trigger):
        tracer.counters["bounds.high_precision_calls"] += 1


_HOOKS = {
    NORMAL_FORM: (_normal_form_pre, _normal_form_post),
    ENUMERATE: (None, _enumerate_post),
    S0_CORE: (_s0_core_pre, None),
}
for _name in ("of", "gen", "identity", "__mul__", "inverse", "__pow__",
              "conjugated_by", "parse"):
    _HOOKS[f"words.Word.{_name}"] = (None, _count_letters_out)
