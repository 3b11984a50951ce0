"""Spans around calls into the zkwander modules, from outside the package.

``Tracer.install`` replaces every public function of each layer module with
a timing wrapper, at every module attribute where the function is bound
(``zkwander.reduction.weight`` as well as ``zkwander.weights.weight``, and
the names the benchmark itself imported), so calls are seen whichever name
they go through.  Nothing in
``src/`` changes; ``uninstall`` puts the originals back.

Each wrapped call becomes a span (name, start, end, parent span, op id,
self time).  The scalar layer is the exception: its functions and the
``Radical``/``Interval`` methods run ~10^5 times per op, so they are only
counted and timed, not kept as spans.  Self time is a call's duration minus
the time of the wrapped calls made inside it, so the time of a call that is
not wrapped (a private helper, mpmath, fractions) lands on the nearest
wrapped caller.  Bookkeeping after a call ends lands there too, which is
part of the tracing overhead the traced run reports.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("weights", "scalars", "model", "reduction", "recovery", "certify",
          "search", "asymptotic", "cli")
REGIMES = ("rational", "interval", "float")
COUNTED_ONLY = ("scalars",)
SCALAR_CLASSES = ("Radical", "Interval")


def _regime_arg(pos: int):
    def label(args, kwargs, result):
        if len(args) > pos:
            return args[pos]
        return kwargs.get("regime", "rational")
    return label


def _confirm_label(args, kwargs, result):
    return "raised" if result is None else result[2]


# name -> label of one call, appended to the span name
LABELS = {
    "weights.weight": _regime_arg(2),
    "reduction.reduce_system": _regime_arg(2),
    "reduction.compute_C": lambda a, kw, r: (a[0] if a else kw["rs"]).regime,
    "model.compute_A": _regime_arg(3),
    "model.inner_product": _regime_arg(3),
    "certify.verify": _regime_arg(2),
    "search.minimize": lambda a, kw, r: (a[0] if a else kw["config"]).strategy,
    "search.confirm_value": _confirm_label,
}

# private functions that are layers of their own
EXTRA = {"certify._membership_sweep": "certify.membership_sweep"}


class Tracer:

    def __init__(self):
        self.op_id = -1
        self.names: list = []
        self._name_ids: dict = {}
        self.spans = {"id": array("q"), "name": array("l"),
                      "start": array("d"), "end": array("d"),
                      "parent": array("q"), "op": array("q"),
                      "self": array("d")}
        self.counted: dict = {}     # name -> [calls, self seconds]
        self.counters: dict = {}    # derived counts (bytes, verdicts, ...)
        self.weight_keys: set = set()
        self._stack: list = []      # child-time accumulator per open call
        self._current = -1          # innermost open span
        self._next_id = 0
        self._patches: list = []    # (namespace or class, name, original)

    # -- recording -------------------------------------------------------

    def count(self, key: str, n=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name: str, spanned: bool):
        label = LABELS.get(name)
        after = AFTER.get(name)
        clock = time.perf_counter
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            acc = [0.0]
            stack.append(acc)
            parent = tracer._current
            if spanned:
                sid = tracer._next_id
                tracer._next_id = sid + 1
                tracer._current = sid
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                key = name if label is None else \
                    f"{name}.{label(args, kwargs, result)}"
                if spanned:
                    tracer._current = parent
                    spans["id"].append(sid)
                    spans["name"].append(tracer._name_id(key))
                    spans["start"].append(t0)
                    spans["end"].append(t1)
                    spans["parent"].append(parent)
                    spans["op"].append(tracer.op_id)
                    spans["self"].append(dur - acc[0])
                else:
                    slot = tracer.counted.get(key)
                    if slot is None:
                        slot = tracer.counted[key] = [0, 0.0]
                    slot[0] += 1
                    slot[1] += dur - acc[0]
                if after is not None:
                    after(tracer, args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    # -- installing ------------------------------------------------------

    def _targets(self):
        """(function, span name) for every module-level function wrapped."""
        for layer in LAYERS:
            mod = importlib.import_module(f"zkwander.{layer}")
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    yield fn, f"{layer}.{attr}"
        for dotted, name in EXTRA.items():
            layer, attr = dotted.split(".")
            mod = importlib.import_module(f"zkwander.{layer}")
            yield getattr(mod, attr), name

    def install(self) -> "Tracer":
        wrappers = {}
        for fn, name in list(self._targets()):
            spanned = name.split(".")[0] not in COUNTED_ONLY
            wrappers[id(fn)] = (fn, self._wrap(fn, name, spanned))
        # every module that bound a wrapped function under any name, the
        # benchmark's own modules included, and module-level tables of
        # functions such as search._OBJECTIVES
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            tables = [v for k, v in namespace.items()
                      if isinstance(v, dict) and k != "__builtins__"]
            for table in [namespace] + tables:
                for key, value in list(table.items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patches.append((table, key, value))
                        table[key] = hit[1]
        scalars = sys.modules["zkwander.scalars"]
        for cls_name in SCALAR_CLASSES:
            self._wrap_class(getattr(scalars, cls_name), f"scalars.{cls_name}",
                             spanned=False, skip=("__repr__",))
        cert_cls = sys.modules["zkwander.certify"].Certificate
        to_json = cert_cls.__dict__["to_json"]
        self._patches.append((cert_cls, "to_json", to_json))
        cert_cls.to_json = self._wrap(to_json, "certify.to_json", spanned=True)
        return self

    def _wrap_class(self, cls, name: str, spanned: bool, skip=()) -> None:
        for attr, value in list(vars(cls).items()):
            if attr in skip or isinstance(value, (staticmethod, property)):
                continue
            if isinstance(value, classmethod):
                wrapped = classmethod(
                    self._wrap(value.__func__, name, spanned))
            elif inspect.isfunction(value) and (
                    not attr.startswith("_") or attr.endswith("__")):
                wrapped = self._wrap(value, name, spanned)
            else:
                continue
            self._patches.append((cls, attr, value))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------

    def totals(self) -> dict:
        """name -> (calls, self seconds), from the spans and the counted."""
        out = {}
        names, selfs = self.spans["name"], self.spans["self"]
        for i in range(len(names)):
            slot = out.setdefault(self.names[names[i]], [0, 0.0])
            slot[0] += 1
            slot[1] += selfs[i]
        for name, (calls, selft) in self.counted.items():
            slot = out.setdefault(name, [0, 0.0])
            slot[0] += calls
            slot[1] += selft
        return out

    def write_spans(self, path) -> int:
        """All spans as gzipped CSV; returns the number written."""
        s = self.spans
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,start_s,end_s,parent,op,self_s\n")
            for i in range(len(s["id"])):
                fh.write(f"{s['id'][i]},{self.names[s['name'][i]]},"
                         f"{s['start'][i]!r},{s['end'][i]!r},{s['parent'][i]},"
                         f"{s['op'][i]},{s['self'][i]!r}\n")
        return len(s["id"])


# -- per-call hooks feeding the derived counters ---------------------------

def _after_weight(tr, args, kwargs, result, exc):
    regime = args[2] if len(args) > 2 else kwargs.get("regime", "rational")
    tr.weight_keys.add((args[0], args[1], regime))


def _after_degenerate(tr, args, kwargs, result, exc):
    if type(exc).__name__ == "DegenerateReductionError":
        tr.count("reduction.degenerate")


def _after_objective(tr, args, kwargs, result, exc):
    tr.count("reduction.objective.calls")


def _after_attach(tr, args, kwargs, result, exc):
    if type(exc).__name__ == "RegisterTooLargeError":
        tr.count("recovery.attach_register.rejected")


def _after_verify(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count(f"certify.verdict.{result.verdict}")


def _after_to_json(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("certify.to_json.bytes", len(result.encode()))


def _after_check(tr, args, kwargs, result, exc):
    if result is not None:
        tr.count("certify.check_certificate.mismatches",
                 len(result["mismatches"]))


def _after_minimize(tr, args, kwargs, result, exc):
    tr.count("search.systems")
    if result is not None:
        tr.count("search.evaluations", result.evaluations)
        tr.count("search.singular_skipped", result.singular_skipped)
        tr.count("search.below", int(result.below_threshold))


AFTER = {
    "weights.weight": _after_weight,
    "reduction.reduce_system": _after_degenerate,
    "reduction.compute_C": _after_degenerate,
    "reduction.objective_B0": _after_objective,
    "reduction.objective_B1": _after_objective,
    "reduction.objective_B2": _after_objective,
    "recovery.attach_register": _after_attach,
    "certify.verify": _after_verify,
    "certify.to_json": _after_to_json,
    "certify.check_certificate": _after_check,
    "search.minimize": _after_minimize,
}
