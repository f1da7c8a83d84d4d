"""Per-layer tracing of ``bd4`` from outside the package.

The traced run rebinds the public functions each layer exposes, in the
defining module and in every ``bd4`` module that imported them by name,
for this process only.  A wrapper opens a span unless the innermost
open span already belongs to the same layer, so a layer calling itself
is one span.  A span's self time is its duration minus the time of the
spans it caused, so a child's time is taken out of its parent.  Counts
are taken at the same boundaries.  Spans are timed with the clock the
tracer is given; the benchmark gives it its reference clock, so layer
seconds are in the unit of every other time it reports.

Every metric is a number.  A layer that is never entered on a
workload's path reads 0 calls and 0 seconds, as measured.  A hook whose
module, class or function no longer exists is recorded as missing, and
every metric that depends on it reads 0 and is named in ``unmeasured``;
so is a count whose hook fails on a result it no longer understands.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Hook:
    module: str
    name: str                 # a function, or Class.method
    layer: str | None = None  # None: counted only, never timed
    count: str | None = None  # counter bumped on every call
    after: object = None      # after(tracer, bound_args, result)
    every_call: bool = False  # run ``after`` on nested calls too
    scope: tuple = ()         # rebind only in these modules (default all)
    generator: bool = False   # count the items the generator yields


def _letters(allowed) -> str:
    names = {v.name.lower() for v in allowed}
    return "".join(c for c in "tbnf" if c in names)


def _valuations(tr, ba, out):
    """Valuations the oracle scanned: all of them on a valid result, up
    to and including the first countervaluation otherwise."""
    args = ba.arguments
    letters = _letters(args["allowed"])
    holds, witness = out
    if holds:
        from bd4.syntax import prop_atoms
        names = set()
        for a in list(args["gamma"]) + list(args["delta"]):
            names |= prop_atoms(a)
        scanned = len(letters) ** len(names)
    else:
        index = 0
        for atom in sorted(witness):
            index = index * len(letters) + letters.index(
                witness[atom].name.lower())
        scanned = index + 1
    tr.counts["semantics.prop.valuations"] += scanned


def _occurring(formulas, sig):
    from bd4.syntax import Eq, Fun, Pred, Prop, subformulas
    funcs, preds, has_eq = set(), set(), False
    for a in formulas:
        for s in subformulas(a):
            terms = []
            if isinstance(s, Prop):
                preds.add((s.name, 0))
            elif isinstance(s, Pred):
                preds.add((s.name, sig.predicate_arity(s.name)))
                terms = list(s.args)
            elif isinstance(s, Eq):
                has_eq = True
                terms = [s.left, s.right]
            while terms:
                t = terms.pop()
                if isinstance(t, Fun):
                    funcs.add((t.name, sig.function_arity(t.name)))
                    terms.extend(t.args)
    return funcs, preds, has_eq


def sweep_size(formulas, sig, mode, max_domain, allowed=None,
               eq_distinct=None) -> int:
    """Structures a full sweep of a query over ``formulas`` visits, by the
    public ``count_structures`` over the symbols that occur."""
    from bd4.semantics import count_structures
    from bd4.syntax import Signature
    from bd4.values import ALL_VALUES
    funcs, preds, has_eq = _occurring(formulas, sig)
    small = Signature(functions=tuple(sorted(funcs)),
                      predicates=tuple(sorted(preds)), extras=sig.extras)
    first = 2 if mode == "partial" else 1
    return sum(count_structures(small, k, mode, allowed or ALL_VALUES,
                                has_eq, eq_distinct)
               for k in range(first, max_domain + 1))


def _fo_sweep(tr, ba, out):
    a = ba.arguments
    tr.counts["semantics.fo.full_sweep"] += sweep_size(
        list(a["gamma"]) + list(a["delta"]), a["sig"], a["mode"],
        a["max_domain"], a["allowed"], a["eq_distinct"])


def _search(tr, ba, out):
    tr.counts["search." + out.status] += 1
    if out.proof is not None:
        tr.counts["search.proof_steps"] += len(out.proof.steps)


def _kernel_steps(tr, ba, out):
    good, violation = out
    d = ba.arguments["d"]
    tr.counts["kernel.steps"] += (
        len(d.steps) if good else min(violation.step + 1, len(d.steps)))


def _printed(tr, ba, out):
    tr.counts["proofio.bytes"] += len(out.encode())


def _clone_tables(tr, ba, out):
    tr.counts["definability.clone_tables"] += len(out)


def _columns(tr, ba, out):
    columns = getattr(ba.arguments["self"], "columns", None)
    if columns is not None:
        tr.counts["acceptance.fospace.columns"] += len(columns)


def _layer(module, layer, *names, **kw):
    return tuple(Hook(module, n, layer, **kw) for n in names)


# the public functions of each layer that the workloads, ``acceptance``
# or ``search`` call
HOOKS = (
    _layer("bd4.parser", "parser", "parse_sequent", "parse_formula_list",
           "parse_formula", "parse_term")
    + (Hook("bd4.semantics", "consequence_prop", "semantics.prop",
            after=_valuations),)
    + _layer("bd4.semantics", "semantics.propspace", "PropSpace.vector",
             "PropSpace.mask", "PropSpace.holds")
    + (Hook("bd4.semantics", "consequence_fo", "semantics.fo",
            after=_fo_sweep),
       Hook("bd4.semantics", "enumerate_structures",
            count="semantics.fo.structures", scope=("bd4.semantics",),
            generator=True),
       Hook("bd4.semantics", "evaluate", count="semantics.eval.calls",
            scope=("bd4.acceptance",)),
       Hook("bd4.search", "prove_prop", "search", after=_search),
       Hook("bd4.kernel", "check_derivation", "kernel", after=_kernel_steps,
            every_call=True))
    + _layer("bd4.kernel", "kernel", "is_proof")
    + _layer("bd4.proofio", "proofio", "print_derivation", "print_structure",
             "print_sequent", after=_printed)
    + _layer("bd4.proofio", "proofio", "parse_derivation", "parse_signature")
    + (Hook("bd4.matrixlab", "uniqueness_search", "matrixlab",
            count="matrixlab.uniqueness.calls"),
       Hook("bd4.matrixlab", "check_law", count="matrixlab.check_law.calls"))
    + _layer("bd4.matrixlab", "matrixlab", "check_all_laws",
             "check_classical_laws", "is_regular", "is_classically_closed")
    + (Hook("bd4.definability", "clone_closure", "definability",
            after=_clone_tables),)
    + _layer("bd4.definability", "definability", "verify_definition",
             "is_definable_criterion", "check_expansion_equivalences")
    + _layer("bd4.simulation", "simulation", "verify_simulation",
             "translation_sets")
    + (Hook("bd4.acceptance", "FOSpace.__init__", "acceptance.fospace",
            after=_columns),
       Hook("bd4.acceptance", "FOSpace.mask", "acceptance.fospace",
            count="acceptance.fospace.mask_calls"))
    + _layer("bd4.acceptance", "acceptance.fospace", "FOSpace.counter_mask",
             "FOSpace.valid", "FOSpace.countermodel")
)

# layers whose number of spans is a metric; every layer's self time is
LAYER_CALLS = ("parser", "semantics.prop", "semantics.propspace",
               "semantics.fo", "search", "kernel", "proofio", "definability",
               "simulation")
CRITERIA = tuple(range(1, 13))

# every per-layer metric as (name, unit), in the order BENCHMARK.json lists
METRICS = (
    ("parser.calls", "count"), ("parser.self_s", "s"),
    ("semantics.prop.calls", "count"), ("semantics.prop.self_s", "s"),
    ("semantics.prop.valuations", "count"),
    ("semantics.propspace.calls", "count"),
    ("semantics.propspace.self_s", "s"),
    ("semantics.fo.calls", "count"), ("semantics.fo.self_s", "s"),
    ("semantics.fo.structures", "count"),
    ("semantics.fo.scan_ratio", "ratio"),
    ("semantics.eval.calls", "count"),
    ("search.calls", "count"), ("search.self_s", "s"),
    ("search.proved", "count"), ("search.refuted", "count"),
    ("search.exhausted", "count"), ("search.proof_steps", "count"),
    ("kernel.calls", "count"), ("kernel.self_s", "s"),
    ("kernel.steps", "count"),
    ("proofio.calls", "count"), ("proofio.self_s", "s"),
    ("proofio.bytes", "bytes"),
    ("matrixlab.uniqueness.calls", "count"), ("matrixlab.self_s", "s"),
    ("matrixlab.check_law.calls", "count"),
    ("definability.calls", "count"), ("definability.self_s", "s"),
    ("definability.clone_tables", "count"),
    ("simulation.calls", "count"), ("simulation.self_s", "s"),
    ("acceptance.fospace.columns", "count"),
    ("acceptance.fospace.mask_calls", "count"),
    ("acceptance.fospace.self_s", "s"),
    ("acceptance.c10.nonvacuous_ratio", "ratio"),
) + tuple(("report.c%02d_s" % n, "s") for n in CRITERIA) + (
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Spans and counts for one process; ``install`` rebinds the hooks
    and ``uninstall`` puts every original back.  ``now`` is the clock
    spans are timed with."""

    def __init__(self, hooks=HOOKS, now=perf_counter):
        self.hooks = hooks
        self.now = now
        self.stack: list = []   # open spans: [layer, seconds of children]
        self.open = Counter()   # open spans per layer
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.installed: set = set()
        self.missing: set = set()
        self.broken: set = set()    # hooks whose ``after`` raised
        self.unmeasured: list = []  # metrics ``metrics`` had to read as 0
        self._undo: list = []
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Let calls through untraced, for the benchmark's own checks."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, hook: Hook, fn):
        if hook.generator:
            return self._wrap_generator(hook, fn)
        sig = inspect.signature(fn)
        counts, stack, layer, now = (self.counts, self.stack, hook.layer,
                                     self.now)
        key = "%s.%s" % (hook.module, hook.name)

        def after(args, kwargs, out):
            try:
                ba = sig.bind(*args, **kwargs)
                ba.apply_defaults()
                hook.after(self, ba, out)
            except Exception:  # the count is unmeasured, the run goes on
                self.broken.add(key)

        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            if hook.count:
                counts[hook.count] += 1
            if layer is None or (stack and stack[-1][0] == layer):
                out = fn(*args, **kwargs)
                if hook.after is not None and hook.every_call:
                    after(args, kwargs, out)
                return out
            frame = [layer, 0.0]
            stack.append(frame)
            self.open[layer] += 1
            t0 = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = now() - t0
                stack.pop()
                self.open[layer] -= 1
                self.calls[layer] += 1
                self.self_s[layer] += dt - frame[1]
                if not self.open[layer]:
                    self.incl[layer] += dt
                if stack:
                    stack[-1][1] += dt
            if hook.after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _wrap_generator(self, hook: Hook, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if not self._paused:
                    counts[hook.count] += 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        for hook in self.hooks:
            key = "%s.%s" % (hook.module, hook.name)
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self.missing.add(key)
                continue
            owner_name, _, attr = hook.name.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = None if owner is None else owner.__dict__.get(attr)
                if fn is None:
                    self.missing.add(key)
                    continue
                self._set(owner, attr, fn, self._wrap(hook, fn))
            else:
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(key)
                    continue
                wrapper = self._wrap(hook, fn)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if not (name == "bd4" or name.startswith("bd4.")):
                        continue
                    if hook.scope and name not in hook.scope:
                        continue
                    for var, val in list(vars(mod).items()):
                        if val is fn:
                            self._set(mod, var, fn, wrapper)
            self.installed.add(key)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- metrics ----------------------------------------------------------

    def _has(self, module, *names) -> bool:
        keys = ["%s.%s" % (module, n) for n in names]
        return all(k in self.installed and k not in self.broken
                   for k in keys)

    def _layer_hooked(self, layer) -> bool:
        return any(h.layer == layer and
                   "%s.%s" % (h.module, h.name) in self.installed
                   for h in self.hooks)

    def metrics(self, criteria=None, c10_details=None, overhead=0.0):
        """name -> number, for every name in ``METRICS``; ``unmeasured``
        then names the metrics whose hooks are missing or broken."""
        c = self.counts
        out = {}
        self.unmeasured = []

        def measured(name, ok, value):
            out[name] = value if ok else 0
            if not ok:
                self.unmeasured.append(name)

        for layer in LAYER_CALLS + ("matrixlab", "acceptance.fospace"):
            hooked = self._layer_hooked(layer)
            measured(layer + ".self_s", hooked, float(self.self_s[layer]))
            if layer in LAYER_CALLS:
                measured(layer + ".calls", hooked, self.calls[layer])

        def counted(name, module, *hooks):
            measured(name, self._has(module, *hooks), c[name])

        counted("semantics.prop.valuations", "bd4.semantics",
                "consequence_prop")
        counted("semantics.fo.structures", "bd4.semantics",
                "enumerate_structures")
        full = c["semantics.fo.full_sweep"]
        measured("semantics.fo.scan_ratio",
                 self._has("bd4.semantics", "enumerate_structures",
                           "consequence_fo"),
                 c["semantics.fo.structures"] / full if full else 0.0)
        counted("semantics.eval.calls", "bd4.semantics", "evaluate")
        for key in ("proved", "refuted", "exhausted", "proof_steps"):
            counted("search." + key, "bd4.search", "prove_prop")
        counted("kernel.steps", "bd4.kernel", "check_derivation")
        counted("proofio.bytes", "bd4.proofio", "print_derivation",
                "print_structure", "print_sequent")
        counted("matrixlab.uniqueness.calls", "bd4.matrixlab",
                "uniqueness_search")
        counted("matrixlab.check_law.calls", "bd4.matrixlab", "check_law")
        counted("definability.clone_tables", "bd4.definability",
                "clone_closure")
        counted("acceptance.fospace.columns", "bd4.acceptance",
                "FOSpace.__init__")
        counted("acceptance.fospace.mask_calls", "bd4.acceptance",
                "FOSpace.mask")
        ratio = _nonvacuous_ratio(c10_details)
        measured("acceptance.c10.nonvacuous_ratio",
                 ratio is not None or c10_details is None, ratio or 0.0)
        for n in CRITERIA:
            out["report.c%02d_s" % n] = (criteria or {}).get(n, 0.0)
        out["trace.overhead_s"] = overhead
        return out

    def layer_table(self) -> dict:
        """calls, inclusive and self seconds of every layer entered."""
        return {layer: {"calls": self.calls[layer],
                        "incl_s": round(self.incl[layer], 6),
                        "self_s": round(self.self_s[layer], 6)}
                for layer in sorted(self.calls)}


def _nonvacuous_ratio(details):
    """Share of criterion 10's sampled instances whose premises all held."""
    if not details:
        return None
    try:
        attempted = details["runs"] * details["instances_per_run"]
    except KeyError:
        return None
    kept = sum(v for k, v in details.items() if k.endswith("_nonvacuous"))
    return kept / attempted if attempted else None
