"""Timing spans around latclone's public functions, installed from outside.

A traced function is replaced by a wrapper at every public module attribute
that binds it: in its defining module, in each module that imported it by
name, and in the package namespace. Patching only the defining module would
miss calls made through those copies. Methods are patched on their class.

Each wrapper records a span (name, start, end, parent) and adds the work
counts it can read from the call's arguments and result. A layer's self time
is the duration of its spans minus the time their direct child spans cover;
layers run synchronously in one thread, so no span waits on another.
"""

import importlib
import inspect
import sys
from time import perf_counter

PACKAGE = "latclone"

# (module, attribute, span name); the span name's prefix is the layer.
TARGETS = (
    ("lattice", "construct", "lattice.construct"),
    ("lattice", "is_distributive", "lattice.is_distributive"),
    ("lattice", "is_boolean", "lattice.is_boolean"),
    ("lattice", "forbidden_sublattice", "lattice.forbidden_sublattice"),
    ("lattice", "is_distributive_semilattice", "lattice.is_distributive_semilattice"),
    ("operations", "clone_slice", "operations.clone_slice"),
    ("operations", "centralizer_slice", "operations.centralizer_slice"),
    ("equations", "equations_of", "equations.equations_of"),
    ("equations", "EqTheory.closure", "equations.closure"),
    ("equations", "is_solution_set", "equations.is_solution_set"),
    ("equations", "solve", "equations.solve"),
    ("formulas", "parse_formula", "formulas.parse_formula"),
    ("formulas", "eval_formula", "formulas.eval_formula"),
    ("qe", "eliminate_boolean", "qe.eliminate_boolean"),
    ("qe", "eliminate_semilattice", "qe.eliminate_semilattice"),
    ("sdc", "decide_sdc", "sdc.decide_sdc"),
    ("cli", "load_structure", "cli.load_structure"),
    ("cli", "main", "cli.main"),
)

# Per-layer metrics in report order: (name, unit).
METRICS = tuple((span + "_s", "s") for _, _, span in TARGETS) + (
    ("cli.import_s", "s"),
    ("lattice.construct_calls", "count"),
    ("lattice.is_distributive_semilattice_calls", "count"),
    ("operations.clone_slice_calls", "count"),
    ("operations.clone_slice_tables", "count"),
    ("operations.clone_slice_cells", "count"),
    ("operations.clone_slice_repeat_frac", "ratio"),
    ("operations.centralizer_slice_calls", "count"),
    ("operations.centralizer_slice_tables", "count"),
    ("operations.centralizer_constraints", "count"),
    ("operations.refusals", "count"),
    ("operations.refusal_s", "s"),
    ("equations.equations_of_calls", "count"),
    ("equations.op_evals", "count"),
    ("formulas.eval_formula_calls", "count"),
    ("formulas.eval_cells", "count"),
    ("qe.eliminate_calls", "count"),
    ("qe.output_atoms", "count"),
    ("sdc.decide_sdc_calls", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Work counters that must repeat exactly between two runs of one seed.
WORK_COUNTERS = tuple(name for name, unit in METRICS
                      if unit == "count" or name.endswith("repeat_frac"))


def _count_clone(tracer, args, result):
    gens, n = list(args["generator_ops"]), args["n"]
    key = (tuple((g.arity, g.size, g.values) for g in gens), n)
    tracer.add("operations.clone_slice_calls", 1)
    tracer.add("operations.clone_slice_repeats", int(key in tracer.seen_slices))
    tracer.seen_slices.add(key)
    tracer.add("operations.clone_slice_cells", gens[0].size ** n)
    if result is not None:
        tracer.add("operations.clone_slice_tables", len(result))


def _count_centralizer(tracer, args, result):
    gens, k = list(args["generator_ops"]), args["k"]
    cells = gens[0].size ** k
    tracer.add("operations.centralizer_slice_calls", 1)
    tracer.add("operations.centralizer_constraints", sum(cells ** g.arity for g in gens))
    if result is not None:
        tracer.add("operations.centralizer_slice_tables", len(result))


def _count_equations_of(tracer, args, result):
    tracer.add("equations.equations_of_calls", 1)
    if result is not None:
        tracer.add("equations.op_evals", len(result.ops) * len(args["relation"]))


def _count_eval(tracer, args, result):
    phi = args["phi"]
    tracer.add("formulas.eval_formula_calls", 1)
    tracer.add("formulas.eval_cells",
               args["algebra"].size ** (len(phi.free_vars) + len(phi.bound_vars)))


def _count_eliminate(tracer, args, result):
    tracer.add("qe.eliminate_calls", 1)
    if result is not None:
        tracer.add("qe.output_atoms", len(result.atoms))


def _counter(name):
    return lambda tracer, args, result: tracer.add(name, 1)


COUNTERS = {
    "lattice.construct": _counter("lattice.construct_calls"),
    "lattice.is_distributive_semilattice": _counter("lattice.is_distributive_semilattice_calls"),
    "operations.clone_slice": _count_clone,
    "operations.centralizer_slice": _count_centralizer,
    "equations.equations_of": _count_equations_of,
    "formulas.eval_formula": _count_eval,
    "qe.eliminate_boolean": _count_eliminate,
    "qe.eliminate_semilattice": _count_eliminate,
    "sdc.decide_sdc": _counter("sdc.decide_sdc_calls"),
}


def _resolve(module, attr):
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _package_modules():
    for modname, module in sorted(sys.modules.items()):
        if module is not None and (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            yield modname, module


def binding_sites(original):
    """Every public attribute of a loaded latclone module that is bound to original."""
    return [(module, name) for _, module in _package_modules()
            for name, value in vars(module).items()
            if value is original and not name.startswith("_")]


def patched_sites():
    """Every latclone attribute (or class attribute) that still holds a span wrapper."""
    found = []
    for modname, module in _package_modules():
        for name, value in vars(module).items():
            candidates = [value] + (list(vars(value).values()) if inspect.isclass(value) else [])
            if any(hasattr(c, "__bench_span__") for c in candidates):
                found.append(f"{modname}.{name}")
    return found


class Tracer:
    """Spans and counters for one process; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []           # [name, start, end, parent index]
        self.counts = {}
        self.seen_slices = set()
        self._stack = []
        self._patches = []        # (owner, attribute, original)

    def add(self, name, amount):
        self.counts[name] = self.counts.get(name, 0) + amount

    def install(self):
        for module, _, _ in TARGETS:
            importlib.import_module(f"{PACKAGE}.{module}")
        for module, attr, span in TARGETS:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            wrapper = self._wrap(original, span)
            sites = [(owner, name)] if inspect.isclass(owner) else binding_sites(original)
            for site, site_name in sites:
                self._patches.append((site, site_name, original))
                setattr(site, site_name, wrapper)

    def uninstall(self):
        while self._patches:
            site, name, original = self._patches.pop()
            setattr(site, name, original)

    def _wrap(self, fn, span):
        signature = inspect.signature(fn)
        count = COUNTERS.get(span)
        refusal = (sys.modules[f"{PACKAGE}.errors"].LimitExceeded
                   if span.startswith("operations.") else ())
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            record = [span, perf_counter(), None, tracer._stack[-1] if tracer._stack else None]
            tracer.spans.append(record)
            tracer._stack.append(index)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except refusal:
                tracer.add("operations.refusals", 1)
                tracer.add("operations.refusal_s", perf_counter() - record[1])
                raise
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
                if count is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    count(tracer, bound.arguments, result)

        wrapper.__bench_span__ = span
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def summary(self):
        """Self time per span name and the raw counters, as plain JSON values."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        return {"self_s": self_s, "counts": dict(self.counts)}


def merge(summaries):
    total = {"self_s": {}, "counts": {}}
    for summary in summaries:
        for part in ("self_s", "counts"):
            for name, value in summary[part].items():
                total[part][name] = total[part].get(name, 0) + value
    return total


def layer_metrics(summary, import_s, overhead_frac):
    """The per-layer metrics of METRICS from a merged summary."""
    counts = summary["counts"]
    values = {span + "_s": summary["self_s"].get(span, 0.0) for _, _, span in TARGETS}
    for name, _ in METRICS:
        if name not in values:
            values[name] = counts.get(name, 0)
    calls = counts.get("operations.clone_slice_calls", 0)
    values["operations.clone_slice_repeat_frac"] = (
        counts.get("operations.clone_slice_repeats", 0) / calls if calls else 0.0)
    values["cli.import_s"] = import_s
    values["trace.overhead_frac"] = overhead_frac
    return values
