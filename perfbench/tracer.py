"""Span tracing of one repring process, installed from outside the package.

``Tracer.install`` wraps the public functions of every ``repring`` module
and the working methods of its classes.  Each wrapper is bound at every
place that holds the original: the defining module, every module that
did ``from .x import f``, and the class dict for methods.  Every call
records a span (name, start, end, parent span, op id); spans stay in
memory until ``summary`` reduces them to the per-layer figures.
``uninstall`` puts every original back and reports whether it did.

Leaf helpers called hundreds of thousands of times (permutation and
polynomial arithmetic, cyclotomic numbers) are not wrapped: their cost
stays in the self time of the calling span, and wrapping them would cost
more than they do.
"""

import functools
import importlib
import time
import types

# cyclo and lift hold only arithmetic leaves (Cyc, BrauerLift) and are
# not wrapped; their time counts in the self time of their callers
MODULES = ("gf", "linalg", "groups", "catalog", "meataxe", "brauer",
           "defects", "report", "verify", "cli")

# private names that carry a metric of their own
PRIVATE = {"defects._u_from", "defects._structure_constants",
           "verify._Context"}

# classes whose methods are wrapped; arithmetic value types (GF, Cyc,
# BrauerLift, RkElement, ClosedSet) are leaves and stay unwrapped
CLASSES = {"groups.PermGroup", "catalog.PGroupCatalog", "brauer.BrauerData",
           "meataxe.Module", "defects.DefectReport", "verify._Context"}

SKIP = {
    "groups.perm_mul", "groups.perm_inv", "groups.perm_order",
    "groups.p_part", "groups.is_p_power",
    "groups.PermGroup.index_of", "groups.PermGroup.mul",
    "groups.PermGroup.inv", "groups.PermGroup.conjugate",
    "groups.PermGroup.element_order", "groups.PermGroup.describe",
    "groups.PermGroup.key",
}

# (metric, span names) pairs timed inclusively: the outermost span of the
# set counts with its whole duration, nested ones add nothing
INCLUSIVE = (
    ("catalog.build_s", ("catalog.build_catalog",)),
    ("catalog.lookup_s", ("catalog.PGroupCatalog.index_of_isomorphic",)),
    ("meataxe.chop_s", ("meataxe.chop_regular",)),
    ("meataxe.dedup_s", ("meataxe.dedup_simples",)),
    ("gf.factor_s", ("gf.factor_poly", "gf.poly_roots")),
    ("defects.classify_s", ("defects.defect_classification",)),
    ("defects.gamma_s", ("defects.cartan_image_basis",
                         "defects.gamma_element")),
    ("defects.u_s", ("defects.u_element",)),
    ("defects.sp_s", ("defects.sp_dimension",)),
    ("report.serialize_s", ("report.to_canonical_json",)),
    ("verify.contexts_s", ("verify._Context.__init__",)),
)

SUITES = ("simple_count", "cartan_divisors", "cartan_rank", "gamma_basis",
          "genk_basis", "sp_dimension", "pgroup_indicator",
          "closed_set_lattice", "ideal_property", "product_factorization",
          "cartan_cross_oracle", "determinism")

# (metric, span names) pairs counted by calls
CALLS = (
    ("catalog.build_calls", ("catalog.build_catalog",)),
    ("catalog.builds", ("catalog.catalog_from_dataset",)),
    ("catalog.lookups", ("catalog.PGroupCatalog.index_of_isomorphic",)),
    ("meataxe.recipes_tried", ("meataxe.random_recipe",)),
    ("meataxe.regular_modules", ("meataxe.regular_module",)),
    ("meataxe.chop_regular_calls", ("meataxe.chop_regular",)),
    ("linalg.charpolys", ("linalg.gf_charpoly",)),
    ("linalg.rank_calls", ("linalg.gf_rank",)),
    # poly_roots factors through factor_poly: one call per factorization
    ("gf.factor_calls", ("gf.factor_poly",)),
    ("groups.perm_groups_built", ("groups.PermGroup.__init__",)),
    ("groups.iso_searches", ("groups.is_isomorphic", "groups.embeds_into")),
    ("brauer.data_calls", ("brauer.brauer_data",)),
    ("brauer.data_builds", ("brauer.BrauerData.__init__",)),
    ("defects.u_calls", ("defects.u_element",)),
    ("defects.u_builds", ("defects._u_from",)),
    ("defects.rk_multiply_calls", ("defects.rk_multiply",)),
)


def suite_metric(suite):
    return "verify.suite_s." + suite.replace("_", "-")


class Tracer:
    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []   # (name, start, end, parent index, op id)
        self._stack = []
        self._bound = []  # (owner, attribute, original)
        self.dims_chopped = 0

    def _wrap(self, name, fn):
        spans, stack, op_id = self.spans, self._stack, self.op_id
        clock = time.perf_counter
        count_dims = name == "meataxe.chop"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_dims:
                self.dims_chopped += args[0].dim
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, op_id)
                stack.pop()

        traced.__perfbench_original__ = fn
        return traced

    def install(self):
        mods = {m: importlib.import_module("repring." + m) for m in MODULES}
        targets = []  # (span name, original, class holding it or None)
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (name in SKIP or (attr.startswith("_") and name not in PRIVATE)
                        or (attr.startswith("poly_") and attr != "poly_roots")):
                    continue
                if isinstance(obj, type):
                    if name not in CLASSES:
                        continue
                    for meth, fn in vars(obj).items():
                        mname = f"{name}.{meth}"
                        if (isinstance(fn, types.FunctionType)
                                and (meth == "__init__" or not meth.startswith("_"))
                                and mname not in SKIP):
                            targets.append((mname, fn, obj))
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    targets.append((name, obj, None))
        for name, fn, cls in targets:
            wrapped = self._wrap(name, fn)
            if cls is not None:
                self._bind(cls, name.rsplit(".", 1)[1], wrapped)
                continue
            # every module that imported the function holds its own name
            for mod in mods.values():
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._bind(mod, attr, wrapped)

    def _bind(self, owner, attr, wrapped):
        self._bound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        """Restore every rebound name; True if none is left wrapped."""
        for owner, attr, original in reversed(self._bound):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._bound)
        for m in MODULES:
            mod = importlib.import_module("repring." + m)
            for obj in vars(mod).values():
                found = [obj] + (list(vars(obj).values())
                                 if isinstance(obj, type) else [])
                if any(hasattr(o, "__perfbench_original__") for o in found):
                    restored = False
        self._bound.clear()
        return restored

    def summary(self):
        """Per-layer totals over every recorded span."""
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        calls = {}
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for layer in MODULES:
            out[f"{layer}.self_s"] = 0.0
        self_total = 0.0
        for i, (name, start, end, _, _) in enumerate(spans):
            own = end - start - child_time[i]
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += own
            self_total += own
        # one bit per inclusive metric; a span is outermost for a metric
        # when its name carries the bit and no enclosing span does
        groups = list(INCLUSIVE) + [
            (suite_metric(s), ("verify.suite_" + s,)) for s in SUITES]
        bits = {}
        for k, (metric, names) in enumerate(groups):
            out[metric] = 0.0
            for nm in names:
                bits[nm] = bits.get(nm, 0) | (1 << k)
        mask = [0] * n
        for i, (name, start, end, parent, _) in enumerate(spans):
            above = mask[parent] if parent >= 0 else 0
            own = bits.get(name, 0)
            mask[i] = above | own
            fresh = own & ~above
            k = 0
            while fresh:
                if fresh & 1:
                    out[groups[k][0]] += end - start
                fresh >>= 1
                k += 1
        for metric, names in CALLS:
            out[metric] = sum(calls.get(nm, 0) for nm in names)
        out["meataxe.dims_chopped"] = self.dims_chopped
        out["trace.spans"] = n
        out["trace.self_total_s"] = self_total
        return out
