"""Per-layer tracing for the benchmark's traced pass.

A Tracer rebinds library functions where their callers look them up
(module globals and class attributes) with wrappers that count calls,
time spans and record sizes, and puts every original object back on
restore.  Nothing under ``src/`` is edited.  Spans nest: a span's self
time is its duration minus the time of the spans it encloses.
"""

import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import wraps
from math import ceil, floor
from time import perf_counter_ns


def _box_candidates(gens, d):
    """Size of the bounding box parallelotope_points scans for these
    generators at lattice scale 1/d."""
    gens = [tuple(Fraction(x) for x in g) for g in gens]
    count = 1
    for j in range(len(gens[0])):
        lo = sum(min(0, g[j]) for g in gens)
        hi = sum(max(0, g[j]) for g in gens)
        count *= max(0, floor(hi * d) - ceil(lo * d) + 1)
    return count


def _pieces(sizes, args, kwargs, combo):
    sizes["cone_algebra.pieces"] += len(combo.terms)


def _lattice(sizes, args, kwargs, points):
    gens, d = args[:2]
    sizes["solomon_hu.lattice.candidates"] += _box_candidates(gens, d)
    sizes["solomon_hu.lattice.points"] += len(points)


def _paired(sizes, args, kwargs, q):
    sizes["solomon_hu.series_terms"] += len(q.num.terms)
    sizes["solomon_hu.common_denoms"] += len(q.denoms)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length())
         for elem in q.num.terms.values() for c in elem.coeffs.values()),
        default=0,
    )
    sizes["solomon_hu.max_coeff_bits"] = max(sizes["solomon_hu.max_coeff_bits"], bits)


# (module, qualified name, trace name, kind, hook, modules that rebind it).
# A count only counts calls; a span also times them.  None for the last
# field rebinds every binding in the package.
TARGETS = (
    ("cli", "run", "cli", "span", None, None),
    ("lvalues", "DirichletChar.enumerate", "lvalues.char_enum", "span", None, None),
    ("lvalues", "dirichlet_L_closed", "lvalues.closed", "span", None, None),
    ("lvalues", "build_real_quad", "lvalues.field", "span", None, None),
    ("exactnum", "CoeffRing.zeta", "exactnum.zeta", "count", None, None),
    ("exactnum", "CoeffElem.__mul__", "exactnum.coeff_mul", "count", None, None),
    ("exactnum", "MPoly.__mul__", "exactnum.mpoly_mul", "count", None, None),
    ("ordered_field", "sign_mpoly", "ordered_field.sign", "count", None, ("cocycle_core",)),
    ("ordered_field", "det_mpoly_columns", "ordered_field.det", "span", None, ("cocycle_core",)),
    ("cocycle_core", "SigmaKernel.__init__", "cocycle_core.kernel_setup", "span", None, None),
    ("cocycle_core", "SigmaKernel.eval", "cocycle_core.kernel_eval", "span", None, None),
    ("cocycle_core", "tau_cocycle", "cocycle_core.tau", "span", None, None),
    ("cone_algebra", "sigma_decompose", "cone_algebra.decompose", "span", _pieces, None),
    ("cone_algebra", "ConeCombo.eval", "cone_algebra.combo_eval", "span", None, None),
    ("solomon_hu", "parallelotope_points", "solomon_hu.lattice", "span", _lattice, None),
    ("solomon_hu", "pair_cone", "solomon_hu.pair", "span", None, None),
    ("solomon_hu", "pair_combo", "solomon_hu.pair_combo", "count", _paired, None),
    ("solomon_hu", "reduce_to_power_series", "solomon_hu.reduce", "span", None, None),
    ("solomon_hu", "MSeries.substitute_linear", "solomon_hu.substitute", "span", None, None),
    ("solomon_hu", "symmetric_laurent_coeff", "solomon_hu.laurent", "span", None, None),
    ("solomon_hu", "laurent_coeff_1var", "solomon_hu.laurent", "span", None, None),
    ("linalg", "solve_columns", "linalg.solve", "count", None, ("solomon_hu",)),
)

# Which end-to-end metric, on which workload, each layer metric should move.
MOVES = {
    "cli.self_ms": "op_p50_ms on lvalue-q and lvalue-quad",
    "lvalues.char_enum.calls": "ops_per_s on lvalue-q",
    "lvalues.char_enum_ms": "ops_per_s on lvalue-q",
    "lvalues.closed_ms": "ops_per_s on lvalue-q",
    "lvalues.field_ms": "op_p50_ms on lvalue-quad (near 0 at the seed)",
    "exactnum.zeta.calls": "ops_per_s on lvalue-q",
    "exactnum.coeff_mul.calls": "ops_per_s on lvalue-q and lvalue-quad",
    "exactnum.mpoly_mul.calls": "ops_per_s on cocycle",
    "ordered_field.sign.calls": "ops_per_s on cocycle",
    "ordered_field.det.calls": "ops_per_s on cocycle",
    "ordered_field.det_ms": "ops_per_s on cocycle",
    "cocycle_core.kernel_setup.calls": "ops_per_s and op_p90_ms on cocycle; none on lvalue-q",
    "cocycle_core.kernel_setup_ms": "ops_per_s and op_p90_ms on cocycle; none on lvalue-q",
    "cocycle_core.kernel_eval.calls": "ops_per_s and op_p90_ms on cocycle; none on lvalue-q",
    "cocycle_core.kernel_eval_ms": "ops_per_s and op_p90_ms on cocycle; none on lvalue-q",
    "cocycle_core.tau_ms": "ops_per_s and op_p90_ms on cocycle; none on lvalue-q",
    "cone_algebra.decompose.calls": "op_p50_ms on cocycle",
    "cone_algebra.decompose_ms": "op_p50_ms on cocycle",
    "cone_algebra.pieces": "op_p50_ms on cocycle",
    "cone_algebra.combo_eval_ms": "op_p50_ms on cocycle",
    "solomon_hu.lattice_ms": "ops_per_s on lvalue-quad; small on lvalue-q; zero on cocycle",
    "solomon_hu.lattice.candidates": "ops_per_s on lvalue-quad; zero on cocycle",
    "solomon_hu.lattice.points": "ops_per_s on lvalue-quad; zero on cocycle",
    "solomon_hu.lattice.yield": "ops_per_s on lvalue-quad; zero on cocycle",
    "solomon_hu.pair_self_ms": "ops_per_s on lvalue-q; op_p50_ms on lvalue-quad",
    "solomon_hu.reduce_ms": "ops_per_s on lvalue-q",
    "solomon_hu.substitute_ms": "op_p50_ms on lvalue-quad",
    "solomon_hu.laurent_ms": "op_p50_ms on lvalue-quad",
    "solomon_hu.series_terms": "size count on lvalue-q and lvalue-quad",
    "solomon_hu.common_denoms": "size count on lvalue-q and lvalue-quad",
    "solomon_hu.max_coeff_bits": "size count on lvalue-q and lvalue-quad",
    "linalg.solve.calls": "ops_per_s on lvalue-quad",
    "trace.ops_per_s": "tracing overhead: traced throughput on the same ops",
    "trace.untraced_ops_per_s": "tracing overhead: untraced throughput on the same ops",
    "trace.slowdown": "tracing overhead: untraced over traced throughput",
}


class Tracer:
    """Counters and span timers for one traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.sizes = Counter()
        self.missing = []
        self._stack = []  # time covered by child spans, one entry per open span
        self._undo = []

    def _hooked(self, hook, args, kwargs, result):
        """Run a size hook; its time counts as covered in the parent span."""
        start = perf_counter_ns()
        hook(self.sizes, args, kwargs, result)
        if self._stack:
            self._stack[-1] += perf_counter_ns() - start

    def _count(self, name, fn, hook):
        calls = self.calls

        @wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if hook:
                self._hooked(hook, args, kwargs, result)
            return result
        return wrapper

    def _span(self, name, fn, hook):
        calls, total, own, stack = self.calls, self.total_ns, self.self_ns, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                covered = stack.pop()
                calls[name] += 1
                total[name] += elapsed
                own[name] += elapsed - covered
                if stack:
                    stack[-1] += elapsed
            if hook:
                self._hooked(hook, args, kwargs, result)
            return result
        return wrapper

    def _rebind(self, owner, attr, old, new):
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self, pkg):
        prefix = pkg.__name__ + "."
        modules = {name[len(prefix):]: mod for name, mod in list(sys.modules.items())
                   if name.startswith(prefix)}
        modules[""] = pkg
        for modname, qualname, name, kind, hook, scope in TARGETS:
            make = self._span if kind == "span" else self._count
            owner_name, _, attr = qualname.rpartition(".")
            mod = modules.get(modname)
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{modname}.{qualname}")
                continue
            if owner_name:
                # every alias in the class body, e.g. __rmul__ = __mul__
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                wrapper = make(name, fn, hook)
                if isinstance(raw, classmethod):
                    wrapper = classmethod(wrapper)
                for key, value in list(vars(owner).items()):
                    if value is raw:
                        self._rebind(owner, key, raw, wrapper)
            else:
                wrapper = make(name, raw, hook)
                for scope_name in (scope or modules):
                    space = modules[scope_name]
                    for key, value in list(vars(space).items()):
                        if value is raw:
                            self._rebind(space, key, raw, wrapper)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, pkg):
        self.install(pkg)
        try:
            yield self
        finally:
            self.restore()

    def layer_metrics(self):
        c, t, s, z = self.calls, self.total_ns, self.self_ns, self.sizes
        candidates = z["solomon_hu.lattice.candidates"]
        points = z["solomon_hu.lattice.points"]
        return {
            "cli.self_ms": s["cli"] / 1e6,
            "lvalues.char_enum.calls": c["lvalues.char_enum"],
            "lvalues.char_enum_ms": t["lvalues.char_enum"] / 1e6,
            "lvalues.closed_ms": t["lvalues.closed"] / 1e6,
            "lvalues.field_ms": t["lvalues.field"] / 1e6,
            "exactnum.zeta.calls": c["exactnum.zeta"],
            "exactnum.coeff_mul.calls": c["exactnum.coeff_mul"],
            "exactnum.mpoly_mul.calls": c["exactnum.mpoly_mul"],
            "ordered_field.sign.calls": c["ordered_field.sign"],
            "ordered_field.det.calls": c["ordered_field.det"],
            "ordered_field.det_ms": t["ordered_field.det"] / 1e6,
            "cocycle_core.kernel_setup.calls": c["cocycle_core.kernel_setup"],
            "cocycle_core.kernel_setup_ms": t["cocycle_core.kernel_setup"] / 1e6,
            "cocycle_core.kernel_eval.calls": c["cocycle_core.kernel_eval"],
            "cocycle_core.kernel_eval_ms": t["cocycle_core.kernel_eval"] / 1e6,
            "cocycle_core.tau_ms": t["cocycle_core.tau"] / 1e6,
            "cone_algebra.decompose.calls": c["cone_algebra.decompose"],
            "cone_algebra.decompose_ms": t["cone_algebra.decompose"] / 1e6,
            "cone_algebra.pieces": z["cone_algebra.pieces"],
            "cone_algebra.combo_eval_ms": t["cone_algebra.combo_eval"] / 1e6,
            "solomon_hu.lattice_ms": t["solomon_hu.lattice"] / 1e6,
            "solomon_hu.lattice.candidates": candidates,
            "solomon_hu.lattice.points": points,
            "solomon_hu.lattice.yield": points / candidates if candidates else 0.0,
            "solomon_hu.pair_self_ms": s["solomon_hu.pair"] / 1e6,
            "solomon_hu.reduce_ms": t["solomon_hu.reduce"] / 1e6,
            "solomon_hu.substitute_ms": t["solomon_hu.substitute"] / 1e6,
            "solomon_hu.laurent_ms": t["solomon_hu.laurent"] / 1e6,
            "solomon_hu.series_terms": z["solomon_hu.series_terms"],
            "solomon_hu.common_denoms": z["solomon_hu.common_denoms"],
            "solomon_hu.max_coeff_bits": z["solomon_hu.max_coeff_bits"],
            "linalg.solve.calls": c["linalg.solve"],
        }
