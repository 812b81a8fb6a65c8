"""Spans and counters for the traced run, recorded from outside the program.

While installed, the tracer rebinds the public functions listed in SPANS
in every `abalg` module namespace that holds them (and the listed methods
on their classes), so calls between layers nest into spans without any
edit to `src/`.  GaussianRational's arithmetic methods are only counted.
Spans are kept in memory and written out at the end of the run.

A span's self time is its duration minus the time its child spans cover,
so the self times of one op's spans add up to the op's traced wall time.
"""

from __future__ import annotations

import functools
import re
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

from abalg import cli, elements, jsonio  # noqa: F401  (cli: its main is spanned)
from abalg.coefficients import GaussianRational
from abalg.linalg import QMatrix
from abalg.modules import SeriesPoleModule
from abalg.series import BSeries

# (span name, owner, attribute): the owner is a module name or a class.
SPANS = [
    ("elements.mul", "abalg.elements", "mul"),
    ("elements.ordering", "abalg.elements", "to_right"),
    ("elements.ordering", "abalg.elements", "to_left"),
    ("elements.shear", "abalg.elements", "shear"),
    ("elements.power", "abalg.elements", "power"),
    ("division.invert", "abalg.division", "invert"),
    ("division.divide_linear", "abalg.division", "divide_linear"),
    ("division.remainder_polynomial", "abalg.division", "remainder_polynomial"),
    ("division.factor", "abalg.division", "factor_homogeneous"),
    ("division.divide", "abalg.division", "divide"),
    ("polynomials.roots", "abalg.polynomials", "gaussian_roots"),
    ("polynomials.roots", "abalg.polynomials", "rational_roots"),
    ("polynomials.interpolate", "abalg.polynomials", "interpolate"),
    ("series.bseries_mul", BSeries, "__mul__"),
    ("series.bseries_inverse", BSeries, "inverse"),
    ("modules.ode2ab", "abalg.modules", "from_differential_system"),
    ("modules.series_act_a", SeriesPoleModule, "act_a"),
    ("modules.act", "abalg.modules", "act"),
    ("modules.fresco_act", "abalg.modules", "fresco_act"),
    ("modules.bernstein", "abalg.modules", "bernstein"),
    ("modules.geometric", "abalg.modules", "is_geometric_spectrum"),
    ("linalg.matmul", QMatrix, "__matmul__"),
    ("linalg.minpoly", "abalg.linalg", "minimal_polynomial"),
    ("linalg.charpoly", "abalg.linalg", "characteristic_polynomial"),
    ("oracle.act", "abalg.oracle", "act"),
    ("expansions.xi_act", "abalg.expansions", "xi_act_a"),
    ("expansions.xi_act", "abalg.expansions", "xi_act_b"),
    ("expr.parse", "abalg.expr", "parse"),
    ("expr.elaborate", "abalg.expr", "elaborate"),
    ("expr.format", "abalg.expr", "format_element"),
    ("expr.format", "abalg.expr", "format_poly"),
    ("cli.main", "abalg.cli", "main"),
] + [("jsonio.encode" if attr.endswith("_to_json") else "jsonio.decode", "abalg.jsonio", attr)
     for attr in sorted(vars(jsonio)) if attr.endswith(("_to_json", "_from_json"))]

SCALAR_METHODS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__", "conjugate", "norm", "inverse")


class Tracer:
    def __init__(self):
        self.spans = []           # (id, name, start, end, parent id, op id)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()   # scalar_ops, mul_out_terms, lambdas_peeled, reorder hits/misses
        self.max_bits = 0
        self.op_id = -1
        self._stack = []
        self._covered = []
        self._next_id = 0
        self._bound = None
        self._cache_before = None

    def _wrap(self, name, fn):
        stack, covered, self_s, calls, spans = (self._stack, self._covered, self.self_s,
                                                self.calls, self.spans)
        on_result = {
            "elements.mul": lambda res: self.counts.update(mul_out_terms=len(res.coeffs)),
            "division.factor": lambda res: self.counts.update(lambdas_peeled=len(res.lambdas)),
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[name] += dur - covered.pop()
                if covered:
                    covered[-1] += dur
                calls[name] += 1
                spans.append((sid, name, start, end, parent, self.op_id))
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counted(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args):
            counts["scalar_ops"] += 1
            return fn(*args)

        return counted

    def _bindings(self):
        """(owner, attribute, original, wrapper) for every rebinding, built once."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "abalg" or name.startswith("abalg."))]
        out = []
        for name, owner, attr in SPANS:
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                out.append((owner, attr, original, self._wrap(name, original)))
                continue
            original = getattr(sys.modules[owner], attr)
            wrapper = self._wrap(name, original)
            out += [(mod, key, original, wrapper) for mod in mods
                    for key, value in vars(mod).items() if value is original]
        for attr in SCALAR_METHODS:
            original = GaussianRational.__dict__[attr]
            out.append((GaussianRational, attr, original, self._counted(original)))
        return out

    def install(self):
        if self._bound is None:
            self._bound = self._bindings()
        for owner, attr, _, wrapper in self._bound:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._bound:
            setattr(owner, attr, original)

    # The run loop calls these around each traced op, outside its timed region.

    def op_started(self, op):
        self.op_id = op.id
        self._cache_before = elements.reorder_coeff.cache_info()

    def op_finished(self, op, result):
        info, before = elements.reorder_coeff.cache_info(), self._cache_before
        self.counts.update(reorder_hits=info.hits - before.hits,
                           reorder_misses=info.misses - before.misses)
        if not isinstance(result, BaseException):
            self.max_bits = max(self.max_bits, max_bits(result))
        self.op_id = -1


_PARTS = ("coeffs", "parts", "rows", "entries", "x_coeffs", "lambdas", "scale", "core",
          "quotient", "remainder", "eigenvalues")


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length among the scalars of a result.

    CLI results are text: there, the largest integer printed.
    """
    if isinstance(obj, GaussianRational):
        return max(max_bits(obj.re), max_bits(obj.im))
    if isinstance(obj, Fraction):
        return max(obj.numerator.bit_length(), obj.denominator.bit_length())
    if isinstance(obj, str):
        return max((int(d).bit_length() for d in re.findall(r"\d+", obj)), default=0)
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return max((max_bits(v) for v in obj), default=0)
    return max((max_bits(getattr(obj, a)) for a in _PARTS if hasattr(obj, a)), default=0)
