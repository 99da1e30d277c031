"""Per-layer counters and timers, installed on qseries from the outside.

Nothing in the package is edited.  ``Tracer.install`` replaces public names
with wrappers: methods on ``CycRat`` and ``LaurentSeries``, module-level
functions (rebound in every qseries module that imported them by name, since
``catalog``, ``vwp`` and ``combinat`` hold their own references to the
Pochhammer builders), ``ACoeffTable.get_or_compute``, and each registry
entry's ``lhs``/``rhs`` through ``dataclasses.replace``.

Time is kept per group.  A group is timed only on its outermost call, so
recursion and nesting inside one group are not counted twice, and a group may
exclude the time of nested calls into other groups: ``vwp.closed_form_s``
leaves out the sums that ``corollary_k2``/``corollary_k3`` run, and
``cli.self_s`` leaves out the catalog and combinat calls.  Times of different
layers overlap otherwise: ``laurent.poch_s`` contains the binomial work the
Pochhammer builders do, and ``catalog.lhs_s`` contains everything below it.
"""

from __future__ import annotations

import dataclasses
import sys
import time

_clock = time.perf_counter


class _Group:
    __slots__ = ("depth", "seconds")

    def __init__(self):
        self.depth = 0
        self.seconds = 0.0


def _counting(fn, box):
    def wrapper(*args, **kwargs):
        box[0] += 1
        return fn(*args, **kwargs)
    return wrapper


def _bits(series) -> int:
    top = 0
    for c in series.coeffs:
        for r in (c.a, c.b):
            top = max(top, int(r.numerator).bit_length(), int(r.denominator).bit_length())
    return top


def _rebind(original, replacement):
    """Point every qseries module attribute bound to ``original`` at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name != "qseries" and not name.startswith("qseries."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    """Counters (one-element lists, cheap to bump) and timed groups."""

    def __init__(self):
        self._boxes: dict[str, list] = {}
        self._groups: dict[str, _Group] = {}
        self._seen: dict[str, set] = {}
        self.max_bits = 0

    def box(self, name: str) -> list:
        return self._boxes.setdefault(name, [0])

    def group(self, name: str) -> _Group:
        return self._groups.setdefault(name, _Group())

    def repeats(self, kind: str, box: list):
        """A ``before`` hook that counts calls whose arguments ``kind`` saw earlier."""
        seen = self._seen.setdefault(kind, set())

        def hook(args, kwargs):
            key = (args, tuple(sorted(kwargs.items())))
            if key in seen:
                box[0] += 1
            seen.add(key)

        return hook

    def scan(self, series) -> None:
        """Fold a series' largest numerator/denominator bit length into max_bits."""
        self.max_bits = max(self.max_bits, _bits(series))

    def timed(self, group_name, fn, exclude=(), box=None, before=None, after=None):
        """Wrap ``fn``: count it in ``box``, run hooks, time it into a group."""
        g = self.group(group_name)
        excluded = [self.group(n) for n in exclude]

        def wrapper(*args, **kwargs):
            if box is not None:
                box[0] += 1
            if before is not None:
                before(args, kwargs)
            if g.depth:
                g.depth += 1
                try:
                    result = fn(*args, **kwargs)
                finally:
                    g.depth -= 1
            else:
                g.depth = 1
                other = sum(e.seconds for e in excluded)
                start = _clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spent = _clock() - start
                    g.seconds += spent - (sum(e.seconds for e in excluded) - other)
                    g.depth = 0
            if after is not None:
                after(result)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from qseries import catalog, cli, coeffring, combinat, laurent, vwp

        self._install_coeffring(coeffring.CycRat)
        self._install_laurent(laurent)
        self._install_vwp(vwp)
        self._install_catalog(catalog, laurent.LaurentSeries)
        self._install_combinat(combinat)
        cli.main = self.timed("cli", cli.main,
                              exclude=("catalog.check", "combinat.series"))

    def _install_coeffring(self, cyc) -> None:
        mul = self.box("coeffring.mul_calls")
        add = self.box("coeffring.add_calls")
        inv = self.box("coeffring.inverse_calls")
        for name in ("__mul__", "__rmul__"):
            setattr(cyc, name, _counting(getattr(cyc, name), mul))
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
            setattr(cyc, name, _counting(getattr(cyc, name), add))
        cyc.inverse = _counting(cyc.inverse, inv)

    def _install_laurent(self, laurent) -> None:
        ls = laurent.LaurentSeries
        terms = self.box("laurent.terms_touched")

        def binomial_terms(args, kwargs):
            terms[0] += len(args[0].coeffs)

        def product_terms(args, kwargs):
            terms[0] += len(args[0].coeffs) + len(getattr(args[1], "coeffs", ()))

        binomials = self.box("laurent.binomial_calls")
        for name in ("mul_one_minus", "div_one_minus"):
            setattr(ls, name, self.timed("laurent.binomial", getattr(ls, name),
                                         box=binomials, before=binomial_terms))
        ls.__mul__ = self.timed("laurent.mul", ls.__mul__,
                                box=self.box("laurent.mul_calls"), before=product_terms)
        ls.inverse = self.timed("laurent.inverse", ls.inverse,
                                box=self.box("laurent.inverse_calls"))
        ls.__add__ = _counting(ls.__add__, self.box("laurent.add_calls"))

        pochs = self.box("laurent.poch_calls")
        repeats = self.box("laurent.poch_repeats")
        for name in ("poch_finite", "poch_finite_inv", "poch_infinite", "poch_infinite_inv"):
            original = getattr(laurent, name)
            _rebind(original, self.timed("laurent.poch", original, box=pochs,
                                         before=self.repeats(name, repeats)))

    def _install_vwp(self, vwp) -> None:
        for name in ("lhs_multisum", "vwp_single_sum", "vwp_double_sum",
                     "diagonal_sum", "f_bilateral", "l_finite_n"):
            original = getattr(vwp, name)
            _rebind(original, self.timed("vwp.sum", original))
        corollaries = self.box("vwp.corollary_calls")
        for name in ("rhs_products", "f_consistency_rhs", "corollary_k2",
                     "corollary_k3", "c_helper"):
            original = getattr(vwp, name)
            box = corollaries if name.startswith("corollary") else None
            _rebind(original, self.timed("vwp.closed_form", original,
                                         exclude=("vwp.sum",), box=box))
        original = vwp.a_coeff
        _rebind(original, _counting(original, self.box("vwp.a_coeff_calls")))

        lookups = self.box("vwp.a_table_lookups")
        hits = self.box("vwp.a_table_hits")
        get_or_compute = vwp.ACoeffTable.get_or_compute

        def counted_get_or_compute(table, key, compute):
            lookups[0] += 1
            if table.entries.get(key) is not None:
                hits[0] += 1
            return get_or_compute(table, key, compute)

        vwp.ACoeffTable.get_or_compute = counted_get_or_compute

    def _install_catalog(self, catalog, ls) -> None:
        for key, entry in list(catalog._REGISTRY.items()):
            catalog._REGISTRY[key] = dataclasses.replace(
                entry,
                lhs=self.timed("catalog.lhs", entry.lhs),
                rhs=self.timed("catalog.rhs", entry.rhs))
        check = self.group("catalog.check")
        compare = self.group("catalog.compare")
        sides = [self.group("catalog.lhs"), self.group("catalog.rhs"), compare]
        agrees_below = ls.agrees_below

        def traced_agrees_below(f, g, order):
            start = _clock()
            result = agrees_below(f, g, order)
            if check.depth:
                compare.seconds += _clock() - start
            self.scan(f)
            self.scan(g)
            return result

        ls.agrees_below = traced_agrees_below
        catalog.verify = self.timed("catalog.check", catalog.verify)
        derivation_check = catalog.derivation_check

        def traced_derivation_check(*args, **kwargs):
            # derivation_check builds its closed-form side inline rather than
            # through entry.rhs: charge what is neither LHS nor comparison to RHS.
            check.depth += 1
            known = sum(s.seconds for s in sides)
            start = _clock()
            try:
                return derivation_check(*args, **kwargs)
            finally:
                spent = _clock() - start
                check.depth -= 1
                check.seconds += spent
                sides[1].seconds += spent - (sum(s.seconds for s in sides) - known)

        catalog.derivation_check = traced_derivation_check

    def _install_combinat(self, combinat) -> None:
        pairs = self.box("combinat.pairs_enumerated")
        repeats = self.box("combinat.enum_repeats")
        calls = self.box("combinat.enumerate_calls")

        def count(result):
            pairs[0] += len(result)

        original = combinat.enumerate_pairs_A
        _rebind(original, self.timed("combinat.enumerate", original, box=calls,
                                     before=self.repeats("enumerate", repeats), after=count))
        for name in ("count_series", "gf_check_Aprime", "gf_check_Adblprime"):
            original = getattr(combinat, name)
            after = self.scan if name == "count_series" else None
            _rebind(original, self.timed("combinat.series", original,
                                         exclude=("combinat.enumerate",), after=after))

    # -- read-out -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values, keyed by the names BENCHMARK.json lists."""
        n = {name: box[0] for name, box in self._boxes.items()}
        s = {name: g.seconds for name, g in self._groups.items()}

        def ratio(part, whole):
            return part / whole if whole else 0.0

        return {
            "coeffring.mul_calls": n["coeffring.mul_calls"],
            "coeffring.add_calls": n["coeffring.add_calls"],
            "coeffring.inverse_calls": n["coeffring.inverse_calls"],
            "coeffring.max_bits": self.max_bits,
            "laurent.binomial_calls": n["laurent.binomial_calls"],
            "laurent.binomial_s": s["laurent.binomial"],
            "laurent.mul_calls": n["laurent.mul_calls"],
            "laurent.mul_s": s["laurent.mul"],
            "laurent.inverse_calls": n["laurent.inverse_calls"],
            "laurent.inverse_s": s["laurent.inverse"],
            "laurent.add_calls": n["laurent.add_calls"],
            "laurent.terms_touched": n["laurent.terms_touched"],
            "laurent.poch_calls": n["laurent.poch_calls"],
            "laurent.poch_s": s["laurent.poch"],
            "laurent.poch_repeat_ratio": ratio(n["laurent.poch_repeats"],
                                               n["laurent.poch_calls"]),
            "vwp.sum_s": s["vwp.sum"],
            "vwp.closed_form_s": s["vwp.closed_form"],
            "vwp.a_coeff_calls": n["vwp.a_coeff_calls"],
            "vwp.a_table_hit_ratio": ratio(n["vwp.a_table_hits"], n["vwp.a_table_lookups"]),
            "vwp.corollary_calls": n["vwp.corollary_calls"],
            "catalog.lhs_s": s["catalog.lhs"],
            "catalog.rhs_s": s["catalog.rhs"],
            "catalog.compare_s": s["catalog.compare"],
            "combinat.enumerate_s": s["combinat.enumerate"],
            "combinat.pairs_enumerated": n["combinat.pairs_enumerated"],
            "combinat.enum_repeat_ratio": ratio(n["combinat.enum_repeats"],
                                                n["combinat.enumerate_calls"]),
            "combinat.series_s": s["combinat.series"],
            "cli.self_s": s["cli"],
        }
