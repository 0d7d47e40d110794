"""Spans around calls into the program's layers, recorded from outside it.

install() replaces each traced function wherever its name is bound: in the
defining module and in every nablachains module that imported it.  Methods
are replaced on their class.  A span's self time is its duration minus the
time of the spans it encloses.  Nothing is wrapped until install() runs, so
untraced runs call the program unchanged.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from nablachains import cli, counting, forms, graph, polynomial, recurrence, words


def _charpoly_bits(counters, args, result) -> None:
    bits = max(abs(c).bit_length() for c in result.coefficients)
    counters["recurrence.charpoly_max_coeff_bits"] = max(
        counters["recurrence.charpoly_max_coeff_bits"], bits
    )


def _result_bits(counters, args, result) -> None:
    counters["counting.result_bits"] += result.bit_length()


def _fitted_order(counters, args, result) -> None:
    counters["recurrence.fitted_order_sum"] += result.order


def _output_terms(counters, args, result) -> None:
    counters["polynomial.output_terms"] += len(args[0].terms)


# (owner, attribute, span name, optional size counter fed with the result).
FUNCTIONS = [
    (graph, "build_adjacency", "graph.build_adjacency", None),
    (counting, "count_total", "counting.count_total", _result_bits),
    (counting, "count_sequence", "counting.count_sequence", None),
    (recurrence, "characteristic_polynomial", "recurrence.characteristic_polynomial", _charpoly_bits),
    (recurrence, "minimal_recurrence", "recurrence.minimal_recurrence", _fitted_order),
    (forms, "is_zero_operator", "forms.is_zero_operator", None),
    (forms, "apply_word", "forms.apply_word", None),
    (forms, "nabla", "forms.nabla", None),
    (forms, "exterior_derivative", "forms.exterior_derivative", None),
    (forms, "iso_to_components", "forms.iso", None),
    (forms, "iso_from_components", "forms.iso", None),
    (forms, "complement_sign", "forms.complement_sign", None),
    (polynomial, "parse_polynomial", "polynomial.parse_polynomial", None),
    (cli, "main", "cli.main", None),
]
METHODS = [
    (forms.DifferentialForm, "__init__", "forms.DifferentialForm", None),
    (forms.ComponentVector, "__init__", "forms.ComponentVector", None),
    (polynomial.Polynomial, "__init__", "polynomial.Polynomial", None),
    (polynomial.Polynomial, "diff", "polynomial.diff", None),
    (polynomial.Polynomial, "__add__", "polynomial.add", None),
    (polynomial.Polynomial, "scale", "polynomial.scale", None),
    (polynomial.Polynomial, "__str__", "polynomial.str", _output_terms),
    (words.CompositionWord, "__init__", "words.CompositionWord", None),
]


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # time covered by child spans, per open span

    def wrap(self, name: str, fn, size=None):
        stack, calls, self_s, counters = self._stack, self.calls, self.self_s, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - children
            if size is not None:
                size(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "nablachains"]
        for owner, attr, name, size in FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for cls, attr, name, size in METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), size))
