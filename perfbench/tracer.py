"""In-memory span recorder for the traced benchmark run.

The recorder wraps apnforge's public functions from outside, in every
module that binds them, so a call is recorded whichever caller makes it.
Each span is a row (name, parent_index, start_ns, end_ns, attrs); parents
come from a context variable, so nested calls link to their caller. Spans
stay in memory and are written once, by the caller, when the run ends.

A call that re-enters an operation already open under the same span name
(exact_divide calling TriPoly.divmod, for example) is folded into the open
span, so each division counts once.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import time

NAME, PARENT, START, END, ATTRS = range(5)

LAYERS = ("fields", "unipoly", "tripoly", "phi", "apn", "criteria")


def _spectrum_attrs(args, kwargs, result):
    return {"pairs": result.field_size * (result.field_size - 1)}


def _phi_attrs(args, kwargs, result):
    return {"terms": len(result.poly.terms)}


def _divisor_attrs(args, kwargs, result):
    return {"mode": result.mode, "big": result.field.degree, "hits": len(result.divisors)}


def _classify_attrs(args, kwargs, result):
    return {"member": result.kind != "NOT_IN_FAMILY"}


def targets():
    """(owner, attribute, span name, attrs hook) for every wrapped call.
    Owners are modules (the function is re-bound wherever it was imported)
    or classes (the method is replaced on the class)."""
    from apnforge import apn, criteria, fields, phi, tripoly, unipoly

    return [
        (fields.FieldCtx, "_build_tables", "fields.table_build", None),
        (fields, "trace_zero_elements", "fields.trace_zero_elements", None),
        (fields, "find_embedding", "fields.find_embedding", None),
        (fields.Embedding, "pull_back", "fields.pull_back", None),
        (unipoly, "eval_table", "unipoly.eval_table", None),
        (unipoly, "compose", "unipoly.compose", None),
        (unipoly, "linearized_quartic", "unipoly.linearized_quartic", None),
        (unipoly, "split_q_affine", "unipoly.split_q_affine", None),
        (unipoly, "is_bijective_on", "unipoly.is_bijective_on", None),
        (tripoly, "exact_divide", "tripoly.divide", None),
        (tripoly, "divides_exactly", "tripoly.divide", None),
        (tripoly.TriPoly, "divmod", "tripoly.divide", None),
        (tripoly.TriPoly, "__mul__", "tripoly.mul", None),
        (tripoly.TriPoly, "__pow__", "tripoly.pow", None),
        (tripoly.TriPoly, "__add__", "tripoly.add", None),
        (tripoly, "substitute_linear", "tripoly.substitute_linear", None),
        (tripoly, "homog_decompose", "tripoly.homog_decompose", None),
        (phi, "build_phi", "phi.build_phi", _phi_attrs),
        (apn, "spectrum", "apn.spectrum", _spectrum_attrs),
        (apn, "is_apn", "apn.is_apn", None),
        (apn, "is_apn_over_extension", "apn.is_apn_over_extension", None),
        (apn, "surface_point_check", "apn.surface_point_check", None),
        (apn, "classify_exponent", "apn.classify_exponent", None),
        (criteria, "applicable_theorem", "criteria.applicable_theorem", None),
        (criteria, "cubic_divisor_search", "criteria.cubic_divisor_search", _divisor_attrs),
        (criteria, "deg12_classify", "criteria.deg12_classify", _classify_attrs),
        (criteria, "family_phi_closed", "criteria.family_phi_closed", None),
        (criteria, "family_phi_product", "criteria.family_phi_product", None),
        (criteria, "family_generate", "criteria.family_generate", None),
    ]


class Recorder:
    def __init__(self):
        # rows are tuples (which the garbage collector stops tracking), put
        # in place when the span closes; the context variable carries the
        # open span's (index, name)
        self.spans: list[tuple | None] = []
        self._current = contextvars.ContextVar("perfbench_span", default=(-1, None))
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, attrs_hook=None):
        spans = self.spans
        current = self._current
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent, parent_name = current.get()
            if parent_name == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            token = current.set((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, parent, start, clock(), None)
                raise
            finally:
                current.reset(token)
            end = clock()
            attrs = attrs_hook(args, kwargs, result) if attrs_hook is not None else None
            spans[index] = (name, parent, start, end, attrs)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "apnforge" or n.startswith("apnforge.")]
        for owner, attr, name, hook in targets():
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                self._set(owner, attr, self.wrap(orig, name, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(orig, name, hook)
            for mod in modules:
                if vars(mod).get(attr) is orig:
                    self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


def self_times(spans) -> list[int]:
    """Span duration minus the time its direct children cover (children of
    one span run one after another on the caller's thread)."""
    own = [row[END] - row[START] for row in spans]
    for row in spans:
        if row[PARENT] >= 0:
            own[row[PARENT]] -= row[END] - row[START]
    return own
