"""Per-layer tracing from outside the program.

``Tracer`` wraps public functions and methods of the ``fwalg`` modules while
it is active (``with tracer: ...``) and restores them on exit. A wrapped
function records a span: its call count and its self time, the span's
duration minus the part its wrapped children cover. Some wrappers also count
the work they see (pairs formed, terms kept by truncation, ...).

A function imported by name into other modules (``fwtransform`` binds
``commutator``, ``ad_exp_conjugate`` and ``exp_series`` from ``opalg``;
``reference`` binds ``commutator as cm``), or held in a module-level table
(``shell``'s ``VERIFY_SUITES``), has one binding per place. Entering the
tracer rebinds every one of them, and ``unpatched_bindings`` lists any it
missed, so a binding the program adds later cannot under-count without a
sign.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, metric prefix). Several attributes may
# share one prefix; their counts and self times add up.
SPANS = (
    ("opalg", "OperatorExpr.__mul__", "opalg.mul"),
    ("opalg", "OperatorExpr.__add__", "opalg.add"),
    ("opalg", "OperatorExpr.truncate", "opalg.truncate"),
    ("opalg", "_normalize_raw", "opalg.normalize"),
    ("opalg", "commutator", "opalg.commutator"),
    ("opalg", "ad_exp_conjugate", "opalg.ad_exp_conjugate"),
    ("opalg", "exp_series", "opalg.exp_series"),
    ("fwtransform", "fw_pipeline", "fwtransform.fw_pipeline"),
    ("fwtransform", "bch_combine", "fwtransform.bch_combine"),
    ("fwtransform", "correction_exponent", "fwtransform.correction_exponent"),
    ("fwtransform", "apply_correction", "fwtransform.apply_correction"),
    ("fwtransform", "eriksen_condition_check", "fwtransform.eriksen_condition_check"),
    ("fwtransform", "sign_operator_series", "fwtransform.sign_operator_series"),
    ("fwtransform", "eriksen_unitary_series", "fwtransform.eriksen_unitary_series"),
    ("fwtransform", "eriksen_series", "fwtransform.eriksen_series"),
    ("reference", "build", "reference.build"),
    ("reference", "diff", "reference.diff"),
    ("diracred", "instantiate", "diracred.instantiate"),
    ("diracred", "render_conventional", "diracred.render_conventional"),
    ("numlab", "lattice_model", "numlab.lattice_model"),
    ("numlab", "eriksen_unitary", "numlab.eriksen_unitary"),
    ("numlab", "block_diag_residual", "numlab.residuals"),
    ("numlab", "eriksen_condition_residual", "numlab.residuals"),
    ("numlab", "unitarity_defect", "numlab.residuals"),
    ("numlab", "convergence_probe", "numlab.convergence_probe"),
    ("shell", "parse_spec", "shell.parse_spec"),
    ("shell", "run", "shell.run"),
    ("shell", "serialize_record", "shell.serialize_record"),
    ("shell", "parse_record", "shell.parse_record"),
    ("shell", "verify_vc6", "shell.verify.vc6"),
    ("shell", "verify_m4", "shell.verify.m4"),
    ("shell", "verify_eriksen8", "shell.verify.eriksen8"),
    ("shell", "verify_dirac", "shell.verify.dirac"),
    ("shell", "verify_numeric", "shell.verify.numeric"),
)

# Coefficient arithmetic is called millions of times; it is counted, not timed.
COUNTED = (
    ("gaussrat", "GaussRat.__mul__", "gaussrat.mul"),
    ("gaussrat", "GaussRat.__rmul__", "gaussrat.mul"),
    ("gaussrat", "GaussRat.__add__", "gaussrat.add"),
    ("gaussrat", "GaussRat.__radd__", "gaussrat.add"),
)

# numlab calls the dense Hermitian eigensolvers through ``np.linalg``.
EIGH = (("eigh", True), ("eigvalsh", False))


def _eigh_flops(n: int, vectors: bool, complex_: bool) -> float:
    """Computed real flop count of a dense Hermitian eigensolve of order n.

    Golub and Van Loan's estimates: 9 n^3 with eigenvectors, 4/3 n^3 for
    eigenvalues only; a complex flop is taken as four real ones.
    """
    flops = (9.0 if vectors else 4.0 / 3.0) * n ** 3
    return 4.0 * flops if complex_ else flops


class Tracer:
    def __init__(self):
        self._modules = {name.rsplit(".", 1)[-1]: mod for name, mod in sys.modules.items()
                         if name == "fwalg" or name.startswith("fwalg.")}
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._original_ids: set[int] = set()
        self.counts: dict[str, float] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)

    def reset(self) -> None:
        self.counts.clear()
        self.self_s.clear()

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn, measure=None):
        counts, self_s, stack = self.counts, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[name] += dur - frame[0]
                counts[name + ".calls"] += 1
            if measure is not None:
                measure(counts, args, out)
            return out

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- installation --------------------------------------------------------------

    def _set(self, owner, key: str, value) -> None:
        """Replace an entry of a namespace dict, or a class attribute; undone on exit."""
        if isinstance(owner, dict):
            old = owner[key]
            owner[key] = value
            self._undo.append(lambda: owner.__setitem__(key, old))
        else:
            old = owner.__dict__[key]
            setattr(owner, key, value)
            self._undo.append(lambda: setattr(owner, key, old))

    def _tables(self):
        """Each fwalg module's globals and the dicts they hold, with a label."""
        for mod_name, mod in self._modules.items():
            yield mod_name, vars(mod)
            for attr, value in vars(mod).items():
                if isinstance(value, dict) and attr != "__builtins__":
                    yield f"{mod_name}.{attr}", value

    def __enter__(self) -> "Tracer":
        for table, make in ((SPANS, self._span_for), (COUNTED, self._counter)):
            for module, attr, name in table:
                owner = self._modules[module]
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                    orig = owner.__dict__[attr]
                    self._original_ids.add(id(orig))
                    self._set(owner, attr, make(name, orig))
                    continue
                orig = getattr(owner, attr)
                self._original_ids.add(id(orig))
                wrapper = make(name, orig)
                for _, ns in list(self._tables()):
                    for key, value in list(ns.items()):
                        if value is orig:
                            self._set(ns, key, wrapper)
        for attr, vectors in EIGH:
            self._set(vars(np.linalg), attr, self._span(
                "numlab.eigh", getattr(np.linalg, attr), self._eigh_measure(vectors)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def unpatched_bindings(self) -> list[str]:
        """Module-level bindings (including table entries) still holding an original."""
        return [f"{label}[{key!r}]" for label, ns in self._tables()
                for key, value in ns.items()
                if id(value) in self._original_ids]

    # -- per-span work counters ----------------------------------------------------------

    def _span_for(self, name: str, fn):
        return self._span(name, fn, _MEASURES.get(name))

    @staticmethod
    def _eigh_measure(vectors: bool):
        def measure(counts, args, out):
            a = args[0]
            n = a.shape[-1]
            counts["numlab.eigh.max_dim"] = max(counts["numlab.eigh.max_dim"], n)
            counts["numlab.eigh.flops_computed"] += _eigh_flops(
                n, vectors, np.iscomplexobj(a))
        return measure

    # -- results -----------------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Counts and self times of the spans recorded since the last reset."""
        out = dict(self.counts)
        out.update({f"{name}.self_s": t for name, t in self.self_s.items()})
        tin = out.get("opalg.truncate.terms_in", 0)
        out["opalg.truncate.keep_ratio"] = out.get("opalg.truncate.terms_kept", 0) / tin if tin else 0.0
        return out


def _mul(counts, args, out):
    a, b = args
    if hasattr(b, "terms"):
        counts["opalg.mul.pairs"] += len(a.terms) * len(b.terms)
    if hasattr(out, "terms"):
        counts["opalg.mul.terms_out"] += len(out.terms)


def _add(counts, args, out):
    a, b = args
    if hasattr(b, "terms"):
        counts["opalg.add.terms_in"] += len(a.terms) + len(b.terms)


def _truncate(counts, args, out):
    counts["opalg.truncate.terms_in"] += len(args[0].terms)
    counts["opalg.truncate.terms_kept"] += len(out.terms)


def _normalize(counts, args, out):
    counts["opalg.normalize.raw_terms"] += len(args[0])


def _steps(counts, args, out):
    counts["fwtransform.fw_pipeline.steps"] += len(out.steps)


def _instantiate(counts, args, out):
    counts["diracred.instantiate.terms_out"] += len(out.terms)


_MEASURES = {
    "opalg.mul": _mul,
    "opalg.add": _add,
    "opalg.truncate": _truncate,
    "opalg.normalize": _normalize,
    "fwtransform.fw_pipeline": _steps,
    "diracred.instantiate": _instantiate,
}
