"""In-memory span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public name of the ptmoments layers (each
module's ``__all__``, plus ``cli.main``) at every place the name is bound: the
defining module, every other ptmoments module that imported it by name and
the package namespace.  The benchmark itself calls through module
attributes, so it sees the wrappers too.  Functions are replaced by
a wrapper; classes keep their identity (so ``isinstance`` still works) and get
their ``__init__`` wrapped instead.  ``uninstall`` puts every original back.

Each call records a span ``[name, layer, case, parent, start, end]`` in a
list; nothing is written anywhere.  Hermitian eigensolver calls made while the
innermost open span belongs to ``fock`` are recorded as ``(n, batch,
complex)`` to count the oracle's eigen work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "ptmoments"

# Layers are module names.  noon_tables is traced too so that its time is not
# charged to cli, which calls it for table1/table2.
LAYERS = ("fock", "criteria", "gaussian", "states", "circuits", "estimation",
          "noon_tables", "reporting", "cli")

_EIGEN = (("numpy.linalg", "eigvalsh"), ("numpy.linalg", "eigh"),
          ("scipy.linalg", "eigvalsh"), ("scipy.linalg", "eigh"))

NAME, LAYER, CASE, PARENT, START, END = range(6)


class Tracer:
    """Records spans for wrapped calls while ``active`` is true.

    ``capture`` names spans (``"circuits.outcome_distribution"``, ...) whose
    bound arguments and result are kept, so work counters can be derived
    after the pass from what the program was actually asked to do.
    """

    def __init__(self, capture=()):
        self.spans: list = []
        self.stack: list = []
        self.case = ""
        self.active = False
        self.capture = frozenset(capture)
        self.captured: dict = {name: [] for name in self.capture}
        self.eigen: list = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.eigen.clear()
        for calls in self.captured.values():
            calls.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            names = list(getattr(mod, "__all__", ()))
            if layer == "cli":
                names.append("main")
            for attr in names:
                obj = getattr(mod, attr)
                span = f"{layer}.{attr}"
                if isinstance(obj, type):
                    init = vars(obj).get("__init__")
                    if init is not None:
                        self._set(obj, "__init__", self._wrap(init, span, layer))
                elif callable(obj) and id(obj) not in replacements:
                    replacements[id(obj)] = (obj, self._wrap(obj, span, layer))
        sites = [m for name, m in list(sys.modules.items())
                 if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for modname, attr in _EIGEN:
            mod = sys.modules.get(modname)
            if mod is not None:
                obj = getattr(mod, attr)
                replacements.setdefault(id(obj), (obj, self._wrap_eigen(obj)))
                sites.append(mod)
        for mod in sites:
            for attr, val in list(vars(mod).items()):
                hit = replacements.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self.active = False

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, span: str, layer: str):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = span in self.capture
        signature = inspect.signature(fn) if keep else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [span, layer, self.case, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if keep:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.captured[span].append((bound.arguments, result))
            return result

        return wrapper

    def _wrap_eigen(self, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if self.active and stack and spans[stack[-1]][LAYER] == "fock":
                arr = np.asarray(a)
                n = arr.shape[-1]
                self.eigen.append((n, arr.size // max(n * n, 1), np.iscomplexobj(arr)))
            return fn(a, *args, **kwargs)

        return wrapper


# -- derived figures --------------------------------------------------------

def self_times(spans) -> dict:
    """Seconds per layer during which that layer's span was the innermost
    open one: each span's duration minus the durations of its direct
    children, summed by layer."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    out = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        out[s[LAYER]] += t
    return out


def layer_calls(spans) -> dict:
    """Calls into each layer: spans whose parent is absent or in another
    layer (a layer calling its own public names is not counted again)."""
    out = dict.fromkeys(LAYERS, 0)
    for s in spans:
        p = s[PARENT]
        if p < 0 or spans[p][LAYER] != s[LAYER]:
            out[s[LAYER]] += 1
    return out


def named_seconds(spans, name: str, case: str | None = None) -> float:
    """Total duration of spans called ``name`` (optionally within one case)
    that are not nested inside another span of the same name."""
    total = 0.0
    for s in spans:
        if s[NAME] != name or (case is not None and s[CASE] != case):
            continue
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:
            total += s[END] - s[START]
    return total


def eigen_flops(eigen) -> float:
    """Model count of the Householder tridiagonal reduction that dominates a
    dense Hermitian eigensolve: 4/3 n^3 real flops, 16/3 n^3 for complex
    input, per matrix in the batch."""
    return float(sum(b * (16.0 if c else 4.0) / 3.0 * n ** 3 for n, b, c in eigen))
