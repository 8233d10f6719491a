"""Per-layer call counts and self times, recorded by wrappers on module attributes.

A layer is one module of the signspectra package.  Installing the tracer
replaces every public function bound in a package module's namespace, plus
the root kernel binding ``roots._aberth_iterate`` and the CLI entry point
``cli.main``, with a wrapper that records a span.  The modules call each
other through these module globals, so the wrappers see cross-module calls
(``realize.find_roots``, ``verify.char_poly``) and calls between public
functions of one module (``realize_poly -> realize_sextic``) alike.  Private
helpers and methods are not wrapped: their time is self time of the wrapped
function that called them (``Sign.of`` inside ``conforms`` counts as
``matrices``).  A span's self time is its duration minus that of its child
spans.  No file of the package is changed.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "signspectra"

# Module short names, in the order reports list them.  The compiled kernel
# ``_aberth_fast`` counts as ``_aberth``, the layer it replaces.
LAYERS = ("_aberth", "roots", "poly", "matrices", "patterns", "realize", "verify", "cli")

# Private or non-function bindings that are layer boundaries all the same,
# keyed by (module short name, attribute).
EXTRA_BINDINGS = {("roots", "_aberth_iterate"): "_aberth", ("cli", "main"): "cli"}

_ORIGINAL = "__layertrace_original__"


def package_modules() -> list:
    """The package and every one of its submodules imported so far."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    if not module.startswith(PACKAGE + "."):
        return None
    short = module[len(PACKAGE) + 1 :]
    if short == "_aberth_fast":
        short = "_aberth"
    return short if short in LAYERS else None


def targets(modules) -> list:
    """(module, attribute, object, layer) for every binding the tracer wraps."""
    out = []
    for mod in modules:
        short = mod.__name__[len(PACKAGE) + 1 :]
        for name, obj in sorted(vars(mod).items()):
            layer = EXTRA_BINDINGS.get((short, name))
            if layer is None and not name.startswith("_") and isinstance(obj, types.FunctionType):
                layer = layer_of(getattr(obj, _ORIGINAL, obj))
            if layer is not None:
                out.append((mod, name, obj, layer))
    return out


def assert_unwrapped(modules) -> None:
    """Raise unless every binding the tracer would wrap is the original object."""
    bad = []
    for mod, name, obj, _ in targets(modules):
        if hasattr(obj, _ORIGINAL):
            bad.append(f"{mod.__name__}.{name}")
        elif isinstance(obj, types.FunctionType):
            home = sys.modules.get(obj.__module__)
            if home is None or vars(home).get(obj.__name__) is not obj:
                bad.append(f"{mod.__name__}.{name}")
    if bad:
        raise RuntimeError("module attributes are not the original functions: " + ", ".join(bad))


def _observe_kernel(tracer, result, exc):
    if exc is None:
        sweeps, converged, _ = result
        tracer.counters["aberth.sweeps"] += sweeps
        if not converged:
            tracer.counters["aberth.unconverged"] += 1


def _observe_find_roots(tracer, result, exc):
    if exc is not None and type(exc).__name__ == "RootFindingError":
        tracer.counters["roots.cert_failures"] += 1


def _observe_realize_poly(tracer, result, exc):
    if exc is None:
        worst = tracer.maxima
        worst["realize.worst_residual"] = max(worst["realize.worst_residual"], result.residual)
        worst["realize.perturbation"] = max(worst["realize.perturbation"], result.perturbation)


def _observe_cli_main(tracer, result, exc):
    # standalone_mode=False returns normally on success, raises SystemExit for
    # the commands' sys.exit(1) and a ClickException for usage errors.
    if exc is None:
        failed = isinstance(result, int) and result != 0
    elif isinstance(exc, SystemExit):
        failed = exc.code not in (0, None)
    else:
        failed = True
    if failed:
        tracer.counters["cli.exit_nonzero"] += 1


OBSERVERS = {
    ("_aberth", "aberth_iterate"): _observe_kernel,
    ("roots", "find_roots"): _observe_find_roots,
    ("realize", "realize_poly"): _observe_realize_poly,
    ("cli", "main"): _observe_cli_main,
}


class Tracer:
    """Spans of wrapped calls, aggregated per (layer, function) key.

    Spans are recorded only inside ``window()``; outside it the wrappers pass
    straight through, so output checks and input generation are not traced.
    ``unattributed_s`` is window time spent outside any span, measured
    directly, so ``sum(self_s) + unattributed_s`` equals ``wall_s`` only when
    the span bookkeeping is sound.
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(float)
        self.wall_s = 0.0
        self.unattributed_s = 0.0
        self._stack = []
        self._active = False
        self._mark = 0.0
        self._saved = []

    def install(self, modules) -> None:
        for mod, name, obj, layer in targets(modules):
            self._saved.append((mod, name, obj))
            setattr(mod, name, self._wrap(obj, layer, name))

    def uninstall(self) -> None:
        while self._saved:
            mod, name, obj = self._saved.pop()
            setattr(mod, name, obj)

    def _wrap(self, fn, layer: str, binding: str):
        key = (layer, getattr(fn, "__name__", binding))
        observe = OBSERVERS.get(key)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(key, start)
                if observe is not None:
                    observe(tracer, None, exc)
                raise
            tracer._exit(key, start)
            if observe is not None:
                observe(tracer, result, None)
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def _enter(self) -> float:
        now = time.perf_counter()
        if not self._stack:
            self.unattributed_s += now - self._mark
        self._stack.append(0.0)
        return now

    def _exit(self, key, start: float) -> None:
        now = time.perf_counter()
        duration = now - start
        children = self._stack.pop()
        self.calls[key] += 1
        self.self_s[key] += duration - children
        if self._stack:
            self._stack[-1] += duration
        else:
            self._mark = now

    @contextmanager
    def window(self):
        start = time.perf_counter()
        self._mark = start
        self._active = True
        try:
            yield
        finally:
            self._active = False
            end = time.perf_counter()
            self.unattributed_s += end - self._mark
            self.wall_s += end - start

    def layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for (lay, _), s in self.self_s.items() if lay == layer)
