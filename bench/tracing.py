"""Per-layer timing of morseadic from outside the package.

Layers are the package's modules.  install() replaces each public
function, each public method of the module's classes and the
``__post_init__``/``__str__`` hooks (canonicalization and printing) by a
timing wrapper, at every place the package binds them: the defining
module, every module that imported the name, the package namespace, and
module-level dicts such as verify.SUITES.  No file under src/ changes.

For each (caller layer, function) the tracer keeps calls, inclusive
time, self time (inclusive minus the traced calls made inside it) and
how many calls raised.  Aggregates are kept instead of one span per call
because EpSeq.digit alone runs millions of times; spans are kept per op
by the runner.  Time spent in private helpers counts as self time of the
nearest traced caller.  The library is single-threaded, so no call waits
in a queue and no wait time is recorded.
"""

from __future__ import annotations

import enum
import functools
import inspect
from time import perf_counter_ns

import morseadic

LAYERS = ("dyadic", "adic", "arith", "substitution", "solenoid", "verify", "cli")
HOOKS = ("__post_init__", "__str__")


def _targets(module):
    """(owner, attribute, function id, original) for every traced callable
    the module defines."""
    layer = module.__name__.rsplit(".", 1)[1]
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, f"{layer}.{name}", obj
        elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
            for attr, raw in vars(obj).items():
                if attr.startswith("_") and attr not in HOOKS:
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    yield obj, attr, f"{layer}.{name}.{attr}", raw


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [layer, child_ns] per active traced call
        self.agg: dict[tuple[str, str], list[int]] = {}  # -> [calls, total, self, raised]
        self.layer_of: dict[str, str] = {}
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fid: str, layer: str, fn):
        stack, agg = self.stack, self.agg

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else "bench"
            frame = [layer, 0]
            stack.append(frame)
            raised = 0
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = agg.get((caller, fid))
                if rec is None:
                    rec = agg[(caller, fid)] = [0, 0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                rec[3] += raised

        return traced

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, vars(owner)[key]))
            setattr(owner, key, value)

    def install(self) -> None:
        modules = [getattr(morseadic, layer) for layer in LAYERS]
        replaced: dict[int, object] = {}  # id(original function) -> wrapper
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for owner, attr, fid, raw in _targets(module):
                self.layer_of[fid] = layer
                if isinstance(raw, (classmethod, staticmethod)):
                    self._set(owner, attr, type(raw)(self._wrap(fid, layer, raw.__func__)))
                else:
                    wrapper = self._wrap(fid, layer, raw)
                    replaced[id(raw)] = (raw, wrapper)
                    if owner is not module:
                        self._set(owner, attr, wrapper)
        # rebind module functions wherever the package holds them by name
        for namespace in [morseadic] + modules:
            for name, obj in list(vars(namespace).items()):
                hit = replaced.get(id(obj))
                if hit and hit[0] is obj:
                    self._set(namespace, name, hit[1])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        hit = replaced.get(id(value))
                        if hit and hit[0] is value:
                            self._set(obj, key, hit[1])

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def functions(self) -> dict[str, list[int]]:
        """Per function id: [calls, total_ns, self_ns, raised] over callers."""
        out: dict[str, list[int]] = {}
        for (_, fid), rec in self.agg.items():
            acc = out.setdefault(fid, [0, 0, 0, 0])
            for i, v in enumerate(rec):
                acc[i] += v
        return out

    def aggregates(self) -> list[dict]:
        return [
            {"caller": caller, "function": fid, "calls": c, "total_ns": t,
             "self_ns": s, "raised": r}
            for (caller, fid), (c, t, s, r) in sorted(self.agg.items())
        ]
