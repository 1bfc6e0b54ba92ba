"""In-memory span recorder that wraps the program's layer entry points.

The recorder patches classes of the ``repro.<layer>`` packages at run
time; nothing under ``src/`` is edited.  Every wrapped call records one
span ``(name, start, end, parent)``: ``parent`` is the span that was
open when the call began, so spans form a tree per kernel step.

Functions that hand back a generator do their work later, inside kernel
steps, one resume at a time.  Their spans are therefore recorded per
resume: the generator is wrapped and every ``send``/``throw`` into it is
its own span.  The same applies to simulator processes (timed under the
layer of the module that defined the process body) and to subroutine
generators a process yields to the kernel.

Self time of a span is its duration minus the time its direct children
cover; because one thread runs everything, children are nested inside
their parent and never overlap, so that is a plain subtraction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import types
from array import array
from enum import Enum
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: layers whose classes and functions are wrapped, as ``repro.<layer>``
#: packages.
LAYERS = ("sim", "streams", "codecs", "values", "activities", "session",
          "avdb", "db", "annotations", "storage", "net", "admission",
          "cluster", "cache", "watch", "faults", "soak")

#: modules under a layer package that drive a scenario rather than
#: implement the layer; their time is reported as the ``scenario`` layer.
SCENARIO_MODULE_SUFFIX = ".scenarios"

_NO_PARENT = -1


def layer_of_module(module: str) -> str:
    """Map a module name to the layer its time is charged to."""
    if module.startswith("repro."):
        if module.endswith(SCENARIO_MODULE_SUFFIX):
            return "scenario"
        return module.split(".")[1]
    if module.startswith("perfbench") or module == "__main__":
        return "bench"
    return "other"


class SpanRecorder:
    """Keeps every span in flat arrays; wraps and unwraps entry points."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self._stack: List[int] = [_NO_PARENT]
        self._name_ids: Dict[Tuple[str, str], int] = {}
        self.name_table: List[Tuple[str, str]] = []
        #: invocations per name id (a generator counts once, at creation).
        self.calls: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.enabled = False

    # -- names ------------------------------------------------------------
    def name_id(self, layer: str, name: str) -> int:
        key = (layer, name)
        nid = self._name_ids.get(key)
        if nid is None:
            nid = len(self.name_table)
            self._name_ids[key] = nid
            self.name_table.append(key)
            self.calls.append(0)
        return nid

    # -- recording --------------------------------------------------------
    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.names.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def timed_call(self, fn: Callable, nid: int) -> Callable:
        """``fn`` wrapped so each call is a span (per resume if it
        returns a generator)."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            recorder.calls[nid] += 1
            idx = recorder._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(idx)
            if type(result) is types.GeneratorType:
                return recorder.timed_generator(result, nid)
            return result

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def timed_generator(self, gen, nid: int):
        """Drive ``gen`` and record one span per resume."""
        send_value = None
        error: Optional[BaseException] = None
        while True:
            idx = self._open(nid)
            try:
                if error is not None:
                    command = gen.throw(error)
                else:
                    command = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._close(idx)
            if type(command) is types.GeneratorType:
                # A subroutine handed to the kernel: it runs on the
                # kernel's own stack, so give it spans of its own.
                command = self.timed_generator(
                    command, self._generator_name(command))
            error = None
            try:
                send_value = yield command
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                error = exc
                send_value = None

    def _generator_name(self, gen) -> int:
        frame = gen.gi_frame
        module = frame.f_globals.get("__name__", "") if frame else ""
        return self.name_id(layer_of_module(module), gen.gi_code.co_qualname)

    def process(self, gen):
        """Wrap a simulator process body under its defining layer."""
        if type(gen) is not types.GeneratorType:
            return gen
        nid = self._generator_name(gen)
        self.calls[nid] += 1
        return self.timed_generator(gen, nid)

    def action(self, fn: Callable) -> Callable:
        """Wrap a callable the kernel runs directly (timers, ticks)."""
        if getattr(fn, "__perfbench_wrapped__", False):
            return fn
        target = getattr(fn, "__func__", fn)
        target = getattr(target, "func", target)  # functools.partial
        module = getattr(target, "__module__", "") or ""
        qualname = getattr(target, "__qualname__", repr(target))
        return self.timed_call(fn, self.name_id(layer_of_module(module),
                                                qualname))

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_class(self, cls: type, layer: str) -> None:
        """Wrap every public method and property getter ``cls`` defines."""
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            nid = self.name_id(layer, f"{cls.__qualname__}.{attr}")
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, self.timed_call(member, nid))
            elif isinstance(member, property) and member.fget is not None:
                self._patch(cls, attr, property(
                    self.timed_call(member.fget, nid), member.fset,
                    member.fdel, member.__doc__))

    def wrap_function(self, module, attr: str, layer: str) -> None:
        fn = getattr(module, attr)
        self._patch(module, attr, self.timed_call(
            fn, self.name_id(layer, fn.__qualname__)))

    def install(self, layers=LAYERS) -> None:
        """Wrap the public classes and functions of every layer, plus the
        kernel hooks that start process bodies and timer actions."""
        seen = set()
        for layer in layers:
            for module in _layer_modules(layer):
                charged = layer_of_module(module.__name__)
                for attr, member in _public_members(module):
                    if id(member) in seen:  # an alias of one wrapped
                        continue
                    seen.add(id(member))
                    if inspect.isclass(member):
                        self.wrap_class(member, charged)
                    else:
                        self.wrap_function(module, attr, charged)
        from repro.sim.kernel import Simulator
        recorder = self
        spawn = Simulator.__dict__["spawn"]   # already wrapped as a span
        push = Simulator.__dict__["_push"]
        every = Simulator.__dict__["schedule_every"]

        def traced_spawn(sim, gen, name="process"):
            return spawn(sim, recorder.process(gen) if recorder.enabled
                         else gen, name)

        def traced_push(sim, time, action):
            return push(sim, time, recorder.action(action)
                        if recorder.enabled else action)

        def traced_every(sim, interval_s, action, *args, **kwargs):
            return every(sim, interval_s, recorder.action(action)
                         if recorder.enabled else action, *args, **kwargs)

        self._patch(Simulator, "spawn", functools.wraps(spawn)(traced_spawn))
        self._patch(Simulator, "_push", traced_push)
        self._patch(Simulator, "schedule_every",
                    functools.wraps(every)(traced_every))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------
    def span_arrays(self):
        names = np.frombuffer(self.names, dtype=np.int32).copy()
        parents = np.frombuffer(self.parents, dtype=np.int32).copy()
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        return names, parents, starts, ends

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus direct children's cover."""
        names, parents, starts, ends = self.span_arrays()
        durations = ends - starts
        has_parent = parents >= 0
        covered = np.bincount(parents[has_parent],
                              weights=durations[has_parent],
                              minlength=len(durations))
        return durations - covered

    def top_level_time(self) -> float:
        """Host time inside any span (sum of root span durations)."""
        _, parents, starts, ends = self.span_arrays()
        roots = parents < 0
        return float(np.sum(ends[roots] - starts[roots]))

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """Layer -> {self_s, calls}."""
        names, _, _, _ = self.span_arrays()
        self_s = np.bincount(names, weights=self.self_times(),
                             minlength=len(self.name_table))
        out: Dict[str, Dict[str, float]] = {}
        for nid, (layer, _) in enumerate(self.name_table):
            row = out.setdefault(layer, {"self_s": 0.0, "calls": 0})
            row["self_s"] += float(self_s[nid])
            row["calls"] += self.calls[nid]
        return out

    def calls_of(self, layer: str, qualname: str) -> int:
        nid = self._name_ids.get((layer, qualname))
        return 0 if nid is None else self.calls[nid]

    def calls_matching(self, layer: str, method: str) -> int:
        """Invocations of every ``<class>.<method>`` in ``layer``."""
        return sum(self.calls[nid]
                   for nid, (lay, name) in enumerate(self.name_table)
                   if lay == layer and name.endswith("." + method))

    def write(self, path: Path) -> None:
        """Write the spans out: name table as JSON, columns as ``.npz``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, parents, starts, ends = self.span_arrays()
        np.savez_compressed(path.with_suffix(".npz"), name=names,
                            parent=parents, start=starts, end=ends)
        path.with_suffix(".names.json").write_text(json.dumps(
            [{"layer": layer, "name": name, "calls": self.calls[nid]}
             for nid, (layer, name) in enumerate(self.name_table)]))


def import_layers(layers=LAYERS) -> None:
    """Import every module the recorder would wrap."""
    for layer in layers:
        _layer_modules(layer)


def _layer_modules(layer: str) -> List[types.ModuleType]:
    """``repro.<layer>`` and every module directly inside it."""
    package = importlib.import_module(f"repro.{layer}")
    return [package] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(package.__path__,
                                         prefix=f"repro.{layer}.")]


def _public_members(module: types.ModuleType):
    """Classes and public functions ``module`` itself defines.

    Private classes are included: a public factory often hands one out
    (a codec's stream decoder), and only their public methods are
    wrapped.
    """
    for attr, member in vars(module).items():
        if getattr(member, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(member):
            if not issubclass(member, (BaseException, Enum, tuple)):
                yield attr, member
        elif (isinstance(member, types.FunctionType)
              and not attr.startswith("_")):
            yield attr, member
