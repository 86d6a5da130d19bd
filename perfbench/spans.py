"""Layer spans recorded from outside the program.

The benchmark attributes time to the layers of ``repro`` without
editing it: :class:`Tracer` replaces the public calls listed in
:data:`TARGETS` with thin wrappers that open and close a span.  Every
span has an id, the id of the span it was opened in (0 at the top) and
its start and end times.  Spans stay in memory in flat columns; the
run computes self time from them (a span's duration minus the time its
child spans cover) and writes them out when it ends.

A target names a module, optionally a class, and the attribute names
to wrap.  Class ``"*"`` means every class defined in the package's
loaded modules; a class name ending in ``"+"`` means that class and
every loaded subclass.  A target whose module, class or attribute no
longer exists is reported as absent instead of failing the run, so
the benchmark keeps working when a layer moves or is deleted.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The layers, in report order.
LAYERS = (
    "sim.stabilizer",
    "sim.refcache",
    "sim.noise",
    "sim.frame",
    "decoders",
    "codes.esm",
    "qpdo",
    "parallel.schedule",
)

#: Counters reported next to the layer times.
COUNTERS = (
    "sim.refcache.hits",
    "sim.refcache.misses",
    "sim.frame.bytes",
    "decoders.table_builds",
    "parallel.schedule.shards",
)


def _refcache_lookup(counters, args, result) -> None:
    key = "hits" if result is not None else "misses"
    counters["sim.refcache." + key] += 1


def _frame_bytes(counters, args, result) -> None:
    """Frame-array bytes a kernel touches, computed from its shape.

    A kernel reads and writes the X and Z rows of each qubit argument;
    ``apply_pauli_masks`` touches every qubit.  Cache effects are not
    modelled.
    """
    frames = args[0]
    x = getattr(frames, "x", None)
    z = getattr(frames, "z", None)
    qubits = getattr(frames, "num_qubits", 0)
    if not isinstance(x, np.ndarray) or not isinstance(z, np.ndarray):
        return
    if not qubits:
        return
    touched = sum(1 for arg in args[1:] if isinstance(arg, (int, np.integer)))
    if touched == 0:
        touched = qubits
    counters["sim.frame.bytes"] += touched * (x.nbytes + z.nbytes) // qubits


def _table_build(counters, args, result) -> None:
    counters["decoders.table_builds"] += 1


def _shard(counters, args, result) -> None:
    counters["parallel.schedule.shards"] += 1


@dataclass(frozen=True)
class Target:
    """Public calls of one layer: ``module[:cls].name`` for each name.

    ``hook(counters, args, result)`` updates counters after each
    successful call.
    """

    layer: str
    module: str
    cls: Optional[str]
    names: Tuple[str, ...]
    hook: Optional[Callable] = None


_STABILIZER_CALLS = (
    "h", "s", "sdg", "x_gate", "y_gate", "z_gate", "cnot", "cz", "swap",
    "apply_gate", "measure", "reset", "reset_all",
)
_FRAME_KERNELS = (
    "h", "s", "cnot", "cz", "swap", "reset", "measure_flips",
    "apply_pauli_masks",
)
_NOISE_KERNELS = ("depolarize1", "depolarize2", "xerr")
_DECODE_CALLS = (
    "initialize", "decode_window", "decode_history", "decode_batch",
    "decode", "decode_events",
)

TARGETS: Tuple[Target, ...] = (
    Target("sim.stabilizer", "repro.sim.stabilizer", "StabilizerSimulator",
           _STABILIZER_CALLS),
    Target("sim.stabilizer", "repro.sim.refcache", "ReferenceTableau",
           ("reset", "apply_gate", "measure")),
    Target("sim.refcache", "repro.sim.refcache", None,
           ("lookup_reference_trace",), hook=_refcache_lookup),
    Target("sim.refcache", "repro.sim.refcache", None,
           ("store_reference_trace",)),
    Target("sim.noise", "repro.sim.framesim", "FrameArray", _NOISE_KERNELS),
    Target("sim.noise", "repro.sim.packedsim", "PackedFrameArray",
           _NOISE_KERNELS),
    Target("sim.noise", "repro.qpdo.error_layer", "DepolarizingErrorLayer",
           ("process_down",)),
    Target("sim.frame", "repro.sim.framesim", "FrameArray", _FRAME_KERNELS,
           hook=_frame_bytes),
    Target("sim.frame", "repro.sim.packedsim", "PackedFrameArray",
           _FRAME_KERNELS, hook=_frame_bytes),
    Target("decoders", "repro.decoders", "*", _DECODE_CALLS),
    # Decoding tables and graphs: their builds are decoder time and
    # are counted as decoders.table_builds.
    Target("decoders", "repro.decoders.batched", None,
           ("build_dense_lut",), hook=_table_build),
    Target("decoders", "repro.decoders.lut", None, ("build_lut",),
           hook=_table_build),
    Target("decoders", "repro.decoders.unionfind", None,
           ("build_space_graph", "build_space_time_graph"),
           hook=_table_build),
    Target("decoders", "repro.decoders.mwpm", "MatchingGraph",
           ("__init__",), hook=_table_build),
    Target("decoders", "repro.decoders.sparse", "SparseMatchingGraph",
           ("__init__",), hook=_table_build),
    Target("codes.esm", "repro.codes.surface17.esm", None, ("parallel_esm",)),
    Target("codes.esm", "repro.codes.rotated.esm", None, ("parallel_esm",)),
    Target("qpdo", "repro.qpdo.core", "Core+", ("execute", "run")),
    Target("parallel.schedule", "repro.experiments.parallel", None,
           ("plan_shards",)),
    Target("parallel.schedule", "repro.experiments.parallel", None,
           ("run_shard",), hook=_shard),
    Target("parallel.schedule", "repro.experiments.parallel",
           "ArmAggregator", ("add",)),
)


class SpanRecorder:
    """Spans as flat in-memory columns, plus per-pass counters."""

    def __init__(self, layers: Sequence[str] = LAYERS) -> None:
        self.layers = tuple(layers)
        self.ids = array("q")
        self.parents = array("q")
        self.layer_of = array("h")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[list] = []
        self._next_id = 1
        self._origin = time.perf_counter()
        self.counters: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        #: (span count at the pass's end, counters of the pass)
        self.passes: List[Tuple[int, Dict[str, int]]] = []

    def open(self, layer: int) -> list:
        stack = self._stack
        frame = [
            self._next_id,
            layer,
            stack[-1][0] if stack else 0,
            time.perf_counter(),
        ]
        self._next_id += 1
        stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()  # wrappers close in try/finally: LIFO
        self.ids.append(frame[0])
        self.layer_of.append(frame[1])
        self.parents.append(frame[2])
        self.starts.append(frame[3] - self._origin)
        self.ends.append(end - self._origin)

    def end_pass(self) -> None:
        """Close a traced pass: remember its span range and counters."""
        self.passes.append((len(self.ids), dict(self.counters)))
        self.counters = dict.fromkeys(COUNTERS, 0)

    # ------------------------------------------------------------------
    def columns(self) -> Dict[str, np.ndarray]:
        return {
            "id": np.frombuffer(self.ids, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "layer": np.frombuffer(self.layer_of, dtype=np.int16).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def layer_totals(self, stop: Optional[int] = None) -> Dict[str, dict]:
        """Self seconds and entries of each layer over spans ``[:stop]``.

        An *entry* is a span whose parent belongs to another layer (or
        that has no parent): one call into the layer from outside it,
        however many of the layer's own calls it makes inside.
        """
        cols = self.columns()
        ids, parents, layers = cols["id"], cols["parent"], cols["layer"]
        duration = cols["end"] - cols["start"]
        if stop is not None:
            ids, parents, layers, duration = (
                ids[:stop], parents[:stop], layers[:stop], duration[:stop]
            )
        position = np.full(int(ids.max(initial=0)) + 1, -1, dtype=np.int64)
        position[ids] = np.arange(len(ids))
        nested = parents > 0
        parent_pos = position[parents[nested]]
        child_time = np.zeros(len(ids))
        np.add.at(child_time, parent_pos, duration[nested])
        self_time = duration - child_time
        entry = np.ones(len(ids), dtype=bool)
        entry[nested] = layers[parent_pos] != layers[nested]
        count = len(self.layers)
        self_by_layer = np.bincount(layers, weights=self_time, minlength=count)
        entries = np.bincount(layers[entry], minlength=count)
        return {
            name: {"self_s": float(self_by_layer[i]), "calls": int(entries[i])}
            for i, name in enumerate(self.layers)
        }


class Tracer:
    """Installs and removes span wrappers around :data:`TARGETS`."""

    def __init__(
        self,
        recorder: SpanRecorder,
        targets: Sequence[Target] = TARGETS,
    ) -> None:
        self.recorder = recorder
        self.targets = tuple(targets)
        self.absent: List[str] = []
        #: (owner, attribute, original, whether owner defined it itself)
        self._patches: List[Tuple[object, str, object, bool]] = []
        self._points: Optional[list] = None

    # -- resolution ----------------------------------------------------
    def _classes(self, target: Target, module) -> List[type]:
        if target.cls == "*":
            prefix = target.module + "."
            found = []
            for name, loaded in list(sys.modules.items()):
                if loaded is None:
                    continue
                if name != target.module and not name.startswith(prefix):
                    continue
                for value in vars(loaded).values():
                    if (
                        inspect.isclass(value)
                        and value.__module__ == name
                        and value not in found
                    ):
                        found.append(value)
            return found
        if target.cls.endswith("+"):
            base = getattr(module, target.cls[:-1], None)
            if not inspect.isclass(base):
                return []
            found, todo = [], [base]
            while todo:
                cls = todo.pop()
                if cls not in found:
                    found.append(cls)
                    todo.extend(cls.__subclasses__())
            return found
        cls = getattr(module, target.cls, None)
        return [cls] if inspect.isclass(cls) else []

    def resolve(self) -> List[tuple]:
        """Patch points ``(layer, owner, attr, original, hook)``.

        Resolved once; absent modules, classes and attributes go to
        :attr:`absent`.
        """
        if self._points is not None:
            return self._points
        points = []
        seen = set()

        def add(layer, owner, name, original, hook) -> None:
            # A function is wrapped once wherever it is bound; a method
            # once per class it is patched on.
            key = (id(owner), name) if inspect.isclass(owner) else id(original)
            if key not in seen:
                seen.add(key)
                points.append((layer, owner, name, original, hook))

        for target in self.targets:
            where = target.module
            try:
                module = importlib.import_module(target.module)
            except ImportError:
                self.absent.append(where)
                continue
            if target.cls is None:
                for name in target.names:
                    original = getattr(module, name, None)
                    if callable(original):
                        add(target.layer, module, name, original, target.hook)
                    else:
                        self.absent.append(f"{where}:{name}")
                continue
            classes = self._classes(target, module)
            if not classes:
                self.absent.append(f"{where}:{target.cls}")
                continue
            family = target.cls == "*" or target.cls.endswith("+")
            for name in target.names:
                hit = False
                for cls in classes:
                    # A family is patched where each method is defined;
                    # a named class also gets its inherited methods.
                    if name in vars(cls):
                        original = vars(cls)[name]
                    elif not family:
                        original = getattr(cls, name, None)
                    else:
                        hit = hit or callable(getattr(cls, name, None))
                        continue
                    if not inspect.isfunction(original):
                        continue  # static/class methods, properties
                    hit = True
                    add(target.layer, cls, name, original, target.hook)
                if not hit:
                    self.absent.append(f"{where}:{target.cls}.{name}")
        self._points = points
        return points

    # -- install / uninstall -------------------------------------------
    def _wrap(self, layer: str, original, hook: Optional[Callable]):
        recorder = self.recorder
        index = recorder.layers.index(layer)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = recorder.open(index)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close(frame)
            if hook is not None:
                hook(recorder.counters, args, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            return
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))
        ]
        for layer, owner, name, original, hook in self.resolve():
            wrapper = self._wrap(layer, original, hook)
            if inspect.isclass(owner):
                own = name in vars(owner)
                self._patches.append((owner, name, original, own))
                setattr(owner, name, wrapper)
                continue
            # A module-level function is also bound by name in every
            # module that did ``from ... import name``: patch them all.
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, True))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, own in reversed(self._patches):
            if own:
                setattr(owner, name, original)
            else:  # the wrapper shadowed an inherited method
                delattr(owner, name)
        self._patches = []

    def absent_layers(self) -> List[str]:
        present = {point[0] for point in self.resolve()}
        return [
            layer for layer in self.recorder.layers if layer not in present
        ]
