"""Per-layer tracing of qrf_lab's public functions, installed from outside.

Each traced name is wrapped once, and the wrapper is bound in every
``qrf_lab`` module namespace that holds the original object, because
modules import names from each other (``scenarios`` does ``from .dynamics
import evolve``), and in the benchmark modules passed to ``install``.
Methods are wrapped on their class.  A name that no longer exists is
recorded as absent instead of failing the run.

Spans are kept in memory as tuples and written out when the run ends.  A
span's self time is its duration minus the durations of the traced spans
directly below it.
"""
from __future__ import annotations

import importlib
import sys
import time

# metric prefix -> (module inside qrf_lab, attribute path in that module).
# A dotted path is a method, wrapped on its class.
TRACED = {
    "groups.check_element": ("groups", "FiniteAbelianGroup.check_element"),
    "operators.kron": ("operators", "kron"),
    "operators.partial_trace": ("operators", "partial_trace"),
    "operators.matrix_exp_scaled": ("operators", "matrix_exp_scaled"),
    "operators.fixed_space_projector": ("operators", "fixed_space_projector"),
    "frames.FrameSetup": ("frames", "FrameSetup.__init__"),
    "frames.perspective_unitary": ("frames", "perspective_unitary"),
    "frames.qrf_transform": ("frames", "qrf_transform"),
    "subalgebras.membership_test": ("subalgebras", "membership_test"),
    "subalgebras.invariant_projector": ("subalgebras", "invariant_projector"),
    "subalgebras.intersect_projectors": ("subalgebras", "intersect_projectors"),
    "subalgebras.pure_state_bilocal_witness": ("subalgebras", "pure_state_bilocal_witness"),
    "dynamics.evolve": ("dynamics", "evolve"),
    "thermo.energetics": ("thermo", "energetics"),
    "thermo.entropy_production_and_flow": ("thermo", "entropy_production_and_flow"),
    "thermo.balance_verifiers": ("thermo", "balance_verifiers"),
    "states.von_neumann_entropy": ("states", "von_neumann_entropy"),
    "states.relative_entropy": ("states", "relative_entropy"),
    "scenarios.parse_config": ("scenarios", "parse_config"),
    "scenarios.run_scenario": ("scenarios", "run_scenario"),
    "scenarios.render": ("scenarios", "render"),
    "cli.main": ("cli", "main"),
}


class Tracer:
    """Wraps the traced names while installed; records spans and keys."""

    def __init__(self):
        self.names = list(TRACED)
        self.spans = []          # (name index, op index, parent span index, start, end)
        self.absent = []
        self.op_index = -1
        self._stack = []
        self._undo = []
        self.perspective_keys = set()  # (op, setup, g_i, g_j): distinct keys per operation
        self._setups = {}        # keeps keyed setups alive so ids are not reused
        self.max_superop_dim = 0

    # ------------------------------------------------------------ install
    def install(self, *callers):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "qrf_lab" or n.startswith("qrf_lab.")) and m is not None]
        modules += callers
        for index, (layer, path) in enumerate(TRACED.values()):
            try:
                module = importlib.import_module(f"qrf_lab.{layer}")
            except ImportError:
                self.absent.append(self.names[index])
                continue
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(self.names[index])
                continue
            wrapper = self._wrap(index, original)
            if owner is module:
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))
            else:
                setattr(owner, attr, wrapper)
                self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap(self, index, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        name = self.names[index]
        note = None
        if name == "frames.perspective_unitary":
            note = self._note_perspective
        elif name == "operators.fixed_space_projector":
            note = self._note_superop

        def traced(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, self.op_index, stack[-1] if stack else -1, start, end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _note_perspective(self, args, kwargs):
        bound = dict(zip(("setup", "g_i", "g_j"), args), **kwargs)
        try:
            key = (id(bound["setup"]), _element(bound["g_i"]), _element(bound["g_j"]))
        except (KeyError, TypeError, ValueError):
            return  # a changed signature costs this count, not the run
        self._setups[key[0]] = bound["setup"]
        self.perspective_keys.add((self.op_index,) + key)

    def _note_superop(self, args, kwargs):
        superop = args[0] if args else kwargs.get("superop")
        shape = getattr(superop, "shape", None)
        if shape:
            self.max_superop_dim = max(self.max_superop_dim, int(shape[0]))

    # ------------------------------------------------------------ results
    def self_times(self):
        """(name index, op index, self seconds) of every span."""
        child_s = [0.0] * len(self.spans)
        for index, _, parent, start, end in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        return [(index, op, (end - start) - child_s[k])
                for k, (index, op, _, start, end) in enumerate(self.spans)]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,op,parent,start_s,end_s\n")
            for index, op, parent, start, end in self.spans:
                fh.write(f"{self.names[index]},{op},{parent},{start!r},{end!r}\n")


def _element(g):
    if isinstance(g, (tuple, list)):
        return tuple(int(r) for r in g)
    return (int(g),)
