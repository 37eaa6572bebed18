"""Span recording around sweepkit's public functions, from outside the package.

The traced run swaps each function listed in ``LAYERS`` for a wrapper, in
every ``sweepkit`` module namespace that holds it (and on ``FussTableau`` for
its methods), so calls made by library code -- ``dinv`` inside
``catalan_qt``, every library name inside ``cli`` -- are recorded too.
``Tracer.uninstall`` puts the originals back; the untraced run never
installs anything.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from time import perf_counter


def _path_steps(args, result):
    return args[0].frame.size


def _size_steps(args, result):
    """For a frame or a tableau, which both carry their m + n as ``size``."""
    return args[0].size


def _parse_steps(args, result):
    return len(args[1])


def _from_json_steps(args, result):
    return 0 if result is None else result.size


def _fuss_frame_paths_steps(k, n):
    """Steps summed over every path of the m = kn+1 frame."""
    m = k * n + 1
    return math.comb(m + n, m) // (m + n) * (m + n)


def _catalan_steps(args, result):
    return _fuss_frame_paths_steps(args[0], args[1])


def _catalan_step_steps(args, result):
    return _fuss_frame_paths_steps(args[0], args[1] - 1)


def _cli_steps(args, result):
    """Size of the command's input: its word, its tableau or its Catalan frame."""
    argv = list(args[0])

    def value(flag):
        return argv[argv.index(flag) + 1] if flag in argv else None

    if value("--word") is not None:
        return len(value("--word"))
    if value("--tableau-json") is not None:
        data = json.loads(value("--tableau-json"))
        return data["k"] * data["n"] + data["sign"] + data["n"]
    if argv[0] == "catalan":
        k, n = int(value("--k")), int(value("--n"))
        if value("--via") == "step":
            return _fuss_frame_paths_steps(k, n - 1)
        return _fuss_frame_paths_steps(k, n)
    return 0


# Traced function -> how many input steps one call handles, and what it
# should move: (end-to-end metrics, workloads that should move, workloads
# that should stay flat).  Later issues cite these names.
_SPEED = ("latency_best_ratio", "latency_best_s", "latency_p50_s", "requests_per_s")
_TABLEAU = (_SPEED, ("tableau_500",), ("invert_20k", "words_5k"))
_CATALAN = (_SPEED, ("cli_small",), ("invert_20k", "words_5k", "tableau_500"))
_WORDS = (_SPEED, ("words_5k",), ("invert_20k",))

LAYERS = {
    "fuss.invert_fuss": (_path_steps, _SPEED, ("invert_20k",), ("words_5k",)),
    "core.parse_path": (_parse_steps, _SPEED, ("invert_20k", "cli_small"), ("words_5k",)),
    "sweep.sweep": (_path_steps, *_WORDS),
    "sweep.sw_word": (_path_steps, *_WORDS),
    "sweep.en_word": (_path_steps, *_WORDS),
    "sweep.bipartite_invert": (_path_steps, *_WORDS),
    "core.area": (_path_steps, *_WORDS),
    "core.rank_sequence": (_path_steps, *_WORDS),
    "core.rank_complement": (_path_steps, *_WORDS),
    "core.dinv": (_path_steps, *_TABLEAU),
    "fuss.FussTableau.from_json": (_from_json_steps, *_TABLEAU),
    "fuss.FussTableau.validate": (_size_steps, *_TABLEAU),
    "fuss.FussTableau.to_json": (_size_steps, *_TABLEAU),
    "fuss.path_tableau": (_path_steps, *_TABLEAU),
    "fuss.walk": (_size_steps, *_TABLEAU),
    "fuss.en_from_tableau": (_size_steps, *_TABLEAU),
    "fuss.tableau_rank_labels": (_size_steps, *_TABLEAU),
    "reduction.red": (_size_steps, *_TABLEAU),
    "reduction.fiber_by_cutting": (_size_steps, *_TABLEAU),
    "reduction.area_from_bottom_row": (_size_steps, *_TABLEAU),
    "reduction.coarea_from_top_row": (_size_steps, *_TABLEAU),
    "qtcatalan.catalan_qt": (_catalan_steps, *_CATALAN),
    "qtcatalan.catalan_qt_via_bounce": (_catalan_steps, *_CATALAN),
    "qtcatalan.catalan_step": (_catalan_step_steps, *_CATALAN),
    "cli.main": (_cli_steps, *_CATALAN),
    "bench.random_path": (
        _size_steps, ("setup_s",), ("invert_20k", "words_5k"), ("cli_small",)
    ),
}


class Tracer:
    """Keeps spans in memory: (name, start, end, parent index, request, steps)."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.recording = False
        self.request: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, steps_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer.spans.append(None)
            tracer._stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (
                    name, start, end, parent, tracer.request, steps_of(args, result)
                )

        return traced

    def install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if key == "sweepkit" or key.startswith("sweepkit.")
        ]
        for name, (steps_of, *_) in LAYERS.items():
            module_name, *owner_path, attr = name.split(".")
            owner = sys.modules[f"sweepkit.{module_name}"]
            for part in owner_path:
                owner = getattr(owner, part)
            if owner_path:  # a method: patch the class itself
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapper = self._wrap(name, fn, steps_of)
                self._patch(owner, attr, raw, classmethod(wrapper) if is_classmethod else wrapper)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, steps_of)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """calls, self seconds and steps per traced function, over every span."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = {name: {"calls": 0, "self_s": 0.0, "steps": 0} for name in LAYERS}
        for (name, start, end, _, _, steps), children in zip(self.spans, child_time):
            row = totals[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - children
            row["steps"] += steps
        return totals

    def top_level_time(self) -> dict[int, float]:
        """Per request id, the time its top-level spans cover."""
        covered: dict[int, float] = {}
        for _, start, end, parent, request, _ in self.spans:
            if parent is None and request is not None:
                covered[request] = covered.get(request, 0.0) + (end - start)
        return covered

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request, steps in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent,
                     "request": request, "steps": steps}
                ) + "\n")
