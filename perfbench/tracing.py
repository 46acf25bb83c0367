"""Span tracing and main-step timing around fuselab's public functions.

Nothing here lives in the library. The benchmark swaps wrappers in for
the functions and methods it measures and swaps the originals back when
it is done. Spans are kept in memory and written out when the run ends.

A span is (name, start, end, parent, rows): rows is the batch size the
call handled, where the layer has one. A layer's self time is its span's
duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from hostspeed import Timeline

EVAL_SPAN = "training.evaluate_model"


def _resolve(module: str, path: str):
    """(owner, attribute name, current value). A target that is gone
    raises: a metric whose function was renamed would otherwise read 0,
    which looks like a gain."""
    __import__(module)
    owner = sys.modules[module]
    *head, attr = path.split(".")
    try:
        for part in head:
            owner = getattr(owner, part)
        value = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    except (AttributeError, KeyError):
        raise RuntimeError(f"perfbench: cannot trace {module}:{path}, "
                           "it no longer exists") from None
    return owner, attr, value


class Patches:
    """Replaces functions and methods, and puts the originals back."""

    def __init__(self):
        self._undo: List[tuple] = []

    def method(self, cls: type, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def function(self, target: Callable, replacement: Callable) -> None:
        """Rebind every fuselab module attribute that holds ``target``,
        so calls through any import path reach the replacement."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "fuselab" or name.startswith("fuselab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is target:
                    self._undo.append((module, attr, target))
                    setattr(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def patch(patches: Patches, module: str, path: str, make: Callable) -> None:
    """Wrap the function or method at module:path with make(original)."""
    owner, attr, value = _resolve(module, path)
    if isinstance(owner, type):
        patches.method(owner, attr, make(value))
    else:
        patches.function(value, make(value))


class StepClock:
    """Timestamps the end of every main-optimizer step() and of every
    evaluate_model call during train(), which splits a unit into epochs
    (the steps, then the validation pass) and each epoch into steps. It
    reads the host speed after each validation pass and, when one is
    due, after a main step (hostspeed).

    The main optimizer is the one that owns any parameter of
    ``model.main_parameters()``; the discriminator optimizer owns none.
    """

    def __init__(self, timeline: Timeline):
        self.timeline = timeline
        self.stamps: List[float] = []
        self.val_ends: List[float] = []
        self._main: set = set()
        self._is_main: Dict[int, bool] = {}
        self._patches = Patches()

    def watch(self, model) -> None:
        self.stamps = []
        self.val_ends = []
        self._main = {id(p) for p in model.main_parameters()}
        self._is_main = {}

    def install(self) -> None:
        from fuselab.training import optim

        clock = self
        for cls in (optim.Adam, optim.SGD):
            original = cls.__dict__["step"]

            def step(opt, *args, _original=original, **kwargs):
                out = _original(opt, *args, **kwargs)
                key = id(opt)
                main = clock._is_main.get(key)
                if main is None:
                    main = any(id(p) in clock._main for p in opt.params)
                    clock._is_main[key] = main
                if main:
                    clock.stamps.append(time.perf_counter())
                    clock.timeline.read_if_due()
                return out

            self._patches.method(cls, "step", step)

        def timed(evaluate):
            def evaluate_model(*args, **kwargs):
                out = evaluate(*args, **kwargs)
                clock.val_ends.append(time.perf_counter())
                clock.timeline.read()
                return out

            return evaluate_model

        patch(self._patches, "fuselab.training.loop", "evaluate_model", timed)

    def epochs(self, start: float) -> List[Tuple[Tuple[float, float], List[Tuple[float, float]]]]:
        """((begin, end), step (begin, end)s) of each epoch of the train()
        call that began at start. An epoch runs from the end of the
        previous validation pass (or start) to the end of its own; a step
        from the end of the step or validation pass before it."""
        out = []
        begin = start
        stamps = iter(self.stamps)
        pending = next(stamps, None)
        for end in self.val_ends:
            marks = [begin]
            while pending is not None and pending < end:
                marks.append(pending)
                pending = next(stamps, None)
            out.append(((begin, end), list(zip(marks, marks[1:]))))
            begin = end
        return out

    def uninstall(self) -> None:
        self._patches.undo()


class ProbeClock:
    """Times every evaluation of the objective that grad_check and
    grad_check_params receive: the analytic pass and each finite-difference
    probe. The suite's callables are wrapped on their way in; what they
    return is passed back unchanged. The host speed is read before and
    after each check call and, when one is due, after a probe (hostspeed)."""

    TARGETS = (("fuselab.numcore.gradcheck", "grad_check"),
               ("fuselab.numcore.gradcheck", "grad_check_params"))

    def __init__(self, timeline: Timeline):
        self.timeline = timeline
        self.probes: List[Tuple[float, float]] = []   # (begin, end)
        self._patches = Patches()

    def install(self) -> None:
        for module, path in self.TARGETS:
            patch(self._patches, module, path, self._wrap)

    def _wrap(self, check):
        probes, timeline = self.probes, self.timeline

        def timed_check(f, *args, **kwargs):
            def probe(*f_args, **f_kwargs):
                start = time.perf_counter()
                out = f(*f_args, **f_kwargs)
                probes.append((start, time.perf_counter()))
                timeline.read_if_due()
                return out

            timeline.read()
            try:
                return check(probe, *args, **kwargs)
            finally:
                timeline.read()

        return timed_check

    def uninstall(self) -> None:
        self._patches.undo()


def _rows(arg) -> int:
    shape = getattr(arg, "shape", None)
    return int(shape[0]) if shape is not None else len(arg)


# (span name, module, attribute path, index of the argument whose length
# is the span's row count, or None)
SPANS = (
    ("datakit.load_jsonl", "fuselab.datakit", "load_jsonl", None),
    ("textprep.normalize", "fuselab.textprep.normalize", "normalize", None),
    ("textprep.extract_entity_tuple", "fuselab.textprep.entities",
     "extract_entity_tuple", None),
    ("layers.text_encoder", "fuselab.layers", "RecurrentTextEncoder.encode_batch", 1),
    ("layers.visual_encoder", "fuselab.layers", "ConvVisualEncoder.encode_batch", 1),
    ("fusion.fuse_batch", "fuselab.fusion", "ConcatFusion.fuse_batch", None),
    ("fusion.fuse_batch", "fuselab.fusion", "AutoFusion.fuse_batch", None),
    ("fusion.fuse_batch", "fuselab.fusion", "GanFusion.fuse_batch", None),
    ("fusion.gan_adv_loss", "fuselab.fusion", "gan_adv_loss", None),
    ("training.step_discriminator", "fuselab.training.loop", "step_discriminator", None),
    ("training.forward_batch", "fuselab.training.model", "FusionModel.forward_batch", 1),
    (EVAL_SPAN, "fuselab.training.loop", "evaluate_model", None),
    ("numcore.backward", "fuselab.numcore.tensor", "Tensor.backward", None),
    ("numcore.clip_grad_norm", "fuselab.numcore.tensor", "clip_grad_norm", None),
    ("training.optim.step", "fuselab.training.optim", "Adam.step", None),
    ("training.optim.step", "fuselab.training.optim", "SGD.step", None),
    ("training.load_model", "fuselab.training.model", "load_model", None),
    ("metrics.evaluate", "fuselab.metrics", "evaluate", None),
    ("numcore.grad_check", "fuselab.numcore.gradcheck", "grad_check", None),
    ("numcore.grad_check_params", "fuselab.numcore.gradcheck", "grad_check_params", None),
)


class Tracer:
    """Records spans at layer boundaries and counts calls into numcore's
    exported ops, split by whether they happen inside evaluate_model."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self.trace_id = ""
        self._stack: List[int] = []
        self._eval_depth = 0
        self.ops = [0, 0]    # [outside evaluate_model, inside]
        self._patches = Patches()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for name, module, path, rows_arg in SPANS:
            patch(self._patches, module, path,
                  lambda fn, name=name, rows_arg=rows_arg: self._span(name, fn, rows_arg))
        self._count_ops()

    def uninstall(self) -> None:
        self._patches.undo()

    def _span(self, name: str, fn, rows_arg: Optional[int]):
        tracer = self
        is_eval = name == EVAL_SPAN

        def traced(*args, **kwargs):
            rows = _rows(args[rows_arg]) if rows_arg is not None else 0
            stack = tracer._stack
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if is_eval:
                tracer._eval_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if is_eval:
                    tracer._eval_depth -= 1
                stack.pop()
                tracer.spans[idx] = (name, start, end, parent, rows, tracer.trace_id)

        return traced

    def _count_ops(self) -> None:
        from fuselab import numcore
        from fuselab.numcore import ops

        tracer = self
        counted_ops = 0
        for attr in numcore.__all__:
            fn = getattr(ops, attr, None)
            if not callable(fn) or getattr(fn, "__module__", None) != ops.__name__:
                continue

            def counted(*args, _fn=fn, **kwargs):
                tracer.ops[tracer._eval_depth > 0] += 1
                return _fn(*args, **kwargs)

            self._patches.function(fn, counted)
            counted_ops += 1
        if not counted_ops:
            raise RuntimeError("perfbench: numcore exports no ops from numcore.ops to count")

    # -- analysis ----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, rows, self and total seconds, plus the
        calls and rows made outside evaluate_model."""
        spans = self.spans
        child_time = defaultdict(float)
        for name, start, end, parent, rows, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        in_eval: List[bool] = []
        for i, (name, start, end, parent, rows, _) in enumerate(spans):
            in_eval.append(parent >= 0 and (spans[parent][0] == EVAL_SPAN or in_eval[parent]))
        out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, rows, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["rows"] += rows
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
            if not in_eval[i]:
                row["calls_outside_eval"] += 1
                row["rows_outside_eval"] += rows
        return out

    def write(self, path) -> None:
        """One JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, rows, trace_id = span
                fh.write(json.dumps({"id": i, "trace": trace_id, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "rows": rows}) + "\n")
