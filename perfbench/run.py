"""fuselab benchmark: run one workload for one seed and print the result.

    python3 perfbench/run.py --workload train-xor-gan --seed 1 --seconds 15 --trace 0

It imports fuselab from the ``src/`` beside this directory and from
nowhere else. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
separate traced unit gives the per-layer ones, and its spans are written
to ``perfbench/_out/``. Lines before the last one describe the
environment and the samples behind each number.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; fuselab's own lexicon
# directory, not an override from the environment, feeds the normalizer.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("FUSELAB_LEXICON_DIR", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

# Set-up is timed in rounds: one before the first unit, then one after
# each SETUP_EVERY_S seconds of units and one after the last, so that its
# samples spread over the whole run like the units' do. A round repeats
# set-up for at least SETUP_ROUND_S seconds.
SETUP_ROUND_S = 0.5
SETUP_ROUND_MIN = 3
SETUP_EVERY_S = 4.0
MIN_UNITS = 2

UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
         "quality": "ratio", "peak_rss_mb": "MB"}

# per-layer metric: (unit, summary key or None for a derived metric)
PER_LAYER = {
    "datakit.load_jsonl.s": ("s", ("datakit.load_jsonl", "self_s")),
    "textprep.normalize.calls": ("count", ("textprep.normalize", "calls")),
    "textprep.normalize.s": ("s", ("textprep.normalize", "self_s")),
    "textprep.extract_entity_tuple.calls": ("count", ("textprep.extract_entity_tuple", "calls")),
    "textprep.extract_entity_tuple.s": ("s", ("textprep.extract_entity_tuple", "self_s")),
    "layers.text_encoder.calls": ("count", ("layers.text_encoder", "calls")),
    "layers.text_encoder.rows": ("count", ("layers.text_encoder", "rows")),
    "layers.text_encoder.s": ("s", ("layers.text_encoder", "self_s")),
    "layers.text_encoder.rows_per_sample": ("rows/sample", None),
    "layers.text_encoder.calls_per_step": ("calls/step", None),
    "layers.visual_encoder.calls": ("count", ("layers.visual_encoder", "calls")),
    "layers.visual_encoder.rows": ("count", ("layers.visual_encoder", "rows")),
    "layers.visual_encoder.s": ("s", ("layers.visual_encoder", "self_s")),
    "layers.visual_encoder.rows_per_sample": ("rows/sample", None),
    "fusion.fuse_batch.calls": ("count", ("fusion.fuse_batch", "calls")),
    "fusion.fuse_batch.s": ("s", ("fusion.fuse_batch", "self_s")),
    "fusion.gan_adv_loss.calls": ("count", ("fusion.gan_adv_loss", "calls")),
    "fusion.gan_adv_loss.s": ("s", ("fusion.gan_adv_loss", "self_s")),
    "training.step_discriminator.s": ("s", ("training.step_discriminator", "self_s")),
    "training.step_discriminator.total_s": ("s", ("training.step_discriminator", "total_s")),
    "training.forward_batch.calls": ("count", ("training.forward_batch", "calls")),
    "training.forward_batch.rows_per_call": ("rows/call", None),
    "training.forward_batch.s": ("s", ("training.forward_batch", "self_s")),
    "training.evaluate_model.s": ("s", ("training.evaluate_model", "self_s")),
    "training.evaluate_model.total_s": ("s", ("training.evaluate_model", "total_s")),
    "numcore.backward.calls": ("count", ("numcore.backward", "calls")),
    "numcore.backward.s": ("s", ("numcore.backward", "self_s")),
    "numcore.ops_per_step": ("ops/step", None),
    "numcore.ops_per_item": ("ops/item", None),
    "numcore.clip_grad_norm.s": ("s", ("numcore.clip_grad_norm", "self_s")),
    "training.optim.step.s": ("s", ("training.optim.step", "self_s")),
    "training.load_model.s": ("s", ("training.load_model", "self_s")),
    "metrics.evaluate.s": ("s", ("metrics.evaluate", "self_s")),
    "numcore.grad_check.calls": ("count", ("numcore.grad_check", "calls")),
    "numcore.grad_check.s": ("s", ("numcore.grad_check", "self_s")),
    "numcore.grad_check_params.calls": ("count", ("numcore.grad_check_params", "calls")),
    "numcore.grad_check_params.s": ("s", ("numcore.grad_check_params", "self_s")),
    "trace.unit_s": ("s", None),
    "trace.overhead_ratio": ("ratio", None),
}


def import_fuselab() -> None:
    """Put this checkout's src/ first on the path and import fuselab from
    it; exit without a result when the sources are not there."""
    package = ROOT / "src" / "fuselab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fuselab sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import fuselab

    if Path(fuselab.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported fuselab from {fuselab.__file__}, "
                         f"not from {package}")


def environment() -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        os_threads = len(os.listdir("/proc/self/task"))
    except OSError:
        os_threads = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version")},
            "blas_thread_vars": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "os_threads": os_threads, "machine": platform.machine()}


def percentile(values, pct: int) -> float:
    """The pct-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100)[pct - 1]


def end_to_end(setup_times, windows, outcome) -> dict:
    """Timings at the nominal host speed: the median set-up; the items of
    a window over the median window time; the median and p90 of all the
    run's operation latencies."""
    if len({w.items for w in windows}) != 1:
        raise RuntimeError("the windows of a run handled different numbers of items")
    op_ms = [s * 1000.0 for w in windows for s in w.op_s]
    return {
        "setup_s": statistics.median(setup_times),
        "items_per_s": windows[0].items / statistics.median(w.wall_s for w in windows),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": percentile(op_ms, 90),
        "quality": outcome.quality,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary, ops, traced, untraced_walls) -> dict:
    def get(name, key):
        return summary[name][key] if name in summary else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    samples = traced.items if traced.steps else 0
    derived = {
        "layers.text_encoder.rows_per_sample":
            ratio(get("layers.text_encoder", "rows_outside_eval"), samples),
        "layers.text_encoder.calls_per_step":
            ratio(get("layers.text_encoder", "calls_outside_eval"), traced.steps),
        "layers.visual_encoder.rows_per_sample":
            ratio(get("layers.visual_encoder", "rows_outside_eval"), samples),
        "training.forward_batch.rows_per_call":
            ratio(get("training.forward_batch", "rows"), get("training.forward_batch", "calls")),
        "numcore.ops_per_step": ratio(ops[0], traced.steps),
        "numcore.ops_per_item": ratio(sum(ops), traced.items),
        "trace.unit_s": traced.wall_s,
        "trace.overhead_ratio": traced.wall_s / statistics.median(untraced_walls),
    }
    return {name: (derived[name] if key is None else get(*key))
            for name, (_, key) in PER_LAYER.items()}


def measure(workload, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    from tracing import Tracer

    timeline = workload.timeline
    workload.prepare(seed, workdir)
    setup_times, raw_setup = [], []   # at the nominal host speed; as measured

    def setup_round():
        start = time.perf_counter()
        timeline.read()
        repeats = 0
        while repeats < SETUP_ROUND_MIN or time.perf_counter() - start < SETUP_ROUND_S:
            gc.collect()   # every repeat starts from a collected heap, as a fresh process does
            began = time.perf_counter()
            timed = workload.setup()
            ended = time.perf_counter()
            timeline.read()
            scaled, measured = timed or (timeline.scaled(began, ended), ended - began)
            setup_times.append(scaled)
            raw_setup.append(measured)
            repeats += 1

    setup_round()
    workload.warm_up()

    # a traced run spends half its time on untraced units: the overhead base
    budget = seconds / 2 if trace else seconds
    min_units = 1 if trace else MIN_UNITS
    units = []
    since_setup = 0.0
    while len(units) < min_units or sum(u.wall_s for u in units) < budget:
        units.append(workload.unit())
        since_setup += units[-1].wall_s
        if since_setup >= SETUP_EVERY_S:
            setup_round()
            since_setup = 0.0
    if since_setup:
        setup_round()

    traced = None
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            timeline.paused = True
            tracer.trace_id = "setup"
            workload.setup()
            tracer.trace_id = "unit"
            traced = workload.unit()
        finally:
            timeline.paused = False
            tracer.uninstall()
    outcome = workload.finish()

    checked = units + ([traced] if traced else [])
    attempted = sum(u.attempted for u in checked) + outcome.attempted
    failed = sum(u.failed for u in checked) + outcome.failed
    if trace:
        summary = tracer.summary()
        values = per_layer(summary, tracer.ops, traced, [u.wall_s for u in units])
        units_of = {name: unit for name, (unit, _) in PER_LAYER.items()}
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"trace-{workload.name}-seed{seed}"
        tracer.write(stem.with_suffix(".jsonl"))
        stem.with_suffix(".layers.json").write_text(json.dumps(summary, indent=1))
    windows = [w for u in units for w in u.windows]
    if not trace:
        values = end_to_end(setup_times, windows, outcome)
        units_of = UNITS
    samples = {"setup_repeats": len(setup_times), "units": len(units),
               "unit_wall_s": [round(u.wall_s, 4) for u in units],
               "windows": len(windows),
               "op_samples": sum(len(w.op_s) for w in windows),
               "measured_setup_s": statistics.median(raw_setup),
               "measured_items_per_s":
                   windows[0].items / statistics.median(w.raw_wall_s for w in windows),
               "host_scale": statistics.median(w.wall_s / w.raw_wall_s for w in windows),
               "item": workload.item, "operation": workload.operation,
               **outcome.notes}
    return {
        "samples": samples,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units_of[name]}
                        for name, value in values.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_fuselab()
    from hostspeed import Timeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](ROOT, Timeline())
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"environment": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "samples": report["samples"]}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
