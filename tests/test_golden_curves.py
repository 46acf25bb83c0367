"""Golden-curve pin: the first 20 training steps of every shipped config,
and the number of graph nodes each of their training steps records.

Each run is a config from `configs/` with a smaller `synthetic_n` (every
other setting as shipped). The committed files hold the `loss.csv` rows, the adversarial and
reconstruction parts of each step, and the test macro-F1, all as `repr`
floats, and are compared byte for byte. Every file in `golden/` is a
run's.

A change that reorders float sums on purpose regenerates the files with
`PYTHONPATH=src python tests/test_golden_curves.py` and states the drift.
That command prints, before it overwrites a file, the max abs and rel
drift of each column against the committed file and whether
`test_macro_f1` changed: the lines to copy into CHANGES.md. It also
deletes, and names, any file in `golden/` whose run has left RUNS.
"""

import dataclasses
from pathlib import Path

import pytest

from fuselab.config import load_experiment_config
from fuselab.experiment import run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
STEPS = 20
PART_KEYS = ("j_adv_t", "j_adv_v", "gen_term", "j_auto")

# run name -> (shipped config, synthetic_n); each n gives at least STEPS
# steps over the config's own epochs
RUNS = {
    "xor-gan": ("xor-gan.ini", 160),
    "xor-auto": ("xor-auto.ini", 160),
    "xor-concat": ("xor-concat.ini", 160),
    "text-only": ("text-only.ini", 200),
}


def _curve(name: str) -> str:
    config_file, n = RUNS[name]
    config = load_experiment_config(ROOT / "configs" / config_file)
    config.data.synthetic = dataclasses.replace(config.data.synthetic, n=n)
    result = run_experiment(config)
    curves = result.train_result.curves
    assert len(curves) >= STEPS, (name, len(curves))
    lines = ["step,J_C,J_F,J," + ",".join(PART_KEYS)]
    for report in curves[:STEPS]:
        parts = ",".join(repr(report.parts[k]) if k in report.parts else ""
                         for k in PART_KEYS)
        lines.append(f"{report.csv_row()},{parts}")
    lines.append(f"test_macro_f1,{result.report.macro_f1!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_first_steps_match_golden(name):
    expected = (GOLDEN_DIR / f"{name}.csv").read_text(encoding="utf-8")
    assert _curve(name) == expected


def test_every_golden_file_is_a_run():
    """A renamed or deleted run leaves no golden file behind."""
    assert sorted(path.stem for path in GOLDEN_DIR.glob("*.csv")) == sorted(RUNS)


# Graph nodes a training step records, per shipped config: every op's
# Tensor._from_op call in one _train_step, the discriminator step
# included. A change to the graph's size restates its count here.
OPS_PER_STEP = {"xor-gan.ini": 63, "xor-auto.ini": 28, "xor-concat.ini": 21,
                "text-only.ini": 20}


@pytest.mark.parametrize("config_file", sorted(OPS_PER_STEP))
def test_ops_per_training_step_match_budget(monkeypatch, config_file):
    from fuselab.numcore import Tensor
    from fuselab.training import loop

    ops, steps = [0], []
    from_op, train_step = Tensor._from_op.__func__, loop._train_step

    def counted_from_op(cls, *args, **kwargs):
        ops[0] += 1
        return from_op(cls, *args, **kwargs)

    def counted_step(*args, **kwargs):  # validation and test inference go uncounted
        before = ops[0]
        report = train_step(*args, **kwargs)
        steps.append(ops[0] - before)
        return report

    monkeypatch.setattr(Tensor, "_from_op", classmethod(counted_from_op))
    monkeypatch.setattr(loop, "_train_step", counted_step)
    config = load_experiment_config(ROOT / "configs" / config_file)
    config.data.synthetic = dataclasses.replace(config.data.synthetic, n=80)
    config.train = dataclasses.replace(config.train, epochs=1)
    run_experiment(config)
    assert len(steps) == 2
    assert steps == [OPS_PER_STEP[config_file]] * len(steps), steps


# Nodes with a backward that one xor-gan discriminator step records: the
# discriminators' layers and the loss. The generators run without a
# graph, since the step's backward names discriminator parameters only.
DISC_STEP_NODES = 14


def test_discriminator_step_records_no_generator_node(monkeypatch):
    from fuselab.numcore import Tensor
    from fuselab.training import loop

    made, steps = [], []
    from_op, step_discriminator = Tensor._from_op.__func__, loop.step_discriminator

    def recorded_from_op(cls, *args, **kwargs):
        out = from_op(cls, *args, **kwargs)
        made.append(out)
        return out

    def recorded_step(*args, **kwargs):
        made.clear()
        step_discriminator(*args, **kwargs)
        steps.append(sum(t._backward is not None for t in made))

    monkeypatch.setattr(Tensor, "_from_op", classmethod(recorded_from_op))
    monkeypatch.setattr(loop, "step_discriminator", recorded_step)
    config = load_experiment_config(ROOT / "configs" / "xor-gan.ini")
    config.data.synthetic = dataclasses.replace(config.data.synthetic, n=80)
    config.train = dataclasses.replace(config.train, epochs=1)
    run_experiment(config)
    assert steps == [DISC_STEP_NODES] * 2, steps


def _columns(text: str) -> dict:
    """A golden file as column name -> values (None where a part is
    absent); test_macro_f1 is its own one-value column."""
    lines = text.splitlines()
    names = lines[0].split(",")
    cols = {name: [] for name in names}
    for line in lines[1:]:
        if line.startswith("test_macro_f1,"):
            cols["test_macro_f1"] = [float(line.split(",")[1])]
            continue
        for name, cell in zip(names, line.split(",")):
            cols[name].append(float(cell) if cell else None)
    return cols


def _drift(old: str, new: str) -> str:
    """One line per column of new: the max abs and rel difference from
    old over the steps (rel against |old|), or that they cannot be
    compared."""
    before, after = _columns(old), _columns(new)
    out = []
    for name, values in after.items():
        if name == "step":
            continue
        was = before.get(name)
        if was is None or [a is None for a in was] != [b is None for b in values]:
            out.append(f"  {name}: not comparable (the column or its rows changed)")
            continue
        pairs = [(a, b) for a, b in zip(was, values) if a is not None]
        if name == "test_macro_f1":
            (a, b), = pairs
            out.append(f"  test_macro_f1: {'unchanged' if a == b else 'changed'}"
                       f" ({a!r} -> {b!r})")
        elif pairs:
            dabs = max(abs(b - a) for a, b in pairs)
            drel = max(abs(b - a) / abs(a) if a else (0.0 if a == b else float("inf"))
                       for a, b in pairs)
            out.append(f"  {name}: max abs {dabs:.2g}, max rel {drel:.2g}")
    return "\n".join(out)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path in sorted(GOLDEN_DIR.glob("*.csv")):
        if path.stem not in RUNS:
            path.unlink()
            print(f"deleted {path.relative_to(ROOT)}: no run in RUNS")
    for run in sorted(RUNS):
        path = GOLDEN_DIR / f"{run}.csv"
        text = _curve(run)
        if path.exists():
            old = path.read_text(encoding="utf-8")
            print(f"{path.name}: " + ("byte-identical" if old == text
                                      else "drift against the committed file\n"
                                      + _drift(old, text)))
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
