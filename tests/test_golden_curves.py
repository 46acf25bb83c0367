"""Golden-curve pin: the first 20 training steps of every shipped config.

Each run is a config from `configs/` with a smaller `synthetic_n` (every
other setting as shipped), plus one GAN run that turns on the branches
no shipped config reaches: `fusion_loss_updates_encoders = true` and
`disc_steps = 2`. The committed files hold the `loss.csv` rows, the
adversarial and reconstruction parts of each step, and the test
macro-F1, all as `repr` floats, and are compared byte for byte.

A change that reorders float sums on purpose regenerates the files with
`PYTHONPATH=src python tests/test_golden_curves.py` and states the drift.
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

# run name -> (shipped config, synthetic_n, train overrides); each n
# gives at least STEPS steps over the config's own epochs
RUNS = {
    "xor-gan": ("xor-gan.ini", 160, {}),
    "xor-auto": ("xor-auto.ini", 160, {}),
    "xor-concat": ("xor-concat.ini", 160, {}),
    "text-only": ("text-only.ini", 200, {}),
    "xor-gan-e2e-k2": ("xor-gan.ini", 160,
                       {"fusion_loss_updates_encoders": True, "disc_steps": 2}),
}


def _curve(name: str) -> str:
    config_file, n, overrides = RUNS[name]
    config = load_experiment_config(ROOT / "configs" / config_file)
    config.data.synthetic = dataclasses.replace(config.data.synthetic, n=n)
    config.train = dataclasses.replace(config.train, **overrides)
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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for run in sorted(RUNS):
        (GOLDEN_DIR / f"{run}.csv").write_text(_curve(run), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / run}.csv")
