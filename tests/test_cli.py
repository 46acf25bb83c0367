"""Command-line contract: artifacts, exit codes, determinism."""

import json
import numpy as np
import pytest

from fuselab.cli import main
from fuselab.config import load_experiment_config
from fuselab.exceptions import ConfigError
from fuselab.training import build_model

GOLDEN_IN = "@fiery_eyes, this is soooo coool borther! ;) #coolforever"
GOLDEN_OUT = ("[user] fiery_eyes [/user] this is so cool brother! [wink] "
              "[hashtag] cool forever [/hashtag]")

CONFIG_TEMPLATE = """\
[experiment]
seed = {seed}

[model]
input_modes = multimodal
fusion = concat
latent_dim = 10
embed_dim = 8
hidden_dim = 5
visual_channels = 4,6
fusion_out_dim = 12
concat_projection = true
normalize_text = false

[data]
synthetic_task = xor-crossmodal
synthetic_n = 400

[train]
epochs = 2
batch_size = 32
"""


def _write_config(tmp_path, seed=1, name="exp.ini", body=None):
    path = tmp_path / name
    path.write_text(body or CONFIG_TEMPLATE.format(seed=seed), encoding="utf-8")
    return path


class TestTrainCommand:
    def test_writes_artifacts_and_exits_zero(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        for artifact in ("model.fuse", "loss.csv", "metrics.txt", "metrics.csv"):
            assert (out / artifact).exists(), artifact
        loss_lines = (out / "loss.csv").read_text().splitlines()
        assert loss_lines[0] == "step,J_C,J_F,J"
        assert len(loss_lines) > 10

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.ini"),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_exits_three(self, tmp_path, capsys):
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "fusion = concat", "fusion = auto").replace(
            "concat_projection = true", "").replace(
            "[train]", "[train]\noptimizer = sgd\nlr = 1e160\nclip_norm = 0")
        config = _write_config(tmp_path, body=body)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "d")])
        assert code == 3

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_recurrent_gates_exit_three(self, tmp_path, capsys, monkeypatch):
        from fuselab import experiment

        def poisoned_model(*args, **kwargs):
            model = build_model(*args, **kwargs)
            model.text_encoder.embedding.matrix.data[...] = 1e308
            model.text_encoder.fwd["w"].data[...] = 1.0
            return model

        monkeypatch.setattr(experiment, "build_model", poisoned_model)
        config = _write_config(tmp_path)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "d")])
        assert code == 3
        assert "step 0" in capsys.readouterr().err

    def test_identical_invocations_identical_outputs(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["train", "--config", str(config), "--out", str(out1)]) == 0
        assert main(["train", "--config", str(config), "--out", str(out2)]) == 0
        assert (out1 / "loss.csv").read_bytes() == (out2 / "loss.csv").read_bytes()
        assert (out1 / "metrics.txt").read_bytes() == (out2 / "metrics.txt").read_bytes()
        assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
        assert (out1 / "model.fuse").read_bytes() == (out2 / "model.fuse").read_bytes()


class TestEvalCommand:
    def _trained(self, tmp_path, capsys):
        config = _write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        return out / "model.fuse"

    def test_eval_reproduces_training_test_metrics(self, tmp_path, capsys):
        # eval on the same full dataset is the same computation path
        model = self._trained(tmp_path, capsys)
        data = tmp_path / "ds.jsonl"
        assert main(["synth", "--task", "xor-crossmodal", "--n", "120",
                     "--seed", "9", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(model), "--data", str(data)]) == 0
        assert "Fusion type" in capsys.readouterr().out

    def test_label_space_mismatch_exits_two(self, tmp_path, capsys):
        model = self._trained(tmp_path, capsys)
        bad = tmp_path / "bad.jsonl"
        header = {"_schema": "fuselab/publications@1",
                  "label_space": {"names": ["Hate", "NoHate"], "mode": "binary"}}
        rec = {"id": "a", "label": "Hate", "text": "x"}
        bad.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
        assert main(["eval", "--model", str(model), "--data", str(bad)]) == 2

    def test_empty_dataset_exits_two(self, tmp_path, capsys):
        model = self._trained(tmp_path, capsys)
        empty = tmp_path / "empty.jsonl"
        header = {"_schema": "fuselab/publications@1",
                  "label_space": {"names": ["0", "1"], "mode": "binary"}}
        empty.write_text(json.dumps(header) + "\n")
        assert main(["eval", "--model", str(model), "--data", str(empty)]) == 2

    def test_missing_data_file_exits_two(self, tmp_path, capsys):
        model = self._trained(tmp_path, capsys)
        assert main(["eval", "--model", str(model),
                     "--data", str(tmp_path / "ghost.jsonl")]) == 2

    def test_out_flag_writes_table_and_csv_twin(self, tmp_path, capsys):
        model = self._trained(tmp_path, capsys)
        data = tmp_path / "ds.jsonl"
        assert main(["synth", "--task", "xor-crossmodal", "--n", "40",
                     "--seed", "3", "--out", str(data)]) == 0
        report = tmp_path / "report.txt"
        assert main(["eval", "--model", str(model), "--data", str(data),
                     "--out", str(report)]) == 0
        capsys.readouterr()
        assert report.exists()
        csv_twin = report.with_suffix(".csv")
        assert csv_twin.exists()
        assert csv_twin.read_text().startswith("Model,Input modes,Fusion type")

    def test_binarize_equals_premerged(self, tmp_path, capsys):
        """--binarize on a multi-class dataset scores the same as a
        pre-merged copy of that dataset."""
        from fuselab.datakit import (
            HATE_SPEECH_SPACE, Dataset, Publication, save_jsonl,
        )
        from fuselab.training import ModelConfig, build_model, save_model
        from fuselab.datakit import Vocab

        rng = np.random.default_rng(3)
        names = HATE_SPEECH_SPACE.names
        pubs = [Publication(id=f"p{i}", label=names[rng.integers(len(names))],
                            text=f"sample text {i % 7}")
                for i in range(40)]
        multi = Dataset(pubs, HATE_SPEECH_SPACE)
        multi_path = tmp_path / "multi.jsonl"
        save_jsonl(multi, multi_path)
        merged_path = tmp_path / "merged.jsonl"
        save_jsonl(multi.merged_binary(), merged_path)

        vocab = Vocab.from_texts([p.text for p in pubs])
        model = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=6, embed_dim=4,
                        hidden_dim=3, use_entity_tuple=False, normalize_text=False),
            multi.merged_binary().label_space, vocab)
        model_path = tmp_path / "binary.fuse"
        save_model(model, model_path)

        assert main(["eval", "--model", str(model_path), "--data", str(multi_path),
                     "--binarize"]) == 0
        via_flag = capsys.readouterr().out
        assert main(["eval", "--model", str(model_path), "--data", str(merged_path)]) == 0
        premerged = capsys.readouterr().out
        assert via_flag == premerged


class TestNormalizeCommand:
    def test_golden_sentence_through_cli(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text(GOLDEN_IN + "\n", encoding="utf-8")
        assert main(["normalize", "--in", str(src)]) == 0
        assert capsys.readouterr().out == GOLDEN_OUT + "\n"

    def test_writes_output_file(self, tmp_path, capsys):
        src = tmp_path / "raw.txt"
        src.write_text("wooow!!\nthe cat sat\n", encoding="utf-8")
        dst = tmp_path / "clean.txt"
        assert main(["normalize", "--in", str(src), "--out", str(dst)]) == 0
        assert dst.read_text() == "wow!!\nthe cat sat\n"

    def test_missing_input_exits_two(self, tmp_path, capsys):
        assert main(["normalize", "--in", str(tmp_path / "nope.txt")]) == 2


class TestSynthCommand:
    def test_same_seed_byte_identical_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["synth", "--task", "xor-crossmodal", "--n", "40", "--seed", "42"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_spec_exits_two(self, tmp_path, capsys):
        assert main(["synth", "--task", "xor-crossmodal", "--n", "0",
                     "--out", str(tmp_path / "x.jsonl")]) == 2


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck", "--tol", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--tol", "1e-18"]) == 1


class TestConfigParsing:
    def test_shipped_example_configs_parse(self):
        import pathlib

        configs = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.ini"))
        assert len(configs) >= 4
        for path in configs:
            config = load_experiment_config(path)
            assert config.seed == 1

    def test_unknown_key_is_hard_error(self, tmp_path):
        # [eval] threads is a removed key: a config that still sets it fails
        for key, extra in (("lerning_rate", "\nlerning_rate = 0.1\n"),
                           ("threads", "\n[eval]\nthreads = 4\n")):
            path = _write_config(tmp_path, body=CONFIG_TEMPLATE.format(seed=1) + extra)
            with pytest.raises(ConfigError) as exc:
                load_experiment_config(path)
            assert key in str(exc.value)
            assert main(["train", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2

    def test_unknown_section_is_hard_error(self, tmp_path):
        body = CONFIG_TEMPLATE.format(seed=1) + "\n[modle]\nx = 1\n"
        path = _write_config(tmp_path, body=body)
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    def test_fusion_required_for_multimodal(self, tmp_path):
        body = CONFIG_TEMPLATE.format(seed=1).replace("fusion = concat\n", "")
        path = _write_config(tmp_path, body=body)
        with pytest.raises(ConfigError) as exc:
            load_experiment_config(path)
        assert "fusion" in str(exc.value)

    def test_fusion_rejected_for_unimodal(self, tmp_path):
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "input_modes = multimodal", "input_modes = text")
        path = _write_config(tmp_path, body=body)
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    def test_data_source_required(self, tmp_path):
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "synthetic_task = xor-crossmodal\n", "")
        path = _write_config(tmp_path, body=body)
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    def test_seed_threads_through(self, tmp_path):
        path = _write_config(tmp_path, seed=77)
        config = load_experiment_config(path)
        assert config.seed == 77
        assert config.model.seed == 77
        assert config.train.seed == 77
        assert config.data.synthetic.seed == 77

    def test_inline_comments_are_stripped(self, tmp_path):
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "fusion = concat", "fusion = concat   ; concat | auto | gan")
        path = _write_config(tmp_path, body=body)
        config = load_experiment_config(path)
        assert config.model.fusion == "concat"
