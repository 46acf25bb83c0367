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

    def test_dataset_header_without_label_space_exits_two(self, tmp_path, capsys):
        data = tmp_path / "ds.jsonl"
        rec = {"id": "a", "label": "0", "text": "x"}
        data.write_text(json.dumps({"_schema": "fuselab/publications@1"}) + "\n"
                        + json.dumps(rec) + "\n")
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "synthetic_task = xor-crossmodal\nsynthetic_n = 400", f"path = {data}")
        config = _write_config(tmp_path, body=body)
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"{data}:1:" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_divergence_exits_three(self, tmp_path, capsys):
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "fusion = concat", "fusion = auto").replace(
            "[train]", "[train]\nlr = 1e160")
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

    def test_empty_test_split_exits_two_before_training(self, tmp_path, capsys,
                                                        monkeypatch):
        from fuselab import experiment

        trained = []
        monkeypatch.setattr(experiment, "train", lambda *args, **kw: trained.append(1))
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "synthetic_n = 400", "synthetic_n = 400\nsplit = 0.9,0.1,0")
        config = _write_config(tmp_path, body=body)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        assert "test split is empty" in capsys.readouterr().err
        assert not trained

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
                        hidden_dim=3, normalize_text=False),
            multi.merged_binary().label_space, vocab)
        model_path = tmp_path / "binary.fuse"
        save_model(model, model_path)

        assert main(["eval", "--model", str(model_path), "--data", str(multi_path),
                     "--binarize"]) == 0
        via_flag = capsys.readouterr().out
        assert main(["eval", "--model", str(model_path), "--data", str(merged_path)]) == 0
        premerged = capsys.readouterr().out
        assert via_flag == premerged


class TestGridChannels:
    """No config key sets the grid channel count: training reads it from
    the training grids, and a grid with another count, or another height
    or width than the rest of its dataset, is an input error that names
    its publication."""

    @staticmethod
    def _write(path, channels):
        """The xor set with each grid repeated to channels(pub id) channels."""
        from fuselab.datakit import SyntheticSpec, generate_synthetic, save_jsonl

        ds = generate_synthetic(SyntheticSpec(task="xor-crossmodal", n=60, seed=2))
        for pub in ds:
            pub.visual = np.repeat(pub.visual, channels(pub.id), axis=2)
        save_jsonl(ds, path)
        return ds

    @staticmethod
    def _train(tmp_path, data, name):
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "synthetic_task = xor-crossmodal\nsynthetic_n = 400", f"path = {data}")
        config = _write_config(tmp_path, name=f"{name}.ini", body=body)
        return main(["train", "--config", str(config), "--out", str(tmp_path / name)])

    def test_train_reads_three_channel_grids(self, tmp_path, capsys):
        from fuselab.training import load_model

        data = tmp_path / "rgb.jsonl"
        self._write(data, lambda _: 3)
        assert self._train(tmp_path, data, "rgb") == 0
        model_path = tmp_path / "rgb" / "model.fuse"
        assert load_model(model_path).config.in_channels == 3
        assert main(["eval", "--model", str(model_path), "--data", str(data)]) == 0

    def test_grid_with_another_channel_count_exits_two(self, tmp_path, capsys):
        rgb = tmp_path / "rgb.jsonl"
        odd = self._write(rgb, lambda _: 3).publications[5].id
        assert self._train(tmp_path, rgb, "rgb") == 0
        mixed = tmp_path / "mixed.jsonl"
        self._write(mixed, lambda pub_id: 1 if pub_id == odd else 3)
        capsys.readouterr()
        model_path = tmp_path / "rgb" / "model.fuse"
        assert main(["eval", "--model", str(model_path), "--data", str(mixed)]) == 2
        err = capsys.readouterr().err
        assert f"publication {odd}: visual grid has 1 channels" in err
        assert self._train(tmp_path, mixed, "mixed") == 2
        assert "channels, the model reads" in capsys.readouterr().err

    def test_grids_of_two_shapes_exit_two(self, tmp_path, capsys):
        from fuselab.datakit import save_jsonl

        data = tmp_path / "wide.jsonl"
        ds = self._write(data, lambda _: 1)
        wide = ds.publications[5]
        wide.visual = np.pad(wide.visual, ((0, 2), (0, 2), (0, 0)))
        save_jsonl(ds, data)
        assert self._train(tmp_path, data, "wide") == 2
        err = capsys.readouterr().err
        assert "visual grid is" in err and f"publication {wide.id}" in err


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

    def test_failed_allocation_exits_two(self, tmp_path, capsys, monkeypatch):
        """A request larger than memory, such as a huge --grid, is an error
        line and exit 2, not a traceback."""
        from fuselab import cli

        def too_large(spec):
            raise MemoryError("Unable to allocate 74.5 GiB")

        monkeypatch.setattr(cli, "generate_synthetic", too_large)
        assert main(["synth", "--task", "xor-crossmodal", "--n", "4", "--grid", "100000",
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 74.5 GiB\n"


class TestGradcheckCommand:
    def test_passes_at_default_tolerance(self, capsys):
        assert main(["gradcheck", "--tol", "1e-4"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["gradcheck", "--tol", "1e-18"]) == 1

    @pytest.mark.parametrize("flag, value, name", [
        ("--step", "0", "step h"), ("--step", "-0.001", "step h"),
        ("--step", "inf", "step h"), ("--tol", "nan", "tolerance tol"),
        ("--tol", "-1", "tolerance tol"), ("--tol", "0", "tolerance tol")])
    def test_invalid_step_or_tolerance_exits_two(self, capsys, flag, value, name):
        assert main(["gradcheck", flag, value]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and f"{name} must be finite and positive" in err


class TestConfigParsing:
    def test_shipped_example_configs_parse(self):
        import pathlib

        configs = sorted((pathlib.Path(__file__).parent.parent / "configs").glob("*.ini"))
        assert len(configs) >= 4
        for path in configs:
            config = load_experiment_config(path)
            assert config.seed == 1

    # Keys earlier configs could set, by section; README's "Removed keys"
    # paragraph names each one.
    REMOVED = {"model": ("saturating_gan = true", "concat_projection = true",
                         "visual_feature_dim = 6", "entity_feature_dim = 2",
                         "noise_dim = 3", "use_entity_tuple = true",
                         "append_raw_latents = true"),
               "data": ("synthetic_noise = 0.1", "synthetic_grid = 14",
                        "synthetic_seq_len = 7"),
               "train": ("patience = 3", "disc_lr = 0.02", "clip_norm = 1.0",
                         "class_weights = 1,2", "optimizer = sgd", "disc_steps = 2",
                         "lambda = 0.5", "fusion_loss_updates_encoders = false"),
               "eval": ("metrics_path = metrics.json",)}

    def test_unknown_key_is_hard_error(self, tmp_path):
        """A typo, and each removed key (the [eval] section included), fails
        parsing with the key's name and exits 2."""
        base = CONFIG_TEMPLATE.format(seed=1)
        cases = [("lerning_rate", base + "\nlerning_rate = 0.1\n"),
                 ("threads", base + "\n[eval]\nthreads = 4\n")]
        for section, lines in self.REMOVED.items():
            for line in lines:
                body = (base.replace(f"[{section}]\n", f"[{section}]\n{line}\n")
                        if f"[{section}]" in base else base + f"\n[{section}]\n{line}\n")
                cases.append((line.split(" = ")[0], body))
        for key, body in cases:
            path = _write_config(tmp_path, body=body)
            with pytest.raises(ConfigError) as exc:
                load_experiment_config(path)
            assert key in str(exc.value)
            assert main(["train", "--config", str(path),
                         "--out", str(tmp_path / "out")]) == 2

    def test_readme_names_every_removed_key(self):
        import pathlib

        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        paragraph = readme.split("**Removed keys.**", 1)[1].split("\n\n", 1)[0]
        for section, lines in self.REMOVED.items():
            for line in lines:
                assert f"`{line.split(' = ')[0]}`" in paragraph, line
        assert "`[eval]`" in paragraph

    @pytest.mark.parametrize("section, line", [
        ("experiment", "seed = -1"),
        ("data", "split = nan,0.1,0.1"),
        ("data", "split = -1,1,1"),
        ("model", "visual_channels = 0,0"),
        ("model", "fusion_out_dim = 0"),
        ("model", "vocab_size = 2"),
        ("train", "lr = nan"),
        ("train", "lr = inf"),
    ])
    def test_out_of_range_value_exits_two_naming_its_key(self, tmp_path, capsys,
                                                         section, line):
        """A value that parses but cannot run is a config error naming the
        file, section and key, not a traceback."""
        key = line.split(" = ")[0]
        base = CONFIG_TEMPLATE.format(seed=1)
        kept = [row for row in base.splitlines() if not row.startswith(f"{key} =")]
        body = "\n".join(kept).replace(f"[{section}]", f"[{section}]\n{line}") + "\n"
        path = _write_config(tmp_path, body=body)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: [{section}] " in err and key in err
        assert "Traceback" not in err

    def test_synthetic_key_without_task_is_hard_error(self, tmp_path):
        body = CONFIG_TEMPLATE.format(seed=1).replace(
            "synthetic_task = xor-crossmodal\n", "path = pubs.jsonl\n")
        path = _write_config(tmp_path, body=body)
        with pytest.raises(ConfigError, match=r"\[data\] synthetic_n"):
            load_experiment_config(path)

    def test_readme_config_block_names_every_key(self):
        """README's example config names, set or in a comment, every key each
        section accepts and no other."""
        import pathlib

        from fuselab import config as config_module

        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(
            encoding="utf-8")
        block = readme.split("### Experiment config", 1)[1]
        block = block.split("```ini\n", 1)[1].split("```", 1)[0]
        named, section = {}, None
        for line in block.splitlines():
            text = line.lstrip("; ").split(";")[0].strip()  # drop the inline comment
            if text.startswith("["):
                section = text.strip("[]")
                named[section] = set()
            elif "=" in text:
                named[section].add(text.split("=")[0].strip())
            elif text:
                named[section].update(key.strip() for key in text.split(","))
        assert named == {name: set(keys) for name, keys in config_module._SECTIONS.items()}

    @pytest.mark.parametrize("section, line, edited", [
        ("data", "synthetic_n = 400", "synthetic_n = 0"),
        ("train", "epochs = 2", "epochs = 0"),
    ], ids=["data", "train"])
    def test_range_error_names_file_and_section(self, tmp_path, section, line, edited):
        path = _write_config(tmp_path, body=CONFIG_TEMPLATE.format(seed=1).replace(
            line, edited))
        with pytest.raises(ConfigError) as exc:
            load_experiment_config(path)
        assert str(exc.value).startswith(f"{path}: [{section}] ")
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

    @pytest.mark.parametrize("modes", ["text", "visual"])
    def test_fusion_out_dim_rejected_for_unimodal(self, tmp_path, capsys, modes):
        """A unimodal model has no fusion output, so the key would be parsed
        and then ignored: it exits 2 naming the key instead."""
        body = (CONFIG_TEMPLATE.format(seed=1)
                .replace("input_modes = multimodal", f"input_modes = {modes}")
                .replace("fusion = concat\n", "")
                .replace("fusion_out_dim = 12", "fusion_out_dim = 5"))
        path = _write_config(tmp_path, body=body)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: [model] fusion_out_dim: not applicable to {modes}-only" in err
        assert not (tmp_path / "o").exists()

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

    # A valid non-default value for every key a config may set, and the key
    # each one displaces from the base config below (the data source, or the
    # fusion a unimodal model may not name).
    KNOBS = {
        "model": {"input_modes": "visual", "fusion": "gan", "latent_dim": "16",
                  "embed_dim": "8", "hidden_dim": "6", "visual_channels": "4,6",
                  "fusion_out_dim": "12", "normalize_text": "false", "vocab_size": "50"},
        "data": {"path": "pubs.jsonl", "synthetic_task": "unimodal-separable",
                 "synthetic_n": "30", "split": "0.6,0.2,0.2", "binarize": "true"},
        "train": {"epochs": "7", "batch_size": "8", "lr": "0.05"},
    }
    DISPLACES = {"input_modes": ("model", "fusion"), "path": ("data", "synthetic_task")}

    def test_every_key_reaches_the_config(self, tmp_path):
        """Each key changes the parsed config: none is parsed and then ignored."""
        import dataclasses

        from fuselab import config as config_module

        assert {s: set(keys) for s, keys in self.KNOBS.items()} == {
            "model": config_module._MODEL_KEYS, "data": config_module._DATA_KEYS,
            "train": config_module._TRAIN_KEYS}

        def parsed(sections):
            body = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                           for name, keys in sections.items())
            path = _write_config(tmp_path, body=body)
            return dataclasses.replace(load_experiment_config(path), source_path=None)

        base = {"experiment": {"seed": "1"}, "model": {"fusion": "concat"},
                "data": {"synthetic_task": "xor-crossmodal"}, "train": {}}
        unset = parsed(base)
        for section, knobs in self.KNOBS.items():
            for key, value in knobs.items():
                sections = {name: dict(keys) for name, keys in base.items()}
                sections[section][key] = value
                if key in self.DISPLACES:
                    other_section, other = self.DISPLACES[key]
                    del sections[other_section][other]
                assert parsed(sections) != unset, (section, key)
