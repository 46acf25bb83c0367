"""Cross-module surfaces: precomputed-feature escape hatches, lexicon
directory override, entity-tuple classifier path."""

import shutil

import numpy as np
import pytest

from fuselab.datakit import (
    BINARY_SPACE,
    Dataset,
    Publication,
    Vocab,
    save_jsonl,
    load_jsonl,
)
from fuselab.exceptions import ConfigError, InputError
from fuselab.training import (
    ModelConfig,
    TrainConfig,
    build_model,
    evaluate_model,
    train,
)


def _feature_dataset(n=60, seed=0, dim=6):
    """Binary labels carried by a precomputed visual feature vector."""
    rng = np.random.default_rng(seed)
    pubs = []
    for i in range(n):
        label = int(rng.integers(2))
        features = rng.normal(size=dim) + (2.0 if label else -2.0)
        pubs.append(Publication(id=f"f{i}", label=("Hate" if label else "NoHate"),
                                text=f"post number {i % 5}",
                                visual_features=features))
    return Dataset(pubs, BINARY_SPACE)


class TestVisualFeatureEscapeHatch:
    def test_model_trains_on_precomputed_vectors(self):
        ds = _feature_dataset()
        vocab = Vocab.from_texts([p.text for p in ds])
        model = build_model(
            ModelConfig(input_modes="multimodal", fusion="concat", latent_dim=6,
                        embed_dim=4, hidden_dim=3, concat_projection=True,
                        fusion_out_dim=8, visual_feature_dim=6,
                        normalize_text=False, seed=1),
            ds.label_space, vocab)
        train(model, ds, TrainConfig(epochs=30, batch_size=20, seed=2))
        report = evaluate_model(model, ds)
        assert report.accuracy >= 0.9, report.accuracy

    def test_missing_feature_vector_rejected(self):
        ds = _feature_dataset(10)
        vocab = Vocab.from_texts([p.text for p in ds])
        model = build_model(
            ModelConfig(input_modes="visual", fusion=None, latent_dim=6,
                        visual_feature_dim=6, normalize_text=False),
            ds.label_space, vocab)
        with pytest.raises(InputError):
            model.predict(Publication(id="x", label="Hate", text="words only"))

    def test_wrong_feature_dim_rejected(self):
        ds = _feature_dataset(10, dim=6)
        vocab = Vocab.from_texts([p.text for p in ds])
        model = build_model(
            ModelConfig(input_modes="visual", fusion=None, latent_dim=6,
                        visual_feature_dim=9, normalize_text=False),
            ds.label_space, vocab)
        with pytest.raises(InputError):
            model.predict(ds[0])

    def test_feature_vectors_round_trip_jsonl(self, tmp_path):
        ds = _feature_dataset(8)
        path = tmp_path / "features.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path)
        for a, b in zip(ds, loaded):
            assert np.array_equal(a.visual_features, b.visual_features)


class TestEntityFeatureField:
    def test_entity_features_feed_the_classifier(self):
        rng = np.random.default_rng(4)
        pubs = []
        for i in range(40):
            label = int(rng.integers(2))
            pubs.append(Publication(
                id=f"e{i}", label=("Hate" if label else "NoHate"),
                text=f"neutral text {i % 3}",
                entity_features=np.array([3.0 if label else -3.0, 0.5])))
        ds = Dataset(pubs, BINARY_SPACE)
        vocab = Vocab.from_texts([p.text for p in ds])
        model = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=6,
                        embed_dim=4, hidden_dim=3, use_entity_tuple=False,
                        entity_feature_dim=2, normalize_text=False, seed=5),
            ds.label_space, vocab)
        train(model, ds, TrainConfig(epochs=40, batch_size=20, seed=6, lr=0.01))
        # the text is uninformative; only the entity features separate classes
        assert evaluate_model(model, ds).accuracy >= 0.9


class TestEntityTuplePath:
    def test_text_only_default_enables_tuple_and_widens_classifier(self):
        ds = _feature_dataset(10)
        vocab = Vocab.from_texts([p.text for p in ds])
        with_tuple = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=6,
                        embed_dim=4, hidden_dim=3, seed=1),
            ds.label_space, vocab)
        without = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=6,
                        embed_dim=4, hidden_dim=3, use_entity_tuple=False, seed=1),
            ds.label_space, vocab)
        assert with_tuple.config.wants_entity_tuple
        assert not without.config.wants_entity_tuple
        assert with_tuple.classifier.in_dim == without.classifier.in_dim + 4

    def test_mixed_length_batch_matches_per_sample_encoding(self):
        import fuselab.numcore as nc

        texts = ["one", "one two three", "one two", "one two three four five",
                 "three", "five four three two one"]
        pubs = [Publication(id=f"m{i}", label="Hate", text=t)
                for i, t in enumerate(texts)]
        ds = Dataset(pubs, BINARY_SPACE)
        vocab = Vocab.from_texts(texts)
        model = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=5,
                        embed_dim=4, hidden_dim=3, use_entity_tuple=False,
                        normalize_text=False, seed=7),
            ds.label_space, vocab)
        batched = model.encode(model.prepare(pubs))["text"]
        for row, pub in zip(batched.data, pubs):
            single = model.encode(model.prepare([pub]))["text"]
            assert np.allclose(row, single.data[0], atol=1e-12)

    def test_each_text_is_normalized_once_per_forward(self, monkeypatch):
        import fuselab.training.model as model_module

        pubs = [Publication(id="a", label="Hate", text="the dog chased a ball"),
                Publication(id="b", label="NoHate", text="hello @bob #sunny")]
        ds = Dataset(pubs, BINARY_SPACE)
        model = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=6,
                        embed_dim=4, hidden_dim=3, seed=2),
            ds.label_space, Vocab.from_texts([p.text for p in pubs]))
        assert model.config.normalize_text and model.config.wants_entity_tuple
        seen = []
        normalize = model_module.normalize
        monkeypatch.setattr(model_module, "normalize",
                            lambda text: seen.append(text) or normalize(text))
        model.forward_batch(model.prepare(pubs))
        assert seen == [p.full_text() for p in pubs]

    def test_tuple_path_predicts(self):
        pubs = [Publication(id="a", label="Hate", text="the dog chased a ball quickly"),
                Publication(id="b", label="NoHate", text="hello")]
        ds = Dataset(pubs, BINARY_SPACE)
        vocab = Vocab.from_texts([p.text for p in ds] + ["dog ball chased quickly"])
        model = build_model(
            ModelConfig(input_modes="text", fusion=None, latent_dim=6,
                        embed_dim=4, hidden_dim=3, seed=2),
            ds.label_space, vocab)
        dist, label = model.predict(pubs[0])
        assert abs(dist.sum() - 1.0) < 1e-9
        assert label in BINARY_SPACE.names


class TestLexiconOverride:
    def test_env_var_redirects_lexicon_loading(self, tmp_path, monkeypatch):
        from fuselab.textprep import lexicons as lex_mod
        from fuselab.textprep.lexicons import load_lexicons, lexicon_dir

        custom = tmp_path / "lex"
        custom.mkdir()
        shutil.copyfile(lex_mod._BUNDLED / "emoticons.tsv", custom / "emoticons.tsv")
        shutil.copyfile(lex_mod._BUNDLED / "typos.tsv", custom / "typos.tsv")
        shutil.copyfile(lex_mod._BUNDLED / "pos.tsv", custom / "pos.tsv")
        (custom / "words.tsv").write_text("zorp\t100\n", encoding="utf-8")

        monkeypatch.setenv("FUSELAB_LEXICON_DIR", str(custom))
        assert lexicon_dir() == custom
        loaded = load_lexicons()
        assert loaded.word_freq == {"zorp": 100}

    def test_env_var_to_missing_dir_is_config_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("FUSELAB_LEXICON_DIR", str(tmp_path / "missing"))
        from fuselab.textprep.lexicons import lexicon_dir

        with pytest.raises(ConfigError):
            lexicon_dir()
