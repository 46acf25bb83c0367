"""Cross-module surfaces: package exports, bundled lexicons, entity-tuple
classifier path."""

import importlib
import shutil

import numpy as np
import pytest

from fuselab import numcore as nc
from fuselab.datakit import BINARY_SPACE, Dataset, Publication, Vocab
from fuselab.exceptions import ConfigError
from fuselab.training import ModelConfig, build_model, predict_dataset


@pytest.mark.parametrize("package", ["fuselab.numcore", "fuselab.training",
                                     "fuselab.textprep"])
def test_every_export_resolves_and_is_listed_once(package):
    """A name deleted from a package but left in its __all__ would break
    `from package import *`."""
    module = importlib.import_module(package)
    names = module.__all__
    assert len(set(names)) == len(names), "a name is listed twice"
    assert [name for name in names if not hasattr(module, name)] == []
    star = {}
    exec(f"from {package} import *", star)
    assert set(names) <= set(star)


class TestEntityTuplePath:
    def test_text_only_default_enables_tuple_and_widens_classifier(self):
        """The tuple path runs exactly for text-only models, and widens
        their classifier input by one embedding."""
        pubs = [Publication(id=f"p{i}", label=("Hate" if i % 2 else "NoHate"),
                            text=f"post number {i % 5}") for i in range(10)]
        ds = Dataset(pubs, BINARY_SPACE)
        vocab = Vocab.from_texts([p.text for p in ds])
        dims = dict(latent_dim=6, embed_dim=4, hidden_dim=3, seed=1)
        with_tuple = build_model(ModelConfig(input_modes="text", fusion=None, **dims),
                                 ds.label_space, vocab)
        assert with_tuple.config.wants_entity_tuple
        assert with_tuple.classifier.in_dim == 6 + 4
        for modes, fusion, in_dim in (("visual", None, 6), ("multimodal", "auto", 6),
                                      ("multimodal", "concat", 6)):
            without = ModelConfig(input_modes=modes, fusion=fusion, **dims)
            assert not without.wants_entity_tuple
            assert build_model(without, ds.label_space, vocab).classifier.in_dim == in_dim

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
                        embed_dim=4, hidden_dim=3, normalize_text=False, seed=7),
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
        with nc.no_graph():
            probs, _ = model.forward_batch(model.prepare(pubs[:1]))
        assert abs(probs.data.sum() - 1.0) < 1e-9
        truths, preds = predict_dataset(model, Dataset(pubs[:1], BINARY_SPACE))
        assert truths == ["Hate"] and preds[0] in BINARY_SPACE.names


class TestLexiconOverride:
    """Nothing overrides the bundled TSVs; load_lexicons still checks
    their content, since a developer edits them by hand."""

    POST = "sooo happpy #lovewins @bob !"

    @pytest.mark.parametrize("emoticon", ["^ ^", "", "　:)"])
    def test_emoticon_that_is_not_one_chunk_is_config_error(self, tmp_path, monkeypatch,
                                                           emoticon):
        from fuselab.textprep import lexicons as lex_mod

        for name in ("words.tsv", "typos.tsv", "pos.tsv"):
            shutil.copyfile(lex_mod._BUNDLED / name, tmp_path / name)
        (tmp_path / "emoticons.tsv").write_text(f":)\tsmile\n{emoticon}\tjoy\n",
                                                encoding="utf-8")
        monkeypatch.setattr(lex_mod, "_BUNDLED", tmp_path)
        with pytest.raises(ConfigError, match="emoticons.tsv"):
            lex_mod.load_lexicons()

    def test_negative_word_frequency_is_config_error(self, tmp_path, monkeypatch):
        from fuselab.textprep import lexicons as lex_mod

        for name in ("emoticons.tsv", "typos.tsv", "pos.tsv"):
            shutil.copyfile(lex_mod._BUNDLED / name, tmp_path / name)
        (tmp_path / "words.tsv").write_text("zorp\t100\nblip\t-3\n", encoding="utf-8")
        monkeypatch.setattr(lex_mod, "_BUNDLED", tmp_path)
        with pytest.raises(ConfigError, match="words.tsv.*'blip'"):
            lex_mod.load_lexicons()

    def test_lexicon_dir_variable_is_inert(self, tmp_path, monkeypatch):
        """FUSELAB_LEXICON_DIR no longer picks the lexicons: neither a
        missing directory nor a one-word words.tsv changes the tokens."""
        from fuselab.textprep import lexicons as lex_mod
        from fuselab.textprep import normalize

        monkeypatch.delenv("FUSELAB_LEXICON_DIR", raising=False)
        monkeypatch.setattr(lex_mod, "_default", None)
        want = normalize(self.POST).render()
        assert want == "so happy [hashtag] love win s [/hashtag] [user] bob [/user]"

        custom = tmp_path / "lex"
        custom.mkdir()
        for name in ("emoticons.tsv", "typos.tsv", "pos.tsv"):
            shutil.copyfile(lex_mod._BUNDLED / name, custom / name)
        (custom / "words.tsv").write_text("zorp\t100\n", encoding="utf-8")
        for directory in (tmp_path / "missing", custom):
            monkeypatch.setenv("FUSELAB_LEXICON_DIR", str(directory))
            monkeypatch.setattr(lex_mod, "_default", None)
            assert normalize(self.POST).render() == want, directory
