"""Schema, IO, label merging, synthetic generators, splits."""

import json
import math
from typing import Tuple

import numpy as np
import pytest

from fuselab.datakit import (
    BINARY_SPACE,
    DEFAULT_VOCAB,
    HATE_SPEECH_SPACE,
    BatchStream,
    Dataset,
    LabelSpace,
    Publication,
    SyntheticSpec,
    Vocab,
    generate_synthetic,
    load_jsonl,
    merge_to_binary,
    save_jsonl,
    split_dataset,
)
from fuselab.exceptions import ConfigError, ParseError, SchemaError


def hidden_bits(pub: Publication, spec: SyntheticSpec) -> Tuple[int, int]:
    """Recover (visual bit, text bit) from a rendered sample; exact at
    zero noise."""
    g = spec.grid_size
    left = float(pub.visual[:, : g // 2, 0].sum())
    right = float(pub.visual[:, g // 2 :, 0].sum())
    a = 0 if left > right else 1
    words = set(pub.text.split())
    b = 1 if DEFAULT_VOCAB[1] in words else 0
    return a, b


def _spec(**kw):
    base = dict(task="xor-crossmodal", n=20, seed=42)
    base.update(kw)
    return SyntheticSpec(**base)


class TestPublication:
    def test_needs_some_modality(self):
        with pytest.raises(SchemaError):
            Publication(id="x", label="0")

    def test_text_only_ok(self):
        pub = Publication(id="x", label="0", text="hi")
        assert pub.has_text() and not pub.has_visual()

    def test_caption_appended_to_full_text(self):
        pub = Publication(id="x", label="0", text="hi", caption="there")
        assert pub.full_text() == "hi there"

    def test_visual_must_be_grid(self):
        with pytest.raises(SchemaError):
            Publication(id="x", label="0", visual=np.zeros((4, 4)))

    def test_non_finite_grid_rejected(self):
        grid = np.zeros((4, 4, 1))
        grid[1, 2, 0] = np.nan
        with pytest.raises(SchemaError):
            Publication(id="x", label="0", visual=grid)


class TestLabelSpace:
    def test_merge_examples(self):
        assert merge_to_binary("Racist", HATE_SPEECH_SPACE) == "Hate"
        assert merge_to_binary("No Hate", HATE_SPEECH_SPACE) == "NoHate"
        assert merge_to_binary("Religion-based", HATE_SPEECH_SPACE) == "Hate"

    def test_merge_is_total_and_surjective(self):
        images = {merge_to_binary(name, HATE_SPEECH_SPACE) for name in HATE_SPEECH_SPACE.names}
        assert images == {"Hate", "NoHate"}

    def test_unmapped_label_rejected(self):
        with pytest.raises(SchemaError):
            merge_to_binary("Spam", HATE_SPEECH_SPACE)

    def test_merge_map_must_be_total(self):
        with pytest.raises(ConfigError):
            LabelSpace(("A", "B"), "multi", merge_map={"A": "Hate"})

    def test_merge_targets_must_be_binary_space(self):
        with pytest.raises(ConfigError):
            LabelSpace(("A",), "multi", merge_map={"A": "Maybe"})


class TestJsonl:
    def test_round_trip(self, tmp_path):
        ds = generate_synthetic(_spec(n=10))
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path)
        assert loaded.label_space == ds.label_space
        assert len(loaded) == len(ds)
        for a, b in zip(ds, loaded):
            assert a.id == b.id and a.label == b.label and a.text == b.text
            assert np.array_equal(a.visual, b.visual)

    def test_truncated_line_reports_line_number(self, tmp_path):
        ds = generate_synthetic(_spec(n=3))
        path = tmp_path / "ds.jsonl"
        save_jsonl(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][: len(lines[2]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            load_jsonl(path)
        assert exc.value.line == 3
        assert ":3:" in str(exc.value)

    def test_record_without_caption_loads_with_caption_absent(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        path.write_text(json.dumps({"id": "a", "label": "Hate", "text": "x"}) + "\n")
        ds = load_jsonl(path)
        assert ds[0].caption is None

    def test_unknown_label_is_schema_error(self, tmp_path):
        path = tmp_path / "ds.jsonl"
        header = {"_schema": "fuselab/publications@1",
                  "label_space": {"names": ["Hate", "NoHate"], "mode": "binary"}}
        recs = [{"id": "a", "label": "Hate", "text": "x"},
                {"id": "b", "label": "Spam", "text": "x"}]
        path.write_text("\n".join(json.dumps(r) for r in [header] + recs) + "\n")
        with pytest.raises(SchemaError, match=r"ds\.jsonl:3: unknown label 'Spam'"):
            load_jsonl(path)

    @pytest.mark.parametrize("header", [
        {"_schema": "fuselab/publications@1"},
        {"_schema": "fuselab/publications@1", "label_space": ["Hate", "NoHate"]},
        {"_schema": "fuselab/publications@1", "label_space": {"mode": "binary"}},
        {"_schema": "fuselab/publications@1", "label_space": {"names": 5}},
        {"_schema": "fuselab/publications@1", "label_space": {"names": "HN"}},
        {"_schema": "fuselab/publications@1", "label_space": {"names": ["Hate", 0]}},
        {"_schema": "fuselab/publications@1",
         "label_space": {"names": ["Hate", "NoHate"], "merge": ["Hate", "NoHate"]}},
    ], ids=["no-label-space", "label-space-not-object", "no-names", "names-not-list",
            "names-string", "names-not-strings", "merge-not-object"])
    def test_bad_header_is_schema_error_with_line(self, tmp_path, header):
        path = tmp_path / "ds.jsonl"
        rec = {"id": "a", "label": "Hate", "text": "x"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(SchemaError, match=r"ds\.jsonl:1: "):
            load_jsonl(path)

    @pytest.mark.parametrize("schema", ["fuselab/publications@7",
                                        "fuselab/publicationsXYZ"])
    def test_schema_other_than_this_version_is_schema_error_with_line(self, tmp_path,
                                                                      schema):
        path = tmp_path / "ds.jsonl"
        header = {"_schema": schema,
                  "label_space": {"names": ["Hate", "NoHate"], "mode": "binary"}}
        rec = {"id": "a", "label": "Hate", "text": "x"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(SchemaError, match=r"ds\.jsonl:1: .*expected "
                                              r"'fuselab/publications@1'"):
            load_jsonl(path)

    def test_header_after_the_first_record_is_schema_error_with_line(self, tmp_path):
        def header(*names):
            return {"_schema": "fuselab/publications@1",
                    "label_space": {"names": list(names), "mode": "multi"}}

        a, b = ({"id": i, "label": "X", "text": "x"} for i in "ab")
        path = tmp_path / "ds.jsonl"
        for records, line in (([a, header("X", "Y"), b, header("Y", "X", "Z")], 2),
                              ([header("X", "Y"), header("Y", "X"), a], 2)):
            path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
            with pytest.raises(SchemaError, match=rf"ds\.jsonl:{line}: .*first record"):
                load_jsonl(path)

    @pytest.mark.parametrize("field", ["visual_features", "entity_features"])
    def test_precomputed_vector_field_is_schema_error_with_line(self, tmp_path, field):
        path = tmp_path / "ds.jsonl"
        ok = {"id": "a", "label": "Hate", "text": "x"}
        path.write_text(json.dumps(ok) + "\n"
                        + json.dumps(dict(ok, id="b", **{field: [0.5, 1.0]})) + "\n")
        with pytest.raises(SchemaError, match=rf"ds\.jsonl:2: .*{field}"):
            load_jsonl(path)

    @pytest.mark.parametrize("field, value", [
        ("id", 5), ("label", ["Hate"]), ("text", ["a", "b"]), ("caption", 5),
        ("visual", [[0.0, 1.0]]), ("visual", [[[2**1100]]]),
        ("visual", {"b64": 5, "shape": [1, 1, 1]}),
    ], ids=["id-int", "label-list", "text-list", "caption-int", "grid-2d",
            "grid-int-overflows", "blob-not-text"])
    def test_mistyped_field_is_schema_error_with_line(self, tmp_path, field, value):
        path = tmp_path / "ds.jsonl"
        ok = {"id": "a", "label": "Hate", "text": "x"}
        bad = dict(ok, id="b")
        bad[field] = value
        path.write_text(json.dumps(ok) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(SchemaError, match=r"ds\.jsonl:2: "):
            load_jsonl(path)

    def test_large_grid_blob_round_trip(self, tmp_path):
        grid = np.arange(40 * 40).reshape(40, 40, 1).astype(np.float64)
        ds = Dataset([Publication(id="g", label="Hate", visual=grid)], BINARY_SPACE)
        path = tmp_path / "blob.jsonl"
        save_jsonl(ds, path)
        raw = path.read_text().splitlines()[1]
        assert "b64" in raw
        loaded = load_jsonl(path)
        assert np.array_equal(loaded[0].visual, grid)

    def test_label_histogram(self):
        ds = generate_synthetic(_spec(n=50))
        hist = ds.label_histogram()
        assert set(hist) == {"0", "1"}
        assert sum(hist.values()) == 50

    def test_merge_map_survives_round_trip(self, tmp_path):
        pubs = [Publication(id="a", label="Racist", text="x"),
                Publication(id="b", label="No Hate", text="y")]
        ds = Dataset(pubs, HATE_SPEECH_SPACE)
        path = tmp_path / "multi.jsonl"
        save_jsonl(ds, path)
        loaded = load_jsonl(path)
        assert loaded.label_space.merge_map == HATE_SPEECH_SPACE.merge_map
        merged = loaded.merged_binary()
        assert [p.label for p in merged] == ["Hate", "NoHate"]


class TestSynthetic:
    def test_same_spec_same_dataset(self):
        a = generate_synthetic(_spec(n=30))
        b = generate_synthetic(_spec(n=30))
        for pa, pb in zip(a, b):
            assert pa.id == pb.id and pa.label == pb.label and pa.text == pb.text
            assert np.array_equal(pa.visual, pb.visual)

    def test_label_is_xor_of_hidden_bits(self):
        spec = _spec(n=200)
        ds = generate_synthetic(spec)
        for pub in ds:
            a, b = hidden_bits(pub, spec)
            assert str(a ^ b) == pub.label

    def test_single_modality_bayes_optimum_is_half(self):
        # enumerate the joint distribution of (a, b, label): label = a xor b
        # with independent fair bits, so P(label | a) = 1/2 for either a
        cells = {}
        for a in (0, 1):
            for b in (0, 1):
                cells[(a, b, a ^ b)] = 0.25
        for bit_index in (0, 1):  # visual-only, then text-only
            best = 0.0
            for rule in range(4):  # every deterministic decision rule on one bit
                correct = sum(
                    p for (a, b, label), p in cells.items()
                    if ((rule >> (a if bit_index == 0 else b)) & 1) == label
                )
                best = max(best, correct)
            assert best == 0.5

    def test_label_balance(self):
        ds = generate_synthetic(_spec(n=10_000, seed=1))
        ones = sum(1 for p in ds if p.label == "1")
        assert abs(ones / 10_000 - 0.5) <= 0.02

    def test_mutual_information_of_each_bit_with_label(self):
        spec = _spec(n=4000, seed=9)
        ds = generate_synthetic(spec)
        joint_a = np.zeros((2, 2))
        joint_b = np.zeros((2, 2))
        for pub in ds:
            a, b = hidden_bits(pub, spec)
            label = int(pub.label)
            joint_a[a, label] += 1
            joint_b[b, label] += 1

        def mi_bits(joint):
            joint = joint / joint.sum()
            mi = 0.0
            for i in (0, 1):
                for j in (0, 1):
                    if joint[i, j] > 0:
                        mi += joint[i, j] * math.log2(
                            joint[i, j] / (joint[i, :].sum() * joint[:, j].sum())
                        )
            return mi

        assert mi_bits(joint_a) < 0.01
        assert mi_bits(joint_b) < 0.01

    def test_unimodal_separable_task(self):
        spec = _spec(task="unimodal-separable", n=50)
        ds = generate_synthetic(spec)
        for pub in ds:
            a, b = hidden_bits(pub, spec)
            assert str(a) == pub.label and str(b) == pub.label

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            _spec(n=0)
        with pytest.raises(ConfigError):
            _spec(grid_size=4)


class TestSplits:
    def test_sizes_80_10_10(self):
        ds = generate_synthetic(_spec(n=100))
        train, val, test = split_dataset(ds, (0.8, 0.1, 0.1), seed=0)
        assert (len(train), len(val), len(test)) == (80, 10, 10)

    def test_partition_is_disjoint_and_covering(self):
        ds = generate_synthetic(_spec(n=57))
        parts = split_dataset(ds, (0.6, 0.2, 0.2), seed=3)
        ids = [p.id for part in parts for p in part]
        assert len(ids) == 57
        assert len(set(ids)) == 57
        assert set(ids) == {p.id for p in ds}

    def test_same_seed_same_batches(self):
        ds = generate_synthetic(_spec(n=40))
        def orders(seed):
            return [idx.tolist() for idx in BatchStream(ds, 7, seed=seed).indices()]
        assert orders(5) == orders(5)
        assert orders(5) != orders(6)

    def test_partial_final_batch_retained(self):
        ds = generate_synthetic(_spec(n=10))
        batches = list(BatchStream(ds, 4, seed=0).indices())
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_epochs_reshuffle_deterministically(self):
        ds = generate_synthetic(_spec(n=20))
        stream = BatchStream(ds, 5, seed=1)
        first = [idx.tolist() for idx in stream.indices()]
        second = [idx.tolist() for idx in stream.indices()]
        assert first != second  # epoch 0 vs epoch 1
        assert sorted(sum(first, [])) == list(range(20))
        stream2 = BatchStream(ds, 5, seed=1)
        assert [idx.tolist() for idx in stream2.indices()] == first

    def test_bad_ratios_and_batch_size(self):
        ds = generate_synthetic(_spec(n=10))
        with pytest.raises(ConfigError):
            split_dataset(ds, (0.5, 0.2, 0.2))
        with pytest.raises(ConfigError):
            BatchStream(ds, 0)


class TestVocab:
    def test_reserved_tokens(self):
        v = Vocab(["b", "a"])
        assert v.words[:2] == ["[empty]", "[oov]"]
        assert v.encode("") == [v.empty_id]
        assert v.encode("zzz") == [v.oov_id]
        assert v.encode("a b") == [v.index["a"], v.index["b"]]

    def test_from_texts_ranks_by_frequency(self):
        v = Vocab.from_texts(["c c c b b a", "b"])
        # b and c tie on count 3 and break alphabetically; a trails
        assert v.words[2:] == ["b", "c", "a"]
