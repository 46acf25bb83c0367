"""Model assembly, the forward pipeline, and persistence.

A FusionModel bundles the modality encoders, one fusion mechanism, the
entity-tuple embedding path of text-only models, and the softmax
classifier. Input modes select which encoders exist: text-only and
visual-only models skip fusion and classify the single latent directly
(the unimodal baselines), while multimodal models require both encoders
and a mechanism.

The forward pipeline reads prepared batches: FusionModel.prepare pads
token and entity-tuple ids, stacks the visual grids and indexes the
labels, and PreparedBatch.take selects rows of it, so a dataset is
prepared once however many epochs or batches use it and nothing after
prepare reads a Publication. Texts come through read_text, which keeps
each publication's normalized read on the publication itself: a text is
normalized once, and its entity tuple extracted once, for the life of
the Publication, whether the vocabulary, train() or a validation pass
reads it first. The labels stay class indices all the way to the loss.

The entity-tuple path embeds the (subject, object, verb, modifier)
tokens through the text embedding table, averages them, and concatenates
the result to the classifier input. Text-only models, and only they,
take it.

Model files are a versioned binary: magic, header JSON (config, vocab,
label space, parameter manifest), raw little-endian float64 parameter
blocks, and a trailing SHA-256 over everything before it. Loading
verifies magic, version, checksum and the type of each header value, and
round-trips every parameter bitwise. It builds the model without
drawing its weights, and before it reads the blocks in it checks that
they hold exactly the floats the manifest lists, that no dimension the
model reads exceeds half that count, and that the manifest names the
parameters the config builds, so a small file cannot make it allocate a
large model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import struct
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import numcore as nc
from ..datakit import LabelSpace, Publication, Vocab
from ..exceptions import ConfigError, FormatError, InputError
from ..fusion import AutoFusion, ConcatFusion, FusionResult, GanFusion
from ..layers import ConvVisualEncoder, DenseLayer, RecurrentTextEncoder
from ..numcore import Tensor
from ..textprep import EntityTuple, NormalizedText, extract_entity_tuple, normalize

MAGIC = b"FUSEMODL"
FORMAT_VERSION = 1

INPUT_MODES = ("text", "visual", "multimodal")
MECHANISMS = {"concat": ConcatFusion, "auto": AutoFusion, "gan": GanFusion}
FUSION_KINDS = tuple(MECHANISMS)


@dataclass(frozen=True)
class ModelConfig:
    input_modes: str = "multimodal"
    fusion: Optional[str] = None         # multimodal only: concat | auto | gan
    latent_dim: int = 64
    embed_dim: int = 32
    hidden_dim: int = 32
    visual_channels: Tuple[int, int] = (8, 16)
    in_channels: int = 1
    fusion_out_dim: Optional[int] = None  # multimodal only; default: latent_dim
    normalize_text: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.input_modes not in INPUT_MODES:
            raise ConfigError(f"input_modes must be one of {INPUT_MODES}, "
                              f"got {self.input_modes!r}")
        if self.input_modes == "multimodal":
            if self.fusion not in FUSION_KINDS:
                raise ConfigError("fusion: required for multimodal models "
                                  f"({' | '.join(FUSION_KINDS)}), got {self.fusion!r}")
        else:
            for key in ("fusion", "fusion_out_dim"):
                if getattr(self, key) is not None:
                    raise ConfigError(f"{key}: not applicable to "
                                      f"{self.input_modes}-only models")
        if min(self.latent_dim, self.embed_dim, self.hidden_dim, *self.visual_channels,
               self.resolved_fusion_dim()) < 1:
            raise ConfigError("model dimensions (latent_dim, embed_dim, hidden_dim, "
                              "visual_channels, fusion_out_dim) must be positive")

    @property
    def wants_entity_tuple(self) -> bool:
        return self.input_modes == "text"

    def resolved_fusion_dim(self) -> int:
        return self.latent_dim if self.fusion_out_dim is None else self.fusion_out_dim

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out["visual_channels"] = list(self.visual_channels)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        """The config to_json wrote; ConfigError unless obj is an object of
        known fields, each value of its field's type (an int field takes an
        int, not a float or a bool)."""
        hints = typing.get_type_hints(cls)
        if not isinstance(obj, dict):
            raise ConfigError(f"expected an object, got {obj!r}")
        bad = {name: value for name, value in obj.items()
               if name not in hints or not _holds(hints[name], value)}
        if bad:
            raise ConfigError(f"unsupported keys or mistyped values {bad}")
        obj = dict(obj)
        obj["visual_channels"] = tuple(obj.get("visual_channels", cls.visual_channels))
        return cls(**obj)


def _holds(kind, value) -> bool:
    """Whether a JSON value is of the field type kind: bool, int or str,
    Optional of one, or a fixed-length Tuple, which JSON holds as a list."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Union:  # Optional[arg]
        return value is None or _holds(args[0], value)
    if origin is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_holds, args, value)))
    return type(value) is kind


class _Read:
    """What read_text keeps on a publication: the text it read, its token
    surfaces joined by spaces, and its entity tuple once a caller asks for
    it. The normalizer's output is kept only until then, as the tuple is
    all that needs it."""

    __slots__ = ("text", "surfaces", "normalized", "entity")

    def __init__(self, text: str, normalized: NormalizedText):
        self.text = text
        self.surfaces = " ".join(t.surface for t in normalized.tokens)
        self.normalized: Optional[NormalizedText] = normalized
        self.entity: Optional[EntityTuple] = None


def read_text(pub: Publication, normalize_text: bool,
              entity_tuple: bool = False) -> Tuple[str, Optional[EntityTuple]]:
    """The text of pub.full_text() that a model's vocabulary splits into
    tokens (the normalizer's token surfaces joined by spaces, or the raw
    text) and, when asked for, the entity tuple of the normalized text.

    The read is kept on the publication, so each text is normalized once
    and its tuple extracted once however many callers read it (the
    vocabulary, prepare for training, every validation pass); a changed
    text or caption is read afresh. Raw text needs no read and keeps none."""
    text = pub.full_text()
    if not (normalize_text or entity_tuple):
        return text, None
    read = pub._read
    if read is None or read.text != text:
        read = pub._read = _Read(text, normalize(text))
    if entity_tuple and read.entity is None:
        read.entity = extract_entity_tuple(read.normalized)
        read.normalized = None
    return (read.surfaces if normalize_text else text), read.entity if entity_tuple else None


def _padded(rows: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """Id rows as one matrix, padded with id 0 to the longest row (at least
    one column), and the length of each row."""
    width = len(rows[0]) if rows else 0
    if width and all(len(row) == width for row in rows):
        return np.array(rows, dtype=np.intp), np.full(len(rows), width, dtype=np.intp)
    lengths = np.array([len(row) for row in rows], dtype=np.intp)
    ids = np.zeros((len(rows), max(1, lengths.max(initial=0))), dtype=np.intp)
    ids[np.arange(ids.shape[1]) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.intp, count=int(lengths.sum()))
    return ids, lengths


@dataclass
class PreparedBatch:
    """Publications read into the arrays a model consumes (see
    FusionModel.prepare). Arrays the model does not read are None.

    labels (n,) are class indices in the model's label space, -1 for a
    label outside it; grids (n, H, W, C) are the visual grids. ids (n, T)
    are token ids padded with 0 to the longest row and lengths (n,) their
    lengths; tuple_ids and tuple_counts are the entity-tuple token ids,
    padded the same way, and their counts (0 for an empty tuple).
    """

    labels: np.ndarray
    grids: Optional[np.ndarray] = None
    ids: Optional[np.ndarray] = None
    lengths: Optional[np.ndarray] = None
    tuple_ids: Optional[np.ndarray] = None
    tuple_counts: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, indices) -> "PreparedBatch":
        """The rows at indices, in that order, with the padded id matrices
        trimmed to the longest row among them."""
        idx = np.asarray(indices, dtype=np.intp)

        def trimmed(ids, counts):
            if ids is None:
                return None, None
            counts = counts[idx]
            return ids[idx, : max(1, counts.max(initial=0))], counts

        grids = None if self.grids is None else self.grids[idx]
        return PreparedBatch(self.labels[idx], grids,
                             *trimmed(self.ids, self.lengths),
                             *trimmed(self.tuple_ids, self.tuple_counts))


class FusionModel:
    def __init__(self, config: ModelConfig, label_space: LabelSpace, vocab: Vocab,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.label_space = label_space
        self.vocab = vocab

        d = config.latent_dim
        self.text_encoder: Optional[RecurrentTextEncoder] = None
        self.visual_encoder: Optional[ConvVisualEncoder] = None
        self.mechanism = None

        if config.input_modes in ("text", "multimodal"):
            self.text_encoder = RecurrentTextEncoder(
                vocab_size=len(vocab), embed_dim=config.embed_dim,
                hidden_dim=config.hidden_dim, latent_dim=d, rng=rng)
        if config.input_modes in ("visual", "multimodal"):
            self.visual_encoder = ConvVisualEncoder(
                in_channels=config.in_channels, latent_dim=d,
                channels=config.visual_channels, rng=rng)

        if config.input_modes == "multimodal":
            self.mechanism = MECHANISMS[config.fusion](d, config.resolved_fusion_dim(),
                                                       rng=rng)

        classifier_in = config.resolved_fusion_dim()
        if config.wants_entity_tuple:
            classifier_in += config.embed_dim
        self.classifier = DenseLayer(classifier_in, label_space.num_classes,
                                     "softmax", rng, name="classifier")

    # -- parameter bookkeeping -------------------------------------------

    def encoders(self) -> Dict[str, object]:
        """The encoder of each modality the model reads, keyed "text" and
        "visual", text first."""
        return {modality: encoder for modality, encoder in
                (("text", self.text_encoder), ("visual", self.visual_encoder))
                if encoder is not None}

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        params: List[Tuple[str, Tensor]] = []
        for encoder in self.encoders().values():
            params += [(p.name, p) for p in encoder.parameters()]
        if self.mechanism:
            params += [(p.name, p) for p in self.mechanism.parameters()]
        params += [(p.name, p) for p in self.classifier.parameters()]
        return params

    def parameters(self) -> List[Tensor]:
        return [p for _, p in self.named_parameters()]

    def discriminator_parameters(self) -> List[Tensor]:
        if isinstance(self.mechanism, GanFusion):
            return self.mechanism.discriminator_parameters()
        return []

    def main_parameters(self) -> List[Tensor]:
        """Everything the classification-side descent step may update."""
        disc = set(self.discriminator_parameters())
        return [p for p in self.parameters() if p not in disc]

    def recurrent_parameters(self) -> List[Tensor]:
        return self.text_encoder.recurrent_parameters() if self.text_encoder else []

    # -- forward pipeline ---------------------------------------------------

    def prepare(self, pubs: Sequence[Publication]) -> PreparedBatch:
        """Read publications into the arrays encode and head take.

        Texts come through read_text, so a text read before is not
        normalized again. Every publication is checked against the inputs
        the model reads, so a publication that lacks one, or whose grid
        differs in shape from the first one's, raises InputError naming
        its id here. Draws no randomness."""
        if not pubs:
            raise InputError("prepare: empty batch")
        config = self.config
        mode = config.input_modes
        classes = {name: i for i, name in enumerate(self.label_space.names)}
        batch = PreparedBatch(np.array([classes.get(p.label, -1) for p in pubs],
                                       dtype=np.intp))
        if mode in ("text", "multimodal"):
            for p in pubs:
                if not p.has_text() and mode == "text":
                    raise InputError(f"publication {p.id}: text required by a "
                                     f"text-only model")
            wants_tuple = config.wants_entity_tuple
            texts = [read_text(p, config.normalize_text, wants_tuple) for p in pubs]
            batch.ids, batch.lengths = _padded([self.vocab.encode(t) for t, _ in texts])
            if wants_tuple:
                index, oov = self.vocab.index, self.vocab.oov_id
                batch.tuple_ids, batch.tuple_counts = _padded(
                    [[index.get(t, oov) for t in e.tokens()] for _, e in texts])
        if mode in ("visual", "multimodal"):
            for p in pubs:
                if p.visual is None:
                    raise InputError(f"publication {p.id}: visual grid required "
                                     f"by a {mode} model")
                if p.visual.shape[-1] != config.in_channels:
                    raise InputError(f"publication {p.id}: visual grid has "
                                     f"{p.visual.shape[-1]} channels, the model reads "
                                     f"{config.in_channels}")
                if p.visual.shape != pubs[0].visual.shape:
                    raise InputError(f"publication {p.id}: visual grid is "
                                     f"{p.visual.shape}, publication {pubs[0].id}'s "
                                     f"is {pubs[0].visual.shape}; a dataset has "
                                     f"one grid shape")
            batch.grids = np.stack([p.visual for p in pubs])
        return batch

    def _tuple_vectors(self, batch: PreparedBatch) -> Tensor:
        """The mean embedding of each row's entity-tuple tokens, or zeros
        for an empty tuple: one padded lookup whose padding is scaled to 0."""
        table = self.text_encoder.embedding
        n, width = batch.tuple_ids.shape
        present = np.arange(width) < batch.tuple_counts[:, None]
        rows = nc.row_scale(table.lookup(batch.tuple_ids.reshape(-1)),
                            present.reshape(-1).astype(np.float64))
        sums = nc.tsum(rows.reshape(n, width, table.dim), axis=1)
        counts = np.maximum(batch.tuple_counts, 1).astype(np.float64)
        return nc.div(sums, Tensor(np.repeat(counts[:, None], table.dim, axis=1)))

    def encode_modality(self, batch: PreparedBatch, modality: str) -> Dict[str, Tensor]:
        """The latents that one modality's encoder reaches: (batch, d) under
        "text", plus the entity-tuple rows under "tuple" when the model reads
        them, or (batch, d) under "visual". The texts of a batch, whatever
        their lengths, take one text-encoder call. Draws no randomness."""
        if modality == "visual":
            return {"visual": self.visual_encoder.encode_batch(Tensor(batch.grids))}
        latents = {"text": self.text_encoder.encode_batch(batch.ids, batch.lengths)[0]}
        if self.config.wants_entity_tuple:
            latents["tuple"] = self._tuple_vectors(batch)
        return latents

    def encode(self, batch: PreparedBatch) -> Dict[str, Tensor]:
        """encode_modality's latents of every modality the model reads."""
        latents: Dict[str, Tensor] = {}
        for modality in self.encoders():
            latents.update(self.encode_modality(batch, modality))
        return latents

    def head(self, latents: Dict[str, Tensor],
             rng: Optional[np.random.Generator] = None
             ) -> Tuple[Tensor, Optional[FusionResult]]:
        """Class probabilities (batch, C) from encoded latents, plus the
        fusion auxiliaries of a multimodal model (None otherwise)."""
        result: Optional[FusionResult] = None
        mode = self.config.input_modes
        if mode == "multimodal":
            result = self.mechanism.fuse_batch(latents["visual"], latents["text"], rng)
            base = result.z_fuse
        else:
            base = latents[mode]

        if self.config.wants_entity_tuple:
            base = nc.concat([base, latents["tuple"]], axis=1)
        return self.classifier(base), result

    def forward_batch(self, batch: PreparedBatch,
                      rng: Optional[np.random.Generator] = None
                      ) -> Tuple[Tensor, Optional[FusionResult]]:
        """Class probabilities and fusion auxiliaries of a prepared batch:
        encode, then head."""
        return self.head(self.encode(batch), rng)


def build_model(config: ModelConfig, label_space: LabelSpace, vocab: Vocab,
                rng: Optional[np.random.Generator] = None) -> FusionModel:
    return FusionModel(config, label_space, vocab, rng)


# ---------------------------------------------------------------------------
# persistence


def _config_hash(config: ModelConfig) -> str:
    blob = json.dumps(config.to_json(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _manifest(named: List[Tuple[str, Tensor]]) -> List[dict]:
    """The header's parameter list: each name and shape, in storage order."""
    return [{"name": name, "shape": list(p.shape)} for name, p in named]


class _NoDraws:
    """Stands in for the generator a FusionModel draws its initial weights
    from when load_model builds one: each draw is a zero-stride view of
    one 0.0, so the model has every parameter's name and shape, for the
    manifest check, but allocates only its zero biases, each at most four
    times a config dimension long, before the file's blocks replace them."""

    @staticmethod
    def uniform(low, high, size):
        return np.broadcast_to(0.0, size)


def _manifest_floats(manifest) -> Optional[int]:
    """The number of floats a header parameter list names, or None unless
    it is a list of {"name": str, "shape": [int >= 0, ...]} entries."""
    if not isinstance(manifest, list):
        return None
    total = 0
    for entry in manifest:
        if not (isinstance(entry, dict) and entry.keys() == {"name", "shape"}
                and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            return None
        total += math.prod(entry["shape"])
    return total


def save_model(model: FusionModel, path) -> None:
    named = model.named_parameters()
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_json(),
        "config_hash": _config_hash(model.config),
        "label_space": model.label_space.to_json(),
        "vocab": model.vocab.words,
        "params": _manifest(named),
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in (MAGIC, struct.pack("<I", FORMAT_VERSION),
                      struct.pack("<Q", len(header_blob)), header_blob):
            fh.write(chunk)
            digest.update(chunk)
        for _, p in named:
            block = np.ascontiguousarray(p.data, dtype="<f8").tobytes()
            fh.write(block)
            digest.update(block)
        fh.write(digest.digest())


def load_model(path) -> FusionModel:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"model file not found: {path}")
    raw = path.read_bytes()
    if len(raw) < len(MAGIC) + 12 + 32 or raw[: len(MAGIC)] != MAGIC:
        raise FormatError(f"{path}: not a fuselab model file")
    digest = hashlib.sha256(raw[:-32]).digest()
    if digest != raw[-32:]:
        raise FormatError(f"{path}: checksum mismatch (truncated or corrupt)")
    offset = len(MAGIC)
    (version,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad header ({exc})")
    offset += header_len
    for key in ("config", "label_space", "vocab", "params"):
        if not isinstance(header, dict) or key not in header:
            raise FormatError(f"{path}: header has no {key!r}")
    # the blocks must hold exactly the floats the manifest lists, so the
    # file's size bounds what the manifest can ask for
    floats = _manifest_floats(header["params"])
    if floats is None:
        raise FormatError(f"{path}: header 'params' is not a list of parameter names "
                          f"and shapes")
    if 8 * floats != len(raw) - 32 - offset:
        raise FormatError(f"{path}: header 'params' lists {floats} floats, but "
                          f"{len(raw) - 32 - offset} bytes of parameter blocks follow")

    try:
        config = ModelConfig.from_json(header["config"])
    except ConfigError as exc:
        raise FormatError(f"{path}: header 'config' does not build a model ({exc})")
    if header.get("config_hash") != _config_hash(config):
        raise FormatError(f"{path}: config hash mismatch")
    # every dimension the model reads is an axis of a parameter whose other
    # axes hold at least two floats, so none can exceed half the float
    # count; this bounds the zero biases the build below allocates
    dims = [config.latent_dim, config.resolved_fusion_dim()]
    if config.input_modes != "visual":
        dims += [config.embed_dim, config.hidden_dim]
    if config.input_modes != "text":
        dims += [*config.visual_channels, config.in_channels]
    if 2 * max(dims) > floats:
        raise FormatError(f"{path}: header 'config' names a dimension of {max(dims)}, "
                          f"more than half the {floats} floats the file holds")
    words = header["vocab"]
    reserved = Vocab([]).words
    if (not isinstance(words, list) or words[:2] != reserved
            or not all(isinstance(w, str) for w in words)):
        raise FormatError(f"{path}: header 'vocab' is not a list of words "
                          f"led by {reserved}")
    try:
        model = FusionModel(config, LabelSpace.from_json(header["label_space"]),
                            Vocab(words[2:]), rng=_NoDraws())
    except (ConfigError, MemoryError, OverflowError, ValueError) as exc:
        raise FormatError(f"{path}: header 'config' and 'label_space' do not build "
                          f"a model ({exc})")

    named = model.named_parameters()
    if header["params"] != _manifest(named):
        raise FormatError(f"{path}: header 'params' does not list the names and "
                          f"shapes of the parameters its config builds")
    for name, p in named:  # the manifest check above fixed their total size
        block = np.frombuffer(raw, dtype="<f8", count=p.size, offset=offset)
        if not np.isfinite(block).all():
            raise FormatError(f"{path}: parameter {name!r} holds a non-finite value")
        p.data = block.reshape(p.shape).copy()
        offset += 8 * p.size
    return model
