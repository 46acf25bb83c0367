"""Model assembly, the forward pipeline, and persistence.

A FusionModel bundles the modality encoders, one fusion mechanism, the
entity-tuple embedding path of text-only models, and the softmax
classifier. Input modes select which encoders exist: text-only and
visual-only models skip fusion and classify the single latent directly
(the unimodal baselines), while multimodal models require both encoders
and a mechanism.

The forward pipeline reads prepared batches: FusionModel.prepare
normalizes each text once, pads token and entity-tuple ids, stacks the
visual grids and indexes the labels, and PreparedBatch.take selects rows
of it, so a dataset is read once however many epochs or batches use it
and nothing after prepare reads a Publication.

The entity-tuple path embeds the (subject, object, verb, modifier)
tokens through the text embedding table, averages them, and concatenates
the result to the classifier input. Text-only models, and only they,
take it.

Model files are a versioned binary: magic, header JSON (config, vocab,
label space, parameter manifest), raw little-endian float64 parameter
blocks, and a trailing SHA-256 over everything before it. Loading
verifies magic, version, checksum and the type of each header value, and
round-trips every parameter bitwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
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
from ..textprep import EntityTuple, extract_entity_tuple, normalize

MAGIC = b"FUSEMODL"
FORMAT_VERSION = 1

INPUT_MODES = ("text", "visual", "multimodal")
MECHANISMS = {"concat": ConcatFusion, "auto": AutoFusion, "gan": GanFusion}
FUSION_KINDS = tuple(MECHANISMS)


@dataclass(frozen=True)
class ModelConfig:
    input_modes: str = "multimodal"
    fusion: Optional[str] = "concat"     # None for unimodal models
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
                raise ConfigError(f"multimodal models need a fusion mechanism "
                                  f"from {FUSION_KINDS}, got {self.fusion!r}")
        out_dim = 1 if self.fusion_out_dim is None else self.fusion_out_dim
        if min(self.latent_dim, self.embed_dim, self.hidden_dim, *self.visual_channels,
               out_dim) < 1:
            raise ConfigError("model dimensions (latent_dim, embed_dim, hidden_dim, "
                              "visual_channels, fusion_out_dim) must be positive")

    @property
    def wants_entity_tuple(self) -> bool:
        return self.input_modes == "text"

    def resolved_fusion_dim(self) -> int:
        if self.input_modes != "multimodal" or self.fusion_out_dim is None:
            return self.latent_dim
        return self.fusion_out_dim

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
        obj["visual_channels"] = tuple(obj.get("visual_channels", (8, 16)))
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


def read_text(text: str, normalize_text: bool,
              entity_tuple: bool = False) -> Tuple[str, Optional[EntityTuple]]:
    """The text a model's vocabulary splits into tokens (the normalizer's
    token surfaces joined by spaces, or the raw text) and, when asked for,
    the entity tuple of the normalized text; normalize runs at most once."""
    normalized = normalize(text) if normalize_text or entity_tuple else None
    surfaces = " ".join(t.surface for t in normalized.tokens) if normalize_text else text
    return surfaces, extract_entity_tuple(normalized) if entity_tuple else None


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

    def named_parameters(self) -> List[Tuple[str, Tensor]]:
        params: List[Tuple[str, Tensor]] = []
        if self.text_encoder:
            params += [(p.name, p) for p in self.text_encoder.parameters()]
        if self.visual_encoder:
            params += [(p.name, p) for p in self.visual_encoder.parameters()]
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
        disc = {id(p) for p in self.discriminator_parameters()}
        return [p for p in self.parameters() if id(p) not in disc]

    def recurrent_parameters(self) -> List[Tensor]:
        return self.text_encoder.recurrent_parameters() if self.text_encoder else []

    # -- forward pipeline ---------------------------------------------------

    def prepare(self, pubs: Sequence[Publication]) -> PreparedBatch:
        """Read publications once into the arrays encode and head take.

        Each text goes through read_text once, and every publication is
        checked against the inputs the model reads, so a publication that
        lacks one, or whose grid differs in shape from the first one's,
        raises InputError naming its id here. Draws no randomness."""
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
            texts = [read_text(p.full_text(), config.normalize_text, wants_tuple)
                     for p in pubs]
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

    def encode(self, batch: PreparedBatch) -> Dict[str, Tensor]:
        """Encoder latents (batch, d) of every modality the model reads,
        keyed "text" and "visual", plus the entity-tuple rows under "tuple"
        when the model reads them. The texts of a batch, whatever their
        lengths, take one text-encoder call. Draws no randomness."""
        latents: Dict[str, Tensor] = {}
        mode = self.config.input_modes
        if mode in ("text", "multimodal"):
            latents["text"], _ = self.text_encoder.encode_batch(batch.ids, batch.lengths)
            if self.config.wants_entity_tuple:
                latents["tuple"] = self._tuple_vectors(batch)
        if mode in ("visual", "multimodal"):
            latents["visual"] = self.visual_encoder.encode_batch(Tensor(batch.grids))
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

    try:
        config = ModelConfig.from_json(header["config"])
    except ConfigError as exc:
        raise FormatError(f"{path}: header 'config' does not build a model ({exc})")
    if header.get("config_hash") != _config_hash(config):
        raise FormatError(f"{path}: config hash mismatch")
    words = header["vocab"]
    reserved = Vocab([]).words
    if (not isinstance(words, list) or words[:2] != reserved
            or not all(isinstance(w, str) for w in words)):
        raise FormatError(f"{path}: header 'vocab' is not a list of words "
                          f"led by {reserved}")
    try:
        model = FusionModel(config, LabelSpace.from_json(header["label_space"]),
                            Vocab(words[2:]))
    except (ConfigError, MemoryError, OverflowError, ValueError) as exc:
        raise FormatError(f"{path}: header 'config' and 'label_space' do not build "
                          f"a model ({exc})")

    named = model.named_parameters()
    if header["params"] != _manifest(named):
        raise FormatError(f"{path}: header 'params' does not list the names and "
                          f"shapes of the parameters its config builds")
    for name, p in named:
        block = raw[offset : offset + 8 * p.size]
        if len(block) != 8 * p.size:
            raise FormatError(f"{path}: parameter block {name!r} truncated")
        p.data = np.frombuffer(block, dtype="<f8").reshape(p.shape).copy()
        offset += len(block)
    if offset != len(raw) - 32:
        raise FormatError(f"{path}: trailing bytes after parameter blocks")
    return model
