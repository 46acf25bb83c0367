"""Model assembly, the forward pipeline, prediction, and persistence.

A FusionModel bundles the modality encoders, one fusion mechanism, an
optional entity-tuple embedding path, and the softmax classifier. Input
modes select which encoders exist: text-only and visual-only models skip
fusion and classify the single latent directly (the unimodal baselines),
while multimodal models require both encoders and a mechanism.

The entity-tuple path embeds the (subject, object, verb, modifier)
tokens through the text embedding table, averages them, and concatenates
the result to the classifier input. It is on by default for text-only
models and configurable elsewhere.

Model files are a versioned binary: magic, header JSON (config, vocab,
label space, parameter manifest), raw little-endian float64 parameter
blocks, and a trailing SHA-256 over everything before it. Loading
verifies magic, version, and checksum, and round-trips every parameter
bitwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
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
from ..textprep import extract_entity_tuple, normalize

MAGIC = b"FUSEMODL"
FORMAT_VERSION = 1

INPUT_MODES = ("text", "visual", "multimodal")
FUSION_KINDS = ("concat", "auto", "gan")


@dataclass(frozen=True)
class ModelConfig:
    input_modes: str = "multimodal"
    fusion: Optional[str] = "concat"     # None for unimodal models
    latent_dim: int = 64
    embed_dim: int = 32
    hidden_dim: int = 32
    visual_channels: Tuple[int, int] = (8, 16)
    in_channels: int = 1
    fusion_out_dim: Optional[int] = None  # default: latent_dim (gan/auto), 2d (concat)
    concat_projection: bool = False       # give the concat baseline a dense layer
    noise_dim: Optional[int] = None       # default: latent_dim // 4
    append_raw_latents: bool = False
    saturating_gan: bool = False
    use_entity_tuple: Optional[bool] = None  # default: text-only models only
    normalize_text: bool = True
    entity_feature_dim: int = 0           # precomputed per-publication vector
    visual_feature_dim: int = 0           # consume precomputed visual vectors
    seed: int = 0

    def __post_init__(self):
        if self.input_modes not in INPUT_MODES:
            raise ConfigError(f"input_modes must be one of {INPUT_MODES}, "
                              f"got {self.input_modes!r}")
        if self.input_modes == "multimodal":
            if self.fusion not in FUSION_KINDS:
                raise ConfigError(f"multimodal models need a fusion mechanism "
                                  f"from {FUSION_KINDS}, got {self.fusion!r}")
        if self.latent_dim < 1 or self.embed_dim < 1 or self.hidden_dim < 1:
            raise ConfigError("model dimensions must be positive")

    @property
    def wants_entity_tuple(self) -> bool:
        if self.use_entity_tuple is None:
            return self.input_modes == "text"
        return self.use_entity_tuple

    def resolved_fusion_dim(self) -> int:
        if self.input_modes != "multimodal":
            return self.latent_dim
        if self.fusion_out_dim is not None:
            return self.fusion_out_dim
        if self.fusion == "concat" and not self.concat_projection:
            return 2 * self.latent_dim
        return self.latent_dim

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        out["visual_channels"] = list(self.visual_channels)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ModelConfig":
        obj = dict(obj)
        obj["visual_channels"] = tuple(obj.get("visual_channels", (8, 16)))
        return cls(**obj)


def _in_input_order(chunks: List[Tensor], order: List[int]) -> Tensor:
    """Stack the rows of per-bucket chunks, whose publications came in
    `order`, back into input order; no gather when they already are."""
    stacked = chunks[0] if len(chunks) == 1 else nc.concat(chunks, axis=0)
    if order == list(range(len(order))):
        return stacked
    return nc.take_rows(stacked, np.argsort(order))


class FusionModel:
    def __init__(self, config: ModelConfig, label_space: LabelSpace, vocab: Vocab,
                 rng: Optional[np.random.Generator] = None):
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.label_space = label_space
        self.vocab = vocab

        d = config.latent_dim
        self.text_encoder: Optional[RecurrentTextEncoder] = None
        # conv encoder for grids, or a dense adapter over precomputed vectors
        self.visual_encoder = None
        self.mechanism = None

        if config.input_modes in ("text", "multimodal"):
            self.text_encoder = RecurrentTextEncoder(
                vocab_size=len(vocab), embed_dim=config.embed_dim,
                hidden_dim=config.hidden_dim, latent_dim=d, rng=rng)
        if config.input_modes in ("visual", "multimodal"):
            if config.visual_feature_dim:
                # precomputed-feature escape hatch: a dense adapter stands in
                # for the convolutional encoder
                self.visual_encoder = DenseLayer(config.visual_feature_dim, d,
                                                 "tanh", rng, name="visual.adapter")
            else:
                self.visual_encoder = ConvVisualEncoder(
                    in_channels=config.in_channels, latent_dim=d,
                    channels=config.visual_channels, rng=rng)

        if config.input_modes == "multimodal":
            out_dim = config.resolved_fusion_dim()
            if config.fusion == "concat":
                self.mechanism = ConcatFusion(
                    d, out_dim if (config.concat_projection
                                   or config.fusion_out_dim is not None) else None,
                    rng=rng)
            elif config.fusion == "auto":
                self.mechanism = AutoFusion(d, out_dim, rng=rng)
            else:
                self.mechanism = GanFusion(
                    d, out_dim, noise_dim=config.noise_dim,
                    append_raw_latents=config.append_raw_latents,
                    saturating=config.saturating_gan, rng=rng)

        classifier_in = config.resolved_fusion_dim()
        if self.config.wants_entity_tuple:
            if self.text_encoder is None:
                raise ConfigError("entity-tuple path needs a text encoder")
            classifier_in += config.embed_dim
        classifier_in += config.entity_feature_dim
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

    def tokenize(self, text: str) -> List[int]:
        if self.config.normalize_text:
            surfaces = [t.surface for t in normalize(text).tokens]
            return self.vocab.encode(" ".join(surfaces))
        return self.vocab.encode(text)

    def _encode_texts(self, pubs: Sequence[Publication]) -> Tensor:
        sequences = [self.tokenize(p.full_text()) for p in pubs]
        by_length: Dict[int, List[int]] = {}
        for i, seq in enumerate(sequences):
            by_length.setdefault(len(seq), []).append(i)
        chunks: List[Tensor] = []
        order: List[int] = []
        for length in sorted(by_length):
            idx = by_length[length]
            ids = np.array([sequences[i] for i in idx], dtype=np.intp)
            latents, _ = self.text_encoder.encode_batch(ids)
            chunks.append(latents)
            order.extend(idx)
        return _in_input_order(chunks, order)

    def _encode_visuals(self, pubs: Sequence[Publication]) -> Tensor:
        if self.config.visual_feature_dim:
            return self._encode_visual_features(pubs)
        for p in pubs:
            if p.visual is None:
                raise InputError(f"publication {p.id}: visual grid required "
                                 f"by a {self.config.input_modes} model")
        by_shape: Dict[Tuple[int, ...], List[int]] = {}
        for i, p in enumerate(pubs):
            by_shape.setdefault(p.visual.shape, []).append(i)
        chunks: List[Tensor] = []
        order: List[int] = []
        for shape in sorted(by_shape):
            idx = by_shape[shape]
            grids = Tensor(np.stack([pubs[i].visual for i in idx]))
            chunks.append(self.visual_encoder.encode_batch(grids))
            order.extend(idx)
        return _in_input_order(chunks, order)

    def _encode_visual_features(self, pubs: Sequence[Publication]) -> Tensor:
        dim = self.config.visual_feature_dim
        rows = np.zeros((len(pubs), dim))
        for i, p in enumerate(pubs):
            if p.visual_features is None:
                raise InputError(f"publication {p.id}: visual feature vector "
                                 f"required by this model")
            if p.visual_features.shape != (dim,):
                raise InputError(f"publication {p.id}: visual features "
                                 f"{p.visual_features.shape}, expected ({dim},)")
            rows[i] = p.visual_features
        return self.visual_encoder(Tensor(rows))

    def _tuple_vectors(self, pubs: Sequence[Publication]) -> Tensor:
        table = self.text_encoder.embedding
        rows: List[Tensor] = []
        for p in pubs:
            tokens = extract_entity_tuple(normalize(p.full_text())).tokens()
            ids = [self.vocab.index.get(t, self.vocab.oov_id) for t in tokens]
            if ids:
                rows.append(nc.tmean(table.lookup(ids), axis=0).reshape(1, table.dim))
            else:
                rows.append(Tensor(np.zeros((1, table.dim))))
        return rows[0] if len(rows) == 1 else nc.concat(rows, axis=0)

    def _entity_feature_rows(self, pubs: Sequence[Publication]) -> Tensor:
        dim = self.config.entity_feature_dim
        rows = np.zeros((len(pubs), dim))
        for i, p in enumerate(pubs):
            if p.entity_features is not None:
                if p.entity_features.shape != (dim,):
                    raise InputError(f"publication {p.id}: entity features "
                                     f"{p.entity_features.shape}, expected ({dim},)")
                rows[i] = p.entity_features
        return Tensor(rows)

    def encode(self, pubs: Sequence[Publication]) -> Dict[str, Tensor]:
        """Encoder latents (batch, d) of every modality the model reads,
        keyed "text" and "visual". Draws no randomness."""
        if not pubs:
            raise InputError("encode: empty batch")
        latents: Dict[str, Tensor] = {}
        mode = self.config.input_modes
        if mode in ("text", "multimodal"):
            for p in pubs:
                if not p.has_text() and mode == "text":
                    raise InputError(f"publication {p.id}: text required by a "
                                     f"text-only model")
            latents["text"] = self._encode_texts(pubs)
        if mode in ("visual", "multimodal"):
            latents["visual"] = self._encode_visuals(pubs)
        return latents

    def head(self, pubs: Sequence[Publication], latents: Dict[str, Tensor],
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

        pieces = [base]
        if self.config.wants_entity_tuple:
            pieces.append(self._tuple_vectors(pubs))
        if self.config.entity_feature_dim:
            pieces.append(self._entity_feature_rows(pubs))
        features = pieces[0] if len(pieces) == 1 else nc.concat(pieces, axis=1)
        return self.classifier(features), result

    def forward_batch(self, pubs: Sequence[Publication],
                      rng: Optional[np.random.Generator] = None
                      ) -> Tuple[Tensor, Optional[FusionResult]]:
        """Class probabilities and fusion auxiliaries of a batch: encode,
        then head."""
        return self.head(pubs, self.encode(pubs), rng)

    def predict(self, pub: Publication) -> Tuple[np.ndarray, str]:
        """Label distribution and argmax label (lowest index wins ties).
        Inference is deterministic: adversarial noise is zero. Runs the
        graph-free batched forward on a batch of one."""
        with nc.no_graph():
            probs, _ = self.forward_batch([pub], rng=None)
        dist = probs.data[0]
        return dist, self.label_space.names[int(np.argmax(dist))]


def build_model(config: ModelConfig, label_space: LabelSpace, vocab: Vocab,
                rng: Optional[np.random.Generator] = None) -> FusionModel:
    return FusionModel(config, label_space, vocab, rng)


# ---------------------------------------------------------------------------
# persistence


def _config_hash(config: ModelConfig) -> str:
    blob = json.dumps(config.to_json(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def save_model(model: FusionModel, path) -> None:
    named = model.named_parameters()
    header = {
        "format_version": FORMAT_VERSION,
        "config": model.config.to_json(),
        "config_hash": _config_hash(model.config),
        "label_space": model.label_space.to_json(),
        "vocab": model.vocab.words,
        "params": [{"name": name, "shape": list(p.shape)} for name, p in named],
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

    config = ModelConfig.from_json(header["config"])
    if header.get("config_hash") != _config_hash(config):
        raise FormatError(f"{path}: config hash mismatch")
    label_space = LabelSpace.from_json(header["label_space"])
    vocab = Vocab(header["vocab"][2:])  # constructor re-adds the reserved tokens
    model = FusionModel(config, label_space, vocab)

    params = dict(model.named_parameters())
    for spec in header["params"]:
        name, shape = spec["name"], tuple(spec["shape"])
        if name not in params:
            raise FormatError(f"{path}: unexpected parameter {name!r}")
        count = int(np.prod(shape)) if shape else 1
        block = raw[offset : offset + 8 * count]
        if len(block) != 8 * count:
            raise FormatError(f"{path}: parameter block {name!r} truncated")
        params[name].data = np.frombuffer(block, dtype="<f8").reshape(shape).copy()
        offset += 8 * count
    if offset != len(raw) - 32:
        raise FormatError(f"{path}: trailing bytes after parameter blocks")
    return model
