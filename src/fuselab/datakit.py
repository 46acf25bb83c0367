"""Publication schema, dataset IO, label spaces, synthetic generators.

The interchange format is JSON Lines: an optional header record (first
line, carrying the label space) followed by one publication per line.
Visual grids are stored as nested arrays, or as a base64 blob of
row-major 32-bit floats once they exceed a size threshold.

Synthetic tasks make fusion benefits measurable at desk scale. The
xor-crossmodal task hides one bit in the visual grid (patch position)
and an independent bit in the token sequence (keyword choice); the label
is their exclusive-or, so neither modality alone predicts it above
chance, while both together determine it exactly at zero noise.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import ConfigError, ParseError, SchemaError

SCHEMA = "fuselab/publications@1"  # name@version; load_jsonl reads exactly this one
BLOB_THRESHOLD = 1024  # grid values; larger grids are written base64/float32

HATE = "Hate"
NO_HATE = "NoHate"

HATE_SPEECH_CLASSES = ("Racist", "Sexist", "Homophobic", "Religion-based",
                "No Hate", "Other Hate")


@dataclass(frozen=True)
class LabelSpace:
    names: Tuple[str, ...]
    mode: str = "multi"  # "binary" | "multi"
    merge_map: Optional[Dict[str, str]] = None

    def __post_init__(self):
        if self.mode not in ("binary", "multi"):
            raise ConfigError(f"label space mode must be binary or multi, got {self.mode!r}")
        if len(set(self.names)) != len(self.names) or not self.names:
            raise ConfigError("label space needs distinct, non-empty class names")
        if self.merge_map is not None:
            missing = set(self.names) - set(self.merge_map)
            if missing:
                raise ConfigError(f"merge map is not total; missing {sorted(missing)}")
            bad = set(self.merge_map.values()) - {HATE, NO_HATE}
            if bad:
                raise ConfigError(f"merge map targets must be the binary space "
                                  f"{{{HATE}, {NO_HATE}}}, got {sorted(bad)}")

    @property
    def num_classes(self) -> int:
        return len(self.names)

    def to_json(self) -> dict:
        out = {"names": list(self.names), "mode": self.mode}
        if self.merge_map is not None:
            out["merge"] = dict(self.merge_map)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "LabelSpace":
        """The label space to_json wrote; ConfigError unless obj holds a
        list of string names and, if any, a merge object of strings."""
        obj = obj if isinstance(obj, dict) else {}
        names, merge = obj.get("names"), obj.get("merge")
        if not (isinstance(names, list) and isinstance(merge, (dict, type(None)))
                and all(isinstance(s, str) for s in names + list((merge or {}).values()))):
            raise ConfigError("label space needs 'names', a list of strings, and may "
                              "have a 'merge' object of strings")
        return cls(names=tuple(names), mode=obj.get("mode", "multi"), merge_map=merge)


BINARY_SPACE = LabelSpace((HATE, NO_HATE), "binary")

HATE_SPEECH_SPACE = LabelSpace(
    HATE_SPEECH_CLASSES, "multi",
    merge_map={name: (NO_HATE if name == "No Hate" else HATE) for name in HATE_SPEECH_CLASSES},
)


def merge_to_binary(label: str, space: LabelSpace) -> str:
    """Map a multi-class label onto the binary {Hate, NoHate} space."""
    if space.merge_map is None:
        raise SchemaError(f"label space {list(space.names)} has no merge map")
    if label not in space.merge_map:
        raise SchemaError(f"label {label!r} not in label space {list(space.names)}")
    return space.merge_map[label]


@dataclass
class Publication:
    """One social-media sample; at least one modality must be present."""

    id: str
    label: str
    text: str = ""
    caption: Optional[str] = None
    visual: Optional[np.ndarray] = None            # (H, W, C) grid
    # how a model reads full_text(), kept by training.model.read_text so
    # the text is normalized once; replace() starts a copy without it
    _read: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = (self.id, self.label, self.text, "" if self.caption is None else self.caption)
        if not all(isinstance(field, str) for field in fields):
            raise SchemaError(f"publication {self.id!r}: id, label, text and caption "
                              f"must be strings, got {fields}")
        if self.visual is not None:
            self.visual = np.asarray(self.visual, dtype=np.float64)
            if self.visual.ndim != 3:
                raise SchemaError(f"publication {self.id}: visual grid must be "
                                  f"(H, W, C), got {self.visual.shape}")
            if not np.isfinite(self.visual).all():
                raise SchemaError(f"publication {self.id}: non-finite visual values")
        if not self.has_visual() and not self.has_text():
            raise SchemaError(f"publication {self.id}: needs visual or text")

    def has_visual(self) -> bool:
        return self.visual is not None

    def has_text(self) -> bool:
        return bool(self.text)

    def full_text(self) -> str:
        """Text plus caption, when a caption exists."""
        if self.caption:
            return f"{self.text} {self.caption}".strip()
        return self.text


@dataclass
class Dataset:
    publications: List[Publication]
    label_space: LabelSpace

    def __len__(self) -> int:
        return len(self.publications)

    def __iter__(self) -> Iterator[Publication]:
        return iter(self.publications)

    def __getitem__(self, idx):
        return self.publications[idx]

    def label_histogram(self) -> Dict[str, int]:
        hist = {name: 0 for name in self.label_space.names}
        for pub in self.publications:
            hist[pub.label] += 1
        return hist

    def merged_binary(self) -> "Dataset":
        pubs = [replace(p, label=merge_to_binary(p.label, self.label_space))
                for p in self.publications]
        return Dataset(pubs, BINARY_SPACE)


# ---------------------------------------------------------------------------
# JSON Lines IO


def _grid_to_json(grid: np.ndarray):
    if grid.size > BLOB_THRESHOLD:
        blob = base64.b64encode(np.asarray(grid, dtype="<f4").tobytes()).decode("ascii")
        return {"b64": blob, "shape": list(grid.shape)}
    return grid.tolist()


def _grid_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict):
        if "b64" not in obj or "shape" not in obj:
            raise SchemaError("visual blob needs 'b64' and 'shape'")
        raw = base64.b64decode(obj["b64"])
        arr = np.frombuffer(raw, dtype="<f4").astype(np.float64)
        return arr.reshape(obj["shape"])
    return np.asarray(obj, dtype=np.float64)


def save_jsonl(dataset: Dataset, path) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        header = {"_schema": SCHEMA,
                  "label_space": dataset.label_space.to_json()}
        fh.write(json.dumps(header) + "\n")
        for pub in dataset.publications:
            rec = {"id": pub.id, "label": pub.label, "text": pub.text}
            if pub.caption is not None:
                rec["caption"] = pub.caption
            if pub.visual is not None:
                rec["visual"] = _grid_to_json(pub.visual)
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path) -> Dataset:
    """Load a dataset; malformed lines raise ParseError with the 1-based
    line number, schema violations raise SchemaError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    publications: List[Publication] = []
    label_space: Optional[LabelSpace] = None
    linenos: List[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: malformed JSON ({exc.msg})", line=lineno)
            if not isinstance(rec, dict):
                raise ParseError(f"{path}:{lineno}: record must be an object", line=lineno)
            if "_schema" in rec:
                if rec["_schema"] != SCHEMA:
                    raise SchemaError(f"{path}:{lineno}: unknown schema {rec['_schema']!r}, "
                                      f"expected {SCHEMA!r}")
                try:
                    label_space = LabelSpace.from_json(rec.get("label_space"))
                except ConfigError as exc:
                    raise SchemaError(f"{path}:{lineno}: bad label space ({exc})")
                continue
            where = f"{path}:{lineno}"
            for required in ("id", "label"):
                if required not in rec:
                    raise SchemaError(f"{where}: missing field {required!r}")
            # no model reads precomputed vectors: fail rather than train without them
            for removed in ("visual_features", "entity_features"):
                if removed in rec:
                    raise SchemaError(f"{where}: field {removed!r} is not supported")
            try:
                pub = Publication(
                    id=rec["id"],
                    label=rec["label"],
                    text=rec.get("text", ""),
                    caption=rec.get("caption"),
                    visual=_grid_from_json(rec["visual"]) if "visual" in rec else None,
                )
            except SchemaError as exc:
                raise SchemaError(f"{where}: {exc}")
            except (OverflowError, TypeError, ValueError) as exc:
                raise SchemaError(f"{where}: bad record ({exc})")
            publications.append(pub)
            linenos.append(lineno)
    if label_space is None:
        names = tuple(sorted({pub.label for pub in publications}))
        if not names:
            raise SchemaError(f"{path}: no records and no label-space header")
        mode = "binary" if set(names) == {HATE, NO_HATE} else "multi"
        label_space = LabelSpace(names, mode)
    dataset = Dataset(publications, label_space)
    for lineno, pub in zip(linenos, publications):
        if pub.label not in label_space.names:
            raise SchemaError(f"{path}:{lineno}: unknown label {pub.label!r} "
                              f"(space is {list(label_space.names)})")
    return dataset


# ---------------------------------------------------------------------------
# synthetic datasets

# a synthetic text is SEQ_LEN words; DEFAULT_VOCAB[:2] are the keywords
DEFAULT_VOCAB = ("north", "south", "the", "sky", "is", "wide", "we", "walk",
                 "see", "one", "day", "light")
SEQ_LEN = 5

XOR_SPACE = LabelSpace(("0", "1"), "binary")


@dataclass(frozen=True)
class SyntheticSpec:
    task: str                      # "xor-crossmodal" | "unimodal-separable"
    n: int = 1000
    seed: int = 0
    noise: float = 0.0
    grid_size: int = 12

    def __post_init__(self):
        if self.task not in ("xor-crossmodal", "unimodal-separable"):
            raise ConfigError(f"unknown synthetic task {self.task!r}")
        if self.n < 1:
            raise ConfigError("synthetic spec needs n >= 1")
        if self.grid_size < 10:
            raise ConfigError("grid_size must be at least 10 (visual receptive field)")
        if not self.noise >= 0:  # NaN included
            raise ConfigError("noise level must be non-negative")


def _render_grid(bit: int, spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    g = spec.grid_size
    grid = np.zeros((g, g, 1))
    row = g // 2 - 1
    col = 1 if bit == 0 else g - 4
    grid[row : row + 3, col : col + 3, 0] = 1.0
    if spec.noise > 0:
        grid += spec.noise * rng.standard_normal(grid.shape)
    return grid


def _render_text(bit: int, spec: SyntheticSpec, rng: np.random.Generator) -> str:
    fillers = DEFAULT_VOCAB[2:]
    words = [fillers[rng.integers(len(fillers))] for _ in range(SEQ_LEN)]
    keyword = DEFAULT_VOCAB[bit]
    if spec.noise > 0 and rng.random() < spec.noise:
        keyword = fillers[rng.integers(len(fillers))]
    words[rng.integers(SEQ_LEN)] = keyword
    return " ".join(words)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset; the same spec always yields the
    same publications."""
    rng = np.random.default_rng(spec.seed)
    space = LabelSpace(XOR_SPACE.names, XOR_SPACE.mode)
    pubs: List[Publication] = []
    for i in range(spec.n):
        if spec.task == "xor-crossmodal":
            a = int(rng.integers(2))
            b = int(rng.integers(2))
            label = a ^ b
        else:
            label = int(rng.integers(2))
            a = b = label
        pubs.append(Publication(
            id=f"{spec.task}-{i:05d}",
            label=str(label),
            text=_render_text(b, spec, rng),
            visual=_render_grid(a, spec, rng),
        ))
    return Dataset(pubs, space)


# ---------------------------------------------------------------------------
# splits and batches


def check_split_ratios(ratios: Sequence[float]) -> None:
    """Raise ConfigError unless the ratios are non-negative and sum to 1
    (NaN is neither)."""
    if not all(r >= 0 for r in ratios) or abs(sum(ratios) - 1.0) > 1e-9:
        raise ConfigError(f"split ratios must be non-negative and sum to 1, "
                          f"got {list(ratios)}")


def _split_sizes(n: int, ratios: Sequence[float]) -> List[int]:
    check_split_ratios(ratios)
    raw = [n * r for r in ratios]
    sizes = [int(x) for x in raw]
    remainders = sorted(range(len(ratios)), key=lambda i: raw[i] - sizes[i], reverse=True)
    for i in range(n - sum(sizes)):
        sizes[remainders[i % len(ratios)]] += 1
    return sizes


def split_dataset(dataset: Dataset, ratios: Sequence[float],
                  seed: int = 0) -> Tuple[Dataset, ...]:
    """Disjoint covering split after a deterministic shuffle."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(dataset))
    sizes = _split_sizes(len(dataset), ratios)
    parts: List[Dataset] = []
    start = 0
    for size in sizes:
        idx = order[start : start + size]
        parts.append(Dataset([dataset.publications[i] for i in idx], dataset.label_space))
        start += size
    return tuple(parts)


class BatchStream:
    """Deterministic epoch-indexed batches of row indices; the final
    partial batch is retained."""

    def __init__(self, dataset: Dataset, batch_size: int, seed: int = 0):
        if batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.seed = seed
        self._epoch = 0

    def indices(self) -> Iterator[np.ndarray]:
        """The next epoch's batches as arrays of dataset row indices."""
        rng = np.random.default_rng((self.seed, self._epoch))
        self._epoch += 1
        order = rng.permutation(len(self.dataset))
        for start in range(0, len(order), self.batch_size):
            yield order[start : start + self.batch_size]


# ---------------------------------------------------------------------------
# vocabulary for the text pipeline

EMPTY_TOKEN = "[empty]"
OOV_TOKEN = "[oov]"


class Vocab:
    """Word-to-id map with reserved empty-text and OOV entries."""

    def __init__(self, words: Sequence[str]):
        self.words: List[str] = [EMPTY_TOKEN, OOV_TOKEN]
        seen = set(self.words)
        for w in words:
            if w not in seen:
                self.words.append(w)
                seen.add(w)
        self.index = {w: i for i, w in enumerate(self.words)}

    @property
    def empty_id(self) -> int:
        return 0

    @property
    def oov_id(self) -> int:
        return 1

    def __len__(self) -> int:
        return len(self.words)

    def encode(self, text: str) -> List[int]:
        """Whitespace tokens to ids; empty text becomes the sentinel token."""
        tokens = text.split()
        if not tokens:
            return [self.empty_id]
        return [self.index.get(t, self.oov_id) for t in tokens]

    @classmethod
    def from_texts(cls, texts: Sequence[str], max_size: Optional[int] = None) -> "Vocab":
        counts: Dict[str, int] = {}
        for text in texts:
            for tok in text.split():
                counts[tok] = counts.get(tok, 0) + 1
        ranked = sorted(counts, key=lambda w: (-counts[w], w))
        if max_size is not None:
            ranked = ranked[: max(0, max_size - 2)]
        return cls(ranked)
