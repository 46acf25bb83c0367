"""Lexicon loading.

Files are UTF-8 TSV, one entry per line:

    words.tsv      word<TAB>frequency
    emoticons.tsv  emoticon<TAB>name
    typos.tsv      typo<TAB>correction
    pos.tsv        word<TAB>tag

The bundled copies under fuselab/data are used unless FUSELAB_LEXICON_DIR
points somewhere else.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from ..exceptions import ConfigError

ENV_VAR = "FUSELAB_LEXICON_DIR"
_BUNDLED = Path(__file__).resolve().parent.parent / "data"
UNKNOWN_CHAR_PENALTY = math.log(50.0)


@dataclass
class Lexicons:
    word_freq: Dict[str, int]
    emoticons: Dict[str, str]
    typos: Dict[str, str]
    pos: Dict[str, str]
    total_count: int = 0
    max_word_len: int = 0
    log_total: float = 0.0
    # log probability of each word with a nonzero count, read by log_prob
    word_log_prob: Dict[str, float] = field(init=False, repr=False)

    def __post_init__(self):
        self.total_count = sum(self.word_freq.values())
        self.max_word_len = max((len(w) for w in self.word_freq), default=0)
        self.log_total = math.log(self.total_count) if self.total_count else 0.0
        self.word_log_prob = {w: math.log(count) - self.log_total
                              for w, count in self.word_freq.items() if count}

    def log_prob(self, word: str) -> float:
        """Unigram log probability; unknown words pay an exponential
        per-character penalty so multi-character junk never beats a real
        split."""
        known = self.word_log_prob.get(word)
        if known is not None:
            return known
        return -self.log_total - len(word) * UNKNOWN_CHAR_PENALTY


def _read_tsv(path: Path) -> Dict[str, str]:
    table: Dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key<TAB>value")
            key, value = line.split("\t", 1)
            table[key] = value
    return table


def lexicon_dir() -> Path:
    override = os.environ.get(ENV_VAR)
    if override:
        path = Path(override)
        if not path.is_dir():
            raise ConfigError(f"{ENV_VAR} points to missing directory {path}")
        return path
    return _BUNDLED


def load_lexicons(directory: Path | None = None) -> Lexicons:
    base = Path(directory) if directory else lexicon_dir()
    words_raw = _read_tsv(base / "words.tsv")
    try:
        word_freq = {w: int(c) for w, c in words_raw.items()}
    except ValueError as exc:
        raise ConfigError(f"words.tsv: non-integer frequency ({exc})")
    for word, count in word_freq.items():
        if count < 0:
            raise ConfigError(f"words.tsv: negative frequency {count} for {word!r}")
    if not word_freq:
        raise ConfigError("words.tsv is empty")
    emoticons = _read_tsv(base / "emoticons.tsv")
    for emo in emoticons:
        if emo.split() != [emo]:  # the normalizer matches whole whitespace chunks
            raise ConfigError(f"emoticons.tsv: emoticon {emo!r} is empty or holds whitespace")
    return Lexicons(
        word_freq=word_freq,
        emoticons=emoticons,
        typos=_read_tsv(base / "typos.tsv"),
        pos=_read_tsv(base / "pos.tsv"),
    )


_default: Lexicons | None = None


def default_lexicons() -> Lexicons:
    """Bundled lexicons, loaded once per process."""
    global _default
    if _default is None:
        _default = load_lexicons()
    return _default
