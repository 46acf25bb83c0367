"""Lexicon loading.

The normalizer reads the four UTF-8 TSV files bundled under
fuselab/data, one entry per line:

    words.tsv      word<TAB>frequency
    emoticons.tsv  emoticon<TAB>name
    typos.tsv      typo<TAB>correction
    pos.tsv        word<TAB>tag

They are the only lexicons: a model file does not record them, so the
tokens a saved model sees depend on these files alone.
tools/build_lexicons.py writes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from ..exceptions import ConfigError

_BUNDLED = Path(__file__).resolve().parent.parent / "data"
UNKNOWN_CHAR_PENALTY = math.log(50.0)


@dataclass
class Lexicons:
    word_freq: Dict[str, int]
    emoticons: Dict[str, str]
    typos: Dict[str, str]
    pos: Dict[str, str]
    total_count: int = field(init=False)
    max_word_len: int = field(init=False)
    log_total: float = field(init=False)
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


def load_lexicons() -> Lexicons:
    """Read the bundled lexicons, checking the content of each file."""
    words_raw = _read_tsv(_BUNDLED / "words.tsv")
    try:
        word_freq = {w: int(c) for w, c in words_raw.items()}
    except ValueError as exc:
        raise ConfigError(f"words.tsv: non-integer frequency ({exc})")
    for word, count in word_freq.items():
        if count < 0:
            raise ConfigError(f"words.tsv: negative frequency {count} for {word!r}")
    if not word_freq:
        raise ConfigError("words.tsv is empty")
    emoticons = _read_tsv(_BUNDLED / "emoticons.tsv")
    for emo in emoticons:
        if emo.split() != [emo]:  # the normalizer matches whole whitespace chunks
            raise ConfigError(f"emoticons.tsv: emoticon {emo!r} is empty or holds whitespace")
    return Lexicons(
        word_freq=word_freq,
        emoticons=emoticons,
        typos=_read_tsv(_BUNDLED / "typos.tsv"),
        pos=_read_tsv(_BUNDLED / "pos.tsv"),
    )


_default: Lexicons | None = None


def default_lexicons() -> Lexicons:
    """Bundled lexicons, loaded once per process."""
    global _default
    if _default is None:
        _default = load_lexicons()
    return _default
