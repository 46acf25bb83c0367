"""Seeded generator of social-style posts for the text-training workload.

Posts are 4 to 24 words drawn from the bundled lexicon. Each post holds
exactly one label keyword ("hate" for Hate, "love" for NoHate), so the
label can be learned from that one word. Around it the generator mixes
in the constructs the social-text normalizer handles: @mentions,
multi-word hashtags, emoticons, elongated words and known typos. The
keyword itself is never decorated, so decoration cannot hide the label.
How often each construct appears is an assumption (see SHARES).

The same seed always gives the same posts.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import numpy as np

from fuselab.datakit import BINARY_SPACE, HATE, NO_HATE, Dataset, Publication
from fuselab.textprep import load_lexicons

KEYWORDS = {HATE: "hate", NO_HATE: "love"}
MIN_WORDS = 4
MAX_WORDS = 24

# Per-post probability of carrying each construct. These shares are
# assumed, not measured: no sample of real social posts is at hand to
# take them from. They set how much work the normalizer does, so replace
# them with measured shares once such a sample is available.
SHARES = {
    "mention": 0.35,
    "hashtag": 0.40,
    "emoticon": 0.30,
    "elongation": 0.30,
    "typo": 0.25,
}
PUNCTUATION = ("!", "?", ",", "...", "!!")


class SocialPostGenerator:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        lex = load_lexicons()
        keywords = set(KEYWORDS.values())
        self.words = sorted(w for w in lex.word_freq
                            if w.isalpha() and 3 <= len(w) <= 9 and w not in keywords)
        self.emoticons = sorted(lex.emoticons)
        self.typos = sorted(lex.typos)
        self.properties: List[Dict[str, object]] = []   # one entry per post made

    def _pick(self, items):
        return items[int(self.rng.integers(len(items)))]

    def _mention(self) -> str:
        name = self._pick(self.words)
        if self.rng.random() < 0.5:
            name += str(int(self.rng.integers(10, 1000)))
        return "@" + name

    def _hashtag(self) -> str:
        parts = [self._pick(self.words) for _ in range(int(self.rng.integers(2, 4)))]
        return "#" + "".join(parts)

    def _elongated(self) -> str:
        word = self._pick(self.words)
        i = int(self.rng.integers(len(word)))
        return word[:i] + word[i] * int(self.rng.integers(3, 6)) + word[i + 1:]

    def post(self, label: str) -> Dict[str, object]:
        n = int(self.rng.integers(MIN_WORDS, MAX_WORDS + 1))
        slots: List[str] = [self._pick(self.words) for _ in range(n)]
        free = [int(i) for i in self.rng.permutation(n)]
        slots[free.pop()] = KEYWORDS[label]
        makers = {"mention": self._mention, "hashtag": self._hashtag,
                  "emoticon": lambda: self._pick(self.emoticons),
                  "elongation": self._elongated,
                  "typo": lambda: self._pick(self.typos)}
        has = {}
        for kind, share in SHARES.items():
            has[kind] = bool(free) and self.rng.random() < share
            if has[kind]:
                slots[free.pop()] = makers[kind]()
        if self.rng.random() < 0.5:
            slots[0] = slots[0].capitalize()
        if self.rng.random() < 0.4:
            slots[-1] += self._pick(PUNCTUATION)
        return {"text": " ".join(slots), "words": n, **has}

    def dataset(self, n: int) -> Dataset:
        """n posts with labels drawn uniformly from the binary space."""
        pubs = []
        for i in range(n):
            label = (HATE, NO_HATE)[int(self.rng.integers(2))]
            post = self.post(label)
            self.properties.append(post)
            pubs.append(Publication(id=f"social-{i:05d}", label=label, text=post["text"]))
        return Dataset(pubs, BINARY_SPACE)


def describe(properties: List[Dict[str, object]]) -> Dict[str, object]:
    """Shares of posts with each construct and the spread of post lengths."""
    lengths = [p["words"] for p in properties]
    out: Dict[str, object] = {f"share_{kind}": round(sum(p[kind] for p in properties)
                                                     / len(properties), 4)
                              for kind in SHARES}
    q1, q2, q3 = statistics.quantiles(lengths, n=4)
    out["words"] = {"min": min(lengths), "q1": q1, "median": q2, "q3": q3,
                    "max": max(lengths)}
    return out
