"""Maximum-likelihood word segmentation for concatenated hashtags.

Viterbi over unigram log probabilities: best[i] is the top-scoring
segmentation of the first i characters, extended one candidate word at a
time. Unknown chunks carry the per-character penalty from
Lexicons.log_prob, so known splits win whenever their frequency product
beats the alternatives.
"""

from __future__ import annotations

from typing import List

from .lexicons import default_lexicons

# unknown chunks longer than this are never proposed as single segments,
# except for the whole-string fallback
_MAX_UNKNOWN = 24


def segment(text: str) -> List[str]:
    if not text:
        return []
    lexicons = default_lexicons()
    n = len(text)
    max_len = max(lexicons.max_word_len, min(n, _MAX_UNKNOWN))
    best: List[float] = [0.0] + [float("-inf")] * n
    back: List[int] = [0] * (n + 1)
    for end in range(1, n + 1):
        for start in range(max(0, end - max_len), end):
            score = best[start] + lexicons.log_prob(text[start:end])
            if score > best[end]:
                best[end] = score
                back[end] = start
    words: List[str] = []
    end = n
    while end > 0:
        start = back[end]
        words.append(text[start:end])
        end = start
    return words[::-1]
