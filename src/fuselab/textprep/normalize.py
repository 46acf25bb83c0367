"""Social-text normalization.

Pipeline per raw string: user mentions are wrapped in [user]...[/user]
(a punctuation token straight after a mention is vocative and dropped);
hashtags are segmented by maximum-likelihood unigram Viterbi and wrapped
in [hashtag]...[/hashtag]; emoticons become bracketed names; elongated
words are collapsed against the lexicon; known typos are fixed from the
typo map and remaining unknown words get one round of edit-distance-1
lexicon repair.

Scanning works one whitespace chunk (``str.split()``) at a time. A chunk
the emoticon lexicon names is one emoticon, so ":)" in "hi :)" is an
emoticon and in "hi:)" is punctuation. Any other chunk is cut into
bracket tags, mentions, hashtags, words and punctuation runs; no token
crosses whitespace.

Elongation rule: collapse every character run of length >= 3 to two
characters, then to one, and keep the longest lexicon word those
candidates produce. A collapse that had to shorten some run to a single
character emits an [elongated] marker token after the word; so does the
fallback (no lexicon match, runs collapsed to one character). Markers
are annotations: render() omits them, so normalizing a rendered string
is a string-level fixed point.

Words inside user spans keep their exact surface (usernames are not
English), and hashtag segments are already lexicon-driven, so neither is
typo-repaired.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .lexicons import Lexicons, default_lexicons
from .segment import segment

TAG_WORD = "word"
TAG_USER_OPEN = "user-open"
TAG_USER_CLOSE = "user-close"
TAG_HASHTAG_OPEN = "hashtag-open"
TAG_HASHTAG_CLOSE = "hashtag-close"
TAG_EMOTICON = "emoticon"
TAG_ELONGATED = "elongated-marker"
TAG_PUNCT = "punct"

USER_OPEN = "[user]"
USER_CLOSE = "[/user]"
HASHTAG_OPEN = "[hashtag]"
HASHTAG_CLOSE = "[/hashtag]"
ELONGATED = "[elongated]"

_REPAIR_MIN_LEN = 4
_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class Token(NamedTuple):
    """A tuple of strings, which the garbage collector stops tracking, so
    normalized texts kept for later reads cost it nothing."""

    surface: str
    tag: str


@dataclass
class NormalizedText:
    tokens: List[Token]

    def render(self) -> str:
        """Surface string: markers omitted, punctuation attached to the
        preceding word, everything else space-separated."""
        parts: List[str] = []
        prev_tag: Optional[str] = None
        for tok in self.tokens:
            if tok.tag == TAG_ELONGATED:
                continue
            if tok.tag == TAG_PUNCT and prev_tag == TAG_WORD and parts:
                parts[-1] += tok.surface
            else:
                parts.append(tok.surface)
            prev_tag = tok.tag
        return " ".join(parts)

    def words(self) -> List[str]:
        return [t.surface for t in self.tokens if t.tag == TAG_WORD]

    def __str__(self) -> str:
        return self.render()


# chunk scanner: bracketed tags (for re-normalization), mentions,
# hashtags, words, punctuation runs. It only sees whitespace-free chunks
# that are not emoticons, and every character of a chunk matches a group
_SCANNER = re.compile(
    r"(?P<bracket>\[/?[a-z]+\])"
    r"|(?P<mention>@[A-Za-z0-9_]+)"
    r"|(?P<hashtag>#[A-Za-z0-9_]+)"
    r"|(?P<word>[A-Za-z0-9_']+)"
    r"|(?P<punct>[^A-Za-z0-9_'\[\]@#]+|[\[\]@#])"
)

# a character repeated three or more times: an elongation
_RUN = re.compile(r"(.)\1{2,}")


@dataclass
class _Event:
    kind: str  # bracket | mention | hashtag | word | punct | emoticon
    text: str


def _scan(raw: str, lexicons: Lexicons) -> List[_Event]:
    events: List[_Event] = []
    for chunk in raw.split():
        if chunk in lexicons.emoticons:
            events.append(_Event("emoticon", chunk))
        else:
            events.extend(_Event(m.lastgroup, m.group()) for m in _SCANNER.finditer(chunk))
    return events


def _collapse_runs(word: str, target: int) -> str:
    return _RUN.sub(lambda m: m.group(1) * target, word)


def _elongation_candidates(word: str) -> List[Tuple[str, bool]]:
    """(candidate, used_single_char_collapse) pairs, longest first."""
    two = _collapse_runs(word, 2)
    one = _collapse_runs(word, 1)
    out = [(two, False)]
    if one != two:
        out.append((one, True))
    return out


def _edit1(word: str):
    for i in range(len(word) + 1):
        head, tail = word[:i], word[i:]
        if tail:
            yield head + tail[1:]  # deletion
        for ch in _ALPHABET:
            if tail:
                yield head + ch + tail[1:]  # substitution
            yield head + ch + tail  # insertion


def _repair(word: str, lexicons: Lexicons) -> str:
    """One round of edit-distance-1 lexicon repair, highest frequency wins."""
    if len(word) < _REPAIR_MIN_LEN or not word.isalpha():
        return word
    best, best_count = word, 0
    for cand in _edit1(word):
        count = lexicons.word_freq.get(cand, 0)
        if count > best_count or (count == best_count and count and cand < best):
            best, best_count = cand, count
    return best if best_count else word


def _process_word(word: str, lexicons: Lexicons) -> List[Token]:
    word = word.lower()
    tokens: List[Token] = []
    marker = False
    if _RUN.search(word):
        chosen = None
        for cand, single in _elongation_candidates(word):
            if cand in lexicons.word_freq:
                chosen, marker = cand, single
                break
        if chosen is None:
            chosen, marker = _collapse_runs(word, 1), True
        word = chosen
    fix = lexicons.typos.get(word)
    if fix is not None:
        for piece in fix.split():
            tokens.append(Token(piece, TAG_WORD))
    else:
        if word not in lexicons.word_freq:
            word = _repair(word, lexicons)
        tokens.append(Token(word, TAG_WORD))
    if marker:
        tokens.append(Token(ELONGATED, TAG_ELONGATED))
    return tokens


def _find_span_close(events: List[_Event], start: int, close: str) -> int:
    for j in range(start, len(events)):
        if events[j].kind == "bracket" and events[j].text == close:
            return j
    return -1


def normalize(raw: str) -> NormalizedText:
    """Normalize one string against the bundled lexicons. Total: unknown
    constructs pass through as word or punctuation tokens."""
    lex = default_lexicons()
    events = _scan(raw, lex)
    tokens: List[Token] = []
    drop_next_punct = False
    i = 0
    while i < len(events):
        ev = events[i]
        if ev.kind == "punct" and drop_next_punct:
            drop_next_punct = False
            i += 1
            continue
        drop_next_punct = False

        if ev.kind == "mention":
            tokens.append(Token(USER_OPEN, TAG_USER_OPEN))
            tokens.append(Token(ev.text[1:], TAG_WORD))
            tokens.append(Token(USER_CLOSE, TAG_USER_CLOSE))
            drop_next_punct = True
            i += 1
            continue

        if ev.kind == "hashtag":
            tokens.append(Token(HASHTAG_OPEN, TAG_HASHTAG_OPEN))
            for piece in segment(ev.text[1:].lower()):
                tokens.append(Token(piece, TAG_WORD))
            tokens.append(Token(HASHTAG_CLOSE, TAG_HASHTAG_CLOSE))
            i += 1
            continue

        if ev.kind == "emoticon":
            tokens.append(Token(f"[{lex.emoticons[ev.text]}]", TAG_EMOTICON))
            i += 1
            continue

        if ev.kind == "bracket":
            text = ev.text
            if text == USER_OPEN or text == HASHTAG_OPEN:
                close = USER_CLOSE if text == USER_OPEN else HASHTAG_CLOSE
                open_tag = TAG_USER_OPEN if text == USER_OPEN else TAG_HASHTAG_OPEN
                close_tag = TAG_USER_CLOSE if text == USER_OPEN else TAG_HASHTAG_CLOSE
                j = _find_span_close(events, i + 1, close)
                if j >= 0:
                    # span contents are already normalized: pass verbatim
                    tokens.append(Token(text, open_tag))
                    for inner in events[i + 1 : j]:
                        tag = TAG_PUNCT if inner.kind == "punct" else TAG_WORD
                        tokens.append(Token(inner.text, tag))
                    tokens.append(Token(close, close_tag))
                    if text == USER_OPEN:
                        drop_next_punct = True
                    i = j + 1
                    continue
            elif text == ELONGATED:
                tokens.append(Token(ELONGATED, TAG_ELONGATED))
                i += 1
                continue
            else:
                name = text.strip("[]/")
                if name in lex.emoticons.values():
                    tokens.append(Token(text, TAG_EMOTICON))
                    i += 1
                    continue
            # unknown or unbalanced bracket construct: plain word token
            tokens.append(Token(text, TAG_WORD))
            i += 1
            continue

        if ev.kind == "word":
            tokens.extend(_process_word(ev.text, lex))
            i += 1
            continue

        tokens.append(Token(ev.text, TAG_PUNCT))
        i += 1

    return NormalizedText(tokens=tokens)
