"""Shallow POS tagging and (subject, object, verb, modifier) extraction.

The tagger is a lexicon lookup with suffix fallbacks: closed-class
function words and common verbs/adjectives/adverbs come from pos.tsv;
-ly maps to adverb; -ed/-s/-ing forms whose stem is a known verb, or an
-ed/-s word right after a pronoun, map to verb; everything else is a
noun. That is deliberately shallow: it only has to support the tuple
heuristic below.

Tuple rule: the verb slot is the first verb; subject is the first noun
before it, object the first noun after it, and modifier the first
adverb or adjective after it. No verb means an all-empty tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .lexicons import default_lexicons
from .normalize import NormalizedText

_VERBISH = {"VERB", "AUX"}


@dataclass(frozen=True)
class EntityTuple:
    subject: Optional[str] = None
    object: Optional[str] = None
    verb: Optional[str] = None
    modifier: Optional[str] = None

    def tokens(self) -> List[str]:
        return [t for t in (self.subject, self.object, self.verb, self.modifier) if t]


def _verb_stems(word: str) -> List[str]:
    stems = []
    if word.endswith("ies"):
        stems.append(word[:-3] + "y")
    if word.endswith("es"):
        stems.append(word[:-2])
    if word.endswith("s"):
        stems.append(word[:-1])
    if word.endswith("ied"):
        stems.append(word[:-3] + "y")
    if word.endswith("ed"):
        stems.append(word[:-2])
        stems.append(word[:-1])  # chased -> chase
    if word.endswith("ing"):
        stems.append(word[:-3])
        stems.append(word[:-3] + "e")
    return stems


def pos_tag(text: NormalizedText) -> List[Tuple[str, str]]:
    """Tag the word tokens of a normalized text; markup and punctuation
    are skipped."""
    lex = default_lexicons()
    tagged: List[Tuple[str, str]] = []
    prev_tag = ""
    for word in text.words():
        lower = word.lower()
        tag = lex.pos.get(lower)
        if tag is None:
            if lower.endswith("ly") and len(lower) > 3:
                tag = "ADV"
            elif any(lex.pos.get(s) == "VERB" for s in _verb_stems(lower)):
                tag = "VERB"
            elif prev_tag == "PRON" and lower.endswith(("ed", "s")) and len(lower) > 3:
                tag = "VERB"
            elif lower.isdigit():
                tag = "NUM"
            else:
                tag = "NOUN"
        tagged.append((word, tag))
        prev_tag = tag
    return tagged


def extract_entity_tuple(text: NormalizedText) -> EntityTuple:
    tagged = pos_tag(text)
    verb_idx = next((i for i, (_, tag) in enumerate(tagged) if tag in _VERBISH), None)
    if verb_idx is None:
        return EntityTuple()
    subject = next((w for w, tag in tagged[:verb_idx] if tag == "NOUN"), None)
    obj = next((w for w, tag in tagged[verb_idx + 1 :] if tag == "NOUN"), None)
    modifier = next((w for w, tag in tagged[verb_idx + 1 :] if tag in ("ADV", "ADJ")), None)
    return EntityTuple(subject=subject, object=obj, verb=tagged[verb_idx][0],
                       modifier=modifier)
