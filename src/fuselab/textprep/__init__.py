"""Social-text normalization, hashtag segmentation and entity tuples."""

from .entities import EntityTuple, extract_entity_tuple, pos_tag
from .lexicons import Lexicons, default_lexicons, load_lexicons
from .normalize import (
    ELONGATED,
    HASHTAG_CLOSE,
    HASHTAG_OPEN,
    TAG_ELONGATED,
    TAG_EMOTICON,
    TAG_HASHTAG_CLOSE,
    TAG_HASHTAG_OPEN,
    TAG_PUNCT,
    TAG_USER_CLOSE,
    TAG_USER_OPEN,
    TAG_WORD,
    USER_CLOSE,
    USER_OPEN,
    NormalizedText,
    Token,
    normalize,
)
from .segment import segment

__all__ = [
    "ELONGATED",
    "EntityTuple",
    "HASHTAG_CLOSE",
    "HASHTAG_OPEN",
    "Lexicons",
    "NormalizedText",
    "TAG_ELONGATED",
    "TAG_EMOTICON",
    "TAG_HASHTAG_CLOSE",
    "TAG_HASHTAG_OPEN",
    "TAG_PUNCT",
    "TAG_USER_CLOSE",
    "TAG_USER_OPEN",
    "TAG_WORD",
    "Token",
    "USER_CLOSE",
    "USER_OPEN",
    "default_lexicons",
    "extract_entity_tuple",
    "load_lexicons",
    "normalize",
    "pos_tag",
    "segment",
]
