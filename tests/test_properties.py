"""Property tests of the social-text normalizer's scan: it never raises,
it keeps every non-whitespace character, and an emoticon is exactly a
whitespace chunk the lexicon names."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fuselab.textprep import TAG_EMOTICON, default_lexicons, normalize
from fuselab.textprep.normalize import _scan

LEX = default_lexicons()

# what str.split() cuts at, ASCII and beyond: the information
# separators, NEL, no-break, em and ideographic spaces; "" glues chunks
SEPARATORS = [" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85",
              "\xa0", "\u2003", "\u3000", ""]
PIECES = sorted(LEX.emoticons) + [
    "@bob", "#goodday", "[user]", "[/user]", "[smile]", "[", "]", "sooooo",
    "teh", "can't", "!", "...", "\u200b", "\U0001f600",
]

_posts = st.lists(
    st.tuples(st.one_of(st.sampled_from(PIECES), st.text(max_size=4)),
              st.sampled_from(SEPARATORS)),
    max_size=8,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))

_SETTINGS = settings(derandomize=True, database=None, max_examples=150, deadline=None)


@_SETTINGS
@given(raw=st.one_of(st.text(max_size=30), _posts))
def test_normalize_never_raises(raw):
    normalize(raw)


@_SETTINGS
@given(raw=st.one_of(st.text(max_size=30), _posts))
def test_scan_keeps_every_non_whitespace_character_in_order(raw):
    assert "".join(ev.text for ev in _scan(raw, LEX)) == "".join(raw.split())


@_SETTINGS
@given(raw=_posts.map(lambda s: s.replace("[", "").replace("]", "")))
def test_emoticon_tokens_are_the_emoticon_chunks(raw):
    got = [t.surface for t in normalize(raw).tokens if t.tag == TAG_EMOTICON]
    assert got == [f"[{LEX.emoticons[c]}]" for c in raw.split() if c in LEX.emoticons]
