"""Normalization, segmentation, entity tuples."""

import itertools
import math

import numpy as np

from fuselab.textprep import (
    EntityTuple,
    TAG_ELONGATED,
    TAG_PUNCT,
    TAG_WORD,
    default_lexicons,
    extract_entity_tuple,
    normalize,
    pos_tag,
    segment,
)

GOLDEN_IN = "@fiery_eyes, this is soooo coool borther! ;) #coolforever"
GOLDEN_OUT = ("[user] fiery_eyes [/user] this is so cool brother! [wink] "
              "[hashtag] cool forever [/hashtag]")


class TestNormalize:
    def test_golden_sentence(self):
        assert normalize(GOLDEN_IN).render() == GOLDEN_OUT

    def test_plain_text_unchanged(self):
        n = normalize("the cat sat")
        assert n.render() == "the cat sat"
        assert all(t.tag == TAG_WORD for t in n.tokens)

    def test_elongation_with_marker(self):
        n = normalize("wooow!!")
        assert [(t.surface, t.tag) for t in n.tokens] == [
            ("wow", TAG_WORD),
            ("[elongated]", TAG_ELONGATED),
            ("!!", TAG_PUNCT),
        ]
        assert n.render() == "wow!!"

    def test_two_char_collapse_has_no_marker(self):
        n = normalize("coool")
        assert [(t.surface, t.tag) for t in n.tokens] == [("cool", TAG_WORD)]

    def test_unknown_elongation_falls_back_with_marker(self):
        n = normalize("zzzzz")
        assert n.tokens[0].surface == "z"
        assert n.tokens[1].tag == TAG_ELONGATED

    def test_typo_map(self):
        assert normalize("borther").render() == "brother"
        assert normalize("teh definately").render() == "the definitely"

    def test_edit_distance_one_repair(self):
        # "brothr" is one deletion away from "brother"
        assert normalize("brothr").render() == "brother"

    def test_user_span_exempt_from_repair(self):
        n = normalize("@brothr hi")
        assert "brothr" in n.render()

    def test_hashtag_segmentation(self):
        assert normalize("#coolforever").render() == "[hashtag] cool forever [/hashtag]"

    def test_unknown_hashtag_passes_through(self):
        n = normalize("#qzxv")
        assert n.render() == "[hashtag] qzxv [/hashtag]"

    def test_emoticons(self):
        assert normalize(":) ;) <3").render() == "[smile] [wink] [heart]"

    def test_emoticon_needs_boundary(self):
        # a colon-slash inside a URL-ish string is not an emoticon
        n = normalize("http://x")
        assert "[annoyed]" not in n.render()

    def test_mention_drops_vocative_punct(self):
        assert normalize("@bob, hello").render() == "[user] bob [/user] hello"

    def test_normalization_idempotent_on_golden(self):
        once = normalize(GOLDEN_IN).render()
        assert normalize(once).render() == once


def _fuzz_strings(count=1000, seed=20240):
    rng = np.random.default_rng(seed)
    lex = default_lexicons()
    words = sorted(lex.word_freq)
    emoticons = sorted(lex.emoticons)
    typos = sorted(lex.typos)
    puncts = ["!", "!!", "?", "...", ",", ";", ":", "!?"]
    out = []
    for _ in range(count):
        parts = []
        for _ in range(rng.integers(1, 9)):
            roll = rng.random()
            word = words[rng.integers(len(words))]
            if roll < 0.45:
                parts.append(word)
            elif roll < 0.55:
                ch = word[rng.integers(len(word))]
                idx = word.index(ch)
                parts.append(word[: idx + 1] + ch * rng.integers(2, 5) + word[idx + 1 :])
            elif roll < 0.65:
                parts.append("@" + word + ("," if rng.random() < 0.4 else ""))
            elif roll < 0.75:
                parts.append("#" + word + words[rng.integers(len(words))])
            elif roll < 0.83:
                parts.append(emoticons[rng.integers(len(emoticons))])
            elif roll < 0.9:
                parts.append(typos[rng.integers(len(typos))])
            else:
                parts.append(word + puncts[rng.integers(len(puncts))])
        out.append(" ".join(parts))
    return out


class TestInvariants:
    def test_idempotence_on_fuzz_corpus(self):
        for s in _fuzz_strings(1000):
            once = normalize(s).render()
            twice = normalize(once).render()
            assert twice == once, f"not idempotent for {s!r}: {once!r} -> {twice!r}"

    def test_tag_balance_on_fuzz_corpus(self):
        opens = {"user-open": "user-close", "hashtag-open": "hashtag-close"}
        closes = set(opens.values())
        for s in _fuzz_strings(300, seed=7):
            stack = []
            for tok in normalize(s).tokens:
                if tok.tag in opens:
                    stack.append(opens[tok.tag])
                elif tok.tag in closes:
                    assert stack and stack.pop() == tok.tag, f"unbalanced in {s!r}"
            assert not stack, f"unclosed tag in {s!r}"


class TestSegmentation:
    def _brute_force(self, text, lex):
        n = len(text)
        best_score, best_split = float("-inf"), None
        for cuts in itertools.product([False, True], repeat=n - 1):
            words, start = [], 0
            for i, cut in enumerate(cuts, start=1):
                if cut:
                    words.append(text[start:i])
                    start = i
            words.append(text[start:])
            score = sum(lex.log_prob(w) for w in words)
            if score > best_score:
                best_score, best_split = score, words
        return best_score, best_split

    def test_viterbi_matches_brute_force_on_word_pairs(self):
        lex = default_lexicons()
        rng = np.random.default_rng(11)
        words = [w for w in lex.word_freq if 3 <= len(w) <= 6 and w.isalpha()]
        for _ in range(40):
            w1 = words[rng.integers(len(words))]
            w2 = words[rng.integers(len(words))]
            text = w1 + w2
            if len(text) > 11:
                continue
            got = segment(text)
            best_score, best_split = self._brute_force(text, lex)
            got_score = sum(lex.log_prob(w) for w in got)
            assert abs(got_score - best_score) < 1e-9, (text, got, best_split)
            if best_split == [w1, w2]:
                assert got == [w1, w2], (text, got)

    def test_recovers_high_frequency_pair(self):
        assert segment("coolforever") == ["cool", "forever"]
        assert segment("thedog") == ["the", "dog"]

    def test_single_unknown_stays_whole(self):
        assert segment("qzxvw") == ["qzxvw"]

    def test_log_prob_reads_the_formula_bit_for_bit(self):
        """log_prob reads values computed once per Lexicons, and each is
        the float the unigram formula gives."""
        lex = default_lexicons()
        for word, count in lex.word_freq.items():
            want = math.log(count) - lex.log_total if count else \
                -lex.log_total - len(word) * math.log(50.0)
            assert lex.log_prob(word).hex() == want.hex(), word
        for word in ["qzxvw", "x", "", "zz" * 20]:
            assert word not in lex.word_freq
            want = -lex.log_total - len(word) * math.log(50.0)
            assert lex.log_prob(word).hex() == want.hex(), word


class TestEntityTuples:
    def test_svo_with_modifier(self):
        t = extract_entity_tuple(normalize("the dog chased a ball quickly"))
        assert t == EntityTuple("dog", "ball", "chased", "quickly")

    def test_no_verb_gives_empty_tuple(self):
        t = extract_entity_tuple(normalize("hello"))
        assert t == EntityTuple()

    def test_user_span_contents_eligible_as_subject(self):
        t = extract_entity_tuple(normalize("[user] alice [/user] hates broccoli"))
        assert t == EntityTuple("alice", "broccoli", "hates", None)

    def test_slots_reference_input_tokens(self):
        for s in _fuzz_strings(150, seed=3):
            n = normalize(s)
            words = set(n.words())
            t = extract_entity_tuple(n)
            for slot in t.tokens():
                assert slot in words, (s, t)

    def test_pos_suffix_rules(self):
        tags = dict(pos_tag(normalize("she blargged softly")))
        assert tags["blargged"] == "VERB"  # -ed after pronoun
        assert tags["softly"] == "ADV"


def test_build_lexicons_regenerates_the_bundled_files(tmp_path, monkeypatch):
    """The tracked TSVs are tools/build_lexicons.py's output, byte for byte."""
    import importlib.util
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "build_lexicons", root / "tools" / "build_lexicons.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(tool, "OUT", tmp_path)
    tool.main()
    bundled = root / "src" / "fuselab" / "data"
    names = sorted(path.name for path in bundled.glob("*.tsv"))
    assert names == ["emoticons.tsv", "pos.tsv", "typos.tsv", "words.tsv"]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (bundled / name).read_bytes(), name
