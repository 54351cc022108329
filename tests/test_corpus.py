import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halattn.corpus import (
    CorpusError,
    RawDocument,
    Vocabulary,
    build_vocab,
    encode_corpus,
    load_labeled_dir,
    tokenize,
)

# Test-only reference for `tokenize`: the regex definition it must match on
# every input, whichever path it takes.
TOKEN_RE = re.compile(r"[^\W_]+")
TAG_RE = re.compile(r"<[^>]*>")


def tokenize_oracle(text: str) -> list[str]:
    return TOKEN_RE.findall(TAG_RE.sub(" ", text.lower()))


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Great movie!") == ["great", "movie"]

    def test_html_tags_stripped_before_split(self):
        assert tokenize("good<br /><br />bad") == ["good", "bad"]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_tag_span_is_minimal(self):
        assert tokenize("a <b>bold</b> word") == ["a", "bold", "word"]

    def test_digits_kept(self):
        assert tokenize("10/10 movie") == ["10", "10", "movie"]

    @given(st.text(max_size=200))
    def test_tokens_are_lowercase_alnum(self, text):
        for tok in tokenize(text):
            assert tok
            assert tok == tok.lower()
            assert all(ch.isalnum() for ch in tok)

    @given(st.text(max_size=200))
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)

    def test_golden_review(self):
        text = "I'd rate it 10/10.<br /><br />\r\nThe CAFÉ scene: naïve, 2nd-best!"
        expected = ["i", "d", "rate", "it", "10", "10",
                    "the", "café", "scene", "naïve", "2nd", "best"]
        assert tokenize(text) == expected
        assert tokenize_oracle(text) == expected

    @given(st.text(max_size=300))
    def test_matches_oracle_on_unicode(self, text):
        assert tokenize(text) == tokenize_oracle(text)

    @given(st.text(st.characters(max_codepoint=127), max_size=300))
    def test_matches_oracle_on_ascii(self, text):
        assert tokenize(text) == tokenize_oracle(text)

    # Tags and `_` on both paths; the Kelvin sign lowercases to ASCII 'k',
    # dotted capital I to 'i' plus a combining dot; '²' and '٣' are digits
    # that are not ASCII.
    EDGE = "aZ9 <>_\x1c\x1f\tK\u212a\u0130\u00e9\u00b2\u0663\u00df"

    @given(st.text(st.sampled_from(EDGE), max_size=100))
    def test_matches_oracle_on_edge_characters(self, text):
        assert tokenize(text) == tokenize_oracle(text)


class TestBuildVocab:
    def test_tie_broken_lexicographically(self):
        docs = [RawDocument("a b a", 0), RawDocument("b c", 1)]
        vocab = build_vocab(docs, 2)
        # freq(a)=2, freq(b)=2, freq(c)=1; tie a/b resolved lexicographically
        assert vocab.tokens == ["a", "b"]

    def test_cap_exceeds_distinct_tokens(self):
        vocab = build_vocab([RawDocument("x", 1)], 10)
        assert vocab.tokens == ["x"]
        assert vocab.size == 1

    def test_zero_tokens_fails(self):
        with pytest.raises(CorpusError):
            build_vocab([RawDocument("!!!", 0)], 5)

    def test_bijection(self):
        docs = [RawDocument("the quick brown fox the quick the", 1)]
        vocab = build_vocab(docs, 10)
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i

    @given(
        st.lists(
            st.text(alphabet="abcde ", min_size=1, max_size=30).filter(str.strip),
            min_size=1,
            max_size=12,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_deterministic_and_capped(self, texts, cap):
        docs = [RawDocument(t, 0) for t in texts]
        first = build_vocab(docs, cap)
        second = build_vocab(docs, cap)
        assert first.tokens == second.tokens
        assert first.size <= cap


    @given(
        st.lists(st.text(alphabet="abcd é", max_size=40).filter(str.strip), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=12),
    )
    def test_ranking_matches_count_then_token_oracle(self, texts, cap):
        counts = Counter(tok for t in texts for tok in tokenize(t))
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        docs = [RawDocument(t, 0) for t in texts]
        assert build_vocab(docs, cap).tokens == [tok for tok, _ in ranked[:cap]]


class TestEncode:
    def _vocab(self):
        return Vocabulary.from_tokens(["a", "b"])

    def test_oov_dropped(self):
        doc = RawDocument("a zzz b", 0)
        enc = encode_corpus([doc], self._vocab(), 4)[0][0]
        assert enc.ids[:2].tolist() == [0, 1]
        assert enc.mask.tolist() == [True, True, False, False]
        assert enc.real_length == 2

    def test_exact_fit(self):
        enc = encode_corpus([RawDocument("a", 1)], self._vocab(), 1)[0][0]
        assert enc.ids.tolist() == [0]
        assert enc.mask.tolist() == [True]
        assert enc.real_length == 1

    def test_truncation_boundary(self):
        text = " ".join(["a", "b"] * 150)  # 300 in-vocabulary tokens
        enc = encode_corpus([RawDocument(text, 0)], self._vocab(), 200)[0][0]
        assert enc.real_length == 200
        assert enc.ids.tolist() == [0, 1] * 100

    def test_no_invocab_tokens_fails(self):
        with pytest.raises(CorpusError):
            encode_corpus([RawDocument("zzz yyy", 0)], self._vocab(), 4)

    def test_pad_id_is_zero_and_masked(self):
        enc = encode_corpus([RawDocument("b", 0)], self._vocab(), 3)[0][0]
        assert enc.ids.tolist() == [1, 0, 0]
        assert not enc.mask[1] and not enc.mask[2]

    @given(st.text(alphabet="ab xyz", max_size=60), st.integers(1, 8))
    def test_mask_left_aligned(self, text, seq_len):
        try:
            doc = RawDocument(text, 0)
        except CorpusError:
            return
        try:
            enc = encode_corpus([doc], self._vocab(), seq_len)[0][0]
        except CorpusError:
            return
        assert 1 <= enc.real_length <= seq_len and enc.ids.max() < 2
        flat = enc.mask.astype(int)
        assert not np.any(np.diff(flat) > 0)  # never False -> True

    @given(st.text(alphabet="ab xyz", max_size=60), st.integers(1, 8))
    def test_roundtrip_subsequence(self, text, seq_len):
        vocab = self._vocab()
        try:
            doc = RawDocument(text, 0)
            enc = encode_corpus([doc], vocab, seq_len)[0][0]
        except CorpusError:
            return
        decoded = [vocab.tokens[i] for i in enc.ids[: enc.real_length]]
        stream = iter(tokenize(doc.text))
        assert all(tok in stream for tok in decoded)  # subsequence check


class TestEncodeCorpus:
    def test_skip_empty(self):
        vocab = Vocabulary.from_tokens(["a"])
        docs = [RawDocument("a a", 0), RawDocument("zzz", 1)]
        encoded, skipped = encode_corpus(docs, vocab, 4, skip_empty=True)
        assert len(encoded) == 1 and skipped == 1

    def test_raises_without_skip(self):
        vocab = Vocabulary.from_tokens(["a"])
        with pytest.raises(CorpusError):
            encode_corpus([RawDocument("zzz", 1)], vocab, 4)


class TestLoadLabeledDir:
    def test_labels_and_order(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        for name, text in (("b.txt", "pos two"), ("a.txt", "pos one")):
            (tmp_path / "pos" / name).write_text(text, encoding="utf-8")
        for name, text in (("1.txt", "neg one"), ("0.txt", "neg zero"), ("2.txt", "neg two")):
            (tmp_path / "neg" / name).write_text(text, encoding="utf-8")
        docs = load_labeled_dir(tmp_path)
        assert [d.label for d in docs] == [1, 1, 0, 0, 0]
        assert docs[0].text == "pos one"  # sorted filename order
        assert docs[2].text == "neg zero"

    def test_empty_dirs_give_empty_list(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        assert load_labeled_dir(tmp_path) == []

    def test_missing_subdir_names_path(self, tmp_path):
        (tmp_path / "pos").mkdir()
        with pytest.raises(CorpusError, match="neg"):
            load_labeled_dir(tmp_path)

    def _layout(self, tmp_path):
        for sub in ("pos", "neg"):
            (tmp_path / sub).mkdir()
        return tmp_path / "pos"

    def test_subdirectory_skipped(self, tmp_path):
        pos = self._layout(tmp_path)
        (pos / "nested").mkdir()
        (pos / "nested" / "inner.txt").write_text("hidden", encoding="utf-8")
        (pos / "a.txt").write_text("shown", encoding="utf-8")
        assert [d.text for d in load_labeled_dir(tmp_path)] == ["shown"]

    def test_symlink_to_file_read(self, tmp_path):
        pos = self._layout(tmp_path)
        target = tmp_path / "outside.txt"
        target.write_text("linked text", encoding="utf-8")
        try:
            (pos / "link.txt").symlink_to(target)
        except OSError:
            pytest.skip("cannot create symlinks here")
        assert [d.text for d in load_labeled_dir(tmp_path)] == ["linked text"]

    def test_crlf_read_as_lf(self, tmp_path):
        pos = self._layout(tmp_path)
        (pos / "a.txt").write_bytes(b"line one\r\nline two\r\n")
        assert load_labeled_dir(tmp_path)[0].text == "line one\nline two\n"

    @settings(max_examples=200, deadline=None)
    @given(
        # a prefix of 8191 bytes puts a "\r" that follows it at the end of
        # text mode's first 8 KiB read, so a "\r\n" may straddle two reads
        prefix=st.sampled_from([b"", b"x" * 8191]),
        pieces=st.lists(st.sampled_from([b"\r", b"\n", b"\r\n", b"a", b" ", "\u00e9".encode(),
                                         "\u65e5".encode(), "\u2028".encode(), "\x85".encode()])
                        | st.binary(max_size=4), max_size=30),
    )
    def test_text_equals_text_mode_read(self, tmp_path_factory, prefix, pieces):
        root = tmp_path_factory.mktemp("texts")
        pos = self._layout(root)
        file = pos / "a.txt"
        file.write_bytes(prefix + b"".join(pieces))
        try:
            with open(file, encoding="utf-8") as f:
                expected = f.read()
        except UnicodeDecodeError:
            with pytest.raises(CorpusError, match="a.txt"):
                load_labeled_dir(root)
            return
        if not expected.strip():
            with pytest.raises(CorpusError, match="empty document"):
                load_labeled_dir(root)
        else:
            assert load_labeled_dir(root)[0].text == expected

    def test_mixed_names_in_sorted_order(self, tmp_path):
        pos = self._layout(tmp_path)
        names = ["10_7.txt", "1_3.txt", "B.txt", "a.txt", "2_10.txt", "A2.txt", "_z.txt"]
        for name in names:
            (pos / name).write_text(f"doc {name}", encoding="utf-8")
        texts = [d.text for d in load_labeled_dir(tmp_path)]
        assert texts == [f"doc {name}" for name in sorted(names)]

    def test_undecodable_file_names_file(self, tmp_path):
        (tmp_path / "pos").mkdir()
        (tmp_path / "neg").mkdir()
        bad = tmp_path / "pos" / "bad.txt"
        bad.write_bytes(b"\xff\xfe\xff")
        with pytest.raises(CorpusError, match="bad.txt"):
            load_labeled_dir(tmp_path)
