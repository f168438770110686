import pytest
from hypothesis import given
from hypothesis import strategies as st

from treegroups import words as words_module
from treegroups.words import Word, WordError, shortlex

W = Word.parse

letters = st.lists(st.tuples(st.sampled_from("abc"),
                             st.integers(-4, 4).filter(bool)), max_size=8)
words = letters.map(Word.of)


def test_parse_and_format():
    w = W("a b^-1 a^2")
    assert w.letters == (("a", 1), ("b", -1), ("a", 2))
    assert str(w) == "a b^-1 a^2"
    assert W("") == Word() == W("1")
    assert str(Word()) == "1"


def test_parse_rejects_garbage():
    for bad in ("a^", "2a", "a^x", "a b^--1", "^3"):
        with pytest.raises(WordError):
            W(bad)


def test_parse_drops_zero_exponents():
    assert W("a^0 b") == W("b") and W("a^0 b").letters == (("b", 1),)
    assert W("b^0") == Word()


def test_merge_cascades():
    # (x y) (y^-1 x) collapses to x^2
    assert W("x y") * W("y^-1 x") == W("x^2")
    assert (W("x y x^-1") * W("x y^-1 x^-1")).is_empty


def test_inverse_and_power():
    w = W("a b^-2 c")
    assert (w * w.inverse()).is_empty
    assert w ** 0 == Word()
    assert w ** -2 == (w.inverse()) ** 2
    assert (W("a") ** 5).letters == (("a", 5),)
    assert (W("a^-3") ** -4).letters == (("a", 12),)
    assert (W("b") ** 10 ** 30).letters == (("b", 10 ** 30),)


def test_powers_past_the_letter_budget_are_input_errors(monkeypatch):
    # w^n has |w| + (n - 1)(|w w| - |w|) merged letters, predicted exactly
    # before the power is built: a b^-2 c has 3 letters and its square 6,
    # a b a merges at each junction (2n + 1 letters), and a conjugate of one
    # letter stays 3 letters at any power
    monkeypatch.setattr(words_module, "MAX_WORD_LETTERS", 50)
    for w, n_max in ((W("a b^-2 c"), 16), (W("a b a"), 24)):
        assert len((w ** n_max).letters) <= 50 and len((w ** -n_max).letters) <= 50
        for n in (n_max + 1, -(n_max + 1), 10 ** 9):
            with pytest.raises(WordError, match="has more than 50 letters"):
                w ** n
    assert W("a b a^-1") ** 10 ** 9 == W(f"a b^{10 ** 9} a^-1")
    assert (W("b") ** 10 ** 30).letters == (("b", 10 ** 30),)


def test_letter_length():
    assert W("a b^-2 c").letter_length() == 4
    assert Word().letter_length() == 0


def test_conjugation():
    w, t = W("a"), W("b c")
    assert w.conjugated_by(t) == t.inverse() * w * t


@given(words)
def test_words_stay_merged_and_roundtrip(w):
    for (g1, _), (g2, _) in zip(w.letters, w.letters[1:]):
        assert g1 != g2
    assert all(e != 0 for _, e in w.letters)
    assert Word.parse(str(w)) == w


@given(words, words, words)
def test_concatenation_associative_and_invertible(u, v, w):
    assert (u * v) * w == u * (v * w)
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert (u * u.inverse() * v) == v


@given(words, st.integers(0, 8), words)
def test_product_merges_at_the_junction_as_a_full_merge_does(u, cut, w):
    # v opens with the inverse of u's last letters, so the junction cancels
    v = Word.of(u.inverse().letters[:cut] + w.letters)
    assert u * v == Word.of(u.letters + v.letters)
    assert v * u == Word.of(v.letters + u.letters)


@given(words, words, st.integers(-6, 6))
def test_power_is_the_repeated_product(u, x, n):
    # a conjugate's powers cancel at every junction
    for w in (x, Word(x.letters[:1]), Word.of(u.letters + x.letters + u.inverse().letters)):
        want, step = Word(), w if n >= 0 else w.inverse()
        for _ in range(abs(n)):
            want = Word.of(want.letters + step.letters)
        assert w ** n == want
        # the letter count the word budget predicts before building a power
        m = len(w.letters)
        assert len(want.letters) == (m + (abs(n) - 1) * (len((w * w).letters) - m) if n else 0)


def _shortlex_key(units, symbols):
    return (len(units), [(symbols.index(s), 0 if e > 0 else 1) for s, e in units])


@given(st.integers(1, 3), st.integers(1, 4))
def test_shortlex_levels(r, n):
    symbols = "abc"[:r]
    words = list(shortlex(symbols, n))
    assert words[0] == ()
    level = [u for u in words if len(u) == n]
    assert len(level) == 2 * r * (2 * r - 1) ** (n - 1)
    for u in words:
        assert all(x != (y[0], -y[1]) for x, y in zip(u, u[1:]))
    keys = [_shortlex_key(u, symbols) for u in words]
    assert all(k1 < k2 for k1, k2 in zip(keys, keys[1:]))
