import copy
import itertools
import pickle

import pytest
from hypothesis import given, strategies as st

from schubfactor.permutation import (
    Permutation,
    all_permutations,
    from_code,
    identity,
    longest_element,
    parse_permutation,
)


def brute_inversions(word):
    """Independent inversion count: all pairs, no shortcuts."""
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def test_length_examples():
    assert Permutation((1, 2)).length == 0
    assert Permutation((2, 3, 1)).length == 2
    assert Permutation((4, 3, 2, 1)).length == 6  # C(4,2)


def test_code_examples():
    assert Permutation((1, 2, 3, 4)).code() == (0, 0, 0, 0)
    assert Permutation((3, 2, 1)).code() == (2, 1, 0)
    # brute-forced: inversions of 1342 opened by position
    assert Permutation((1, 3, 4, 2)).code() == (0, 1, 1, 0)


@pytest.mark.parametrize("n", range(1, 8))
def test_code_matches_its_definition_exhaustively(n):
    # the one-pass bitmask count against c_i = #{j > i : w(j) < w(i)}, pair by pair
    for w in all_permutations(n):
        word = w.word
        want = tuple(sum(1 for j in range(i + 1, n) if word[j] < word[i]) for i in range(n))
        assert w.code() == want, w


def test_longest_element():
    assert longest_element(1).word == (1,)
    assert longest_element(3).word == (3, 2, 1)
    assert longest_element(4).word == (4, 3, 2, 1)


def test_times_s_examples():
    assert Permutation((1, 2, 3, 4)).times_s(2).word == (1, 3, 2, 4)
    assert Permutation((3, 2, 1)).times_s(1).word == (2, 3, 1)
    w = Permutation((1, 3, 4, 2))
    assert w.times_s(3).word == (1, 3, 2, 4)
    assert (w.length, w.times_s(3).length) == (2, 1)


def test_times_s_out_of_range():
    with pytest.raises(ValueError):
        Permutation((1, 2, 3)).times_s(3)
    with pytest.raises(ValueError):
        Permutation((1, 2, 3)).times_s(0)


def test_inverse_and_compose_examples():
    assert Permutation((2, 3, 1)).inverse().word == (3, 1, 2)
    assert (Permutation((2, 1)) * Permutation((2, 1))).word == (1, 2)
    assert (Permutation((2, 3, 1)) * Permutation((3, 1, 2))).word == (1, 2, 3)
    assert Permutation((2, 3, 1)) * Permutation((3, 1, 2)) == identity(3)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        Permutation((2, 1)) * Permutation((1, 2, 3))


def test_invalid_words():
    for bad in [(), (0, 1), (1, 1), (1, 3), (2, 2, 1)]:
        with pytest.raises(ValueError):
            Permutation(bad)


@pytest.mark.parametrize("word", [(True, 2), (1.0, 2.0)])
def test_non_integer_entries_are_rejected(word):
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation(word)


@pytest.mark.parametrize("i", [0, -1, 4, True, 1.0, "1", None])
def test_call_rejects_positions_outside_1_to_n(i):
    with pytest.raises(ValueError, match="out of range"):
        Permutation((2, 3, 1))(i)


def test_sizes_never_equal():
    assert Permutation((1, 2)) != Permutation((1, 2, 3))


def test_permutation_is_immutable_and_round_trips():
    w, listed = Permutation((2, 3, 1)), list(all_permutations(3))[3]
    for v in (w, listed):
        for attr in ("word", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(v, attr, (1, 2, 3))
        with pytest.raises(AttributeError, match="immutable"):
            del v.word
        assert v.word == (2, 3, 1) and v == w and hash(v) == hash((2, 3, 1))
    assert {w: 1}[listed] == 1
    for back in (pickle.loads(pickle.dumps(w)), copy.deepcopy(w), copy.copy(listed)):
        assert back == w and hash(back) == hash(w) and back.length == 2


def test_parse_and_str():
    assert parse_permutation("2431").word == (2, 4, 3, 1)
    assert parse_permutation("2,4,3,1").word == (2, 4, 3, 1)
    assert str(Permutation((2, 4, 3, 1))) == "2431"
    big = Permutation(tuple(range(1, 11)))
    assert str(big) == "1,2,3,4,5,6,7,8,9,10"
    assert parse_permutation(str(big)) == big


def test_parse_rejects_non_digits():
    with pytest.raises(ValueError, match="cannot parse permutation"):
        parse_permutation("21a")


def test_json_form():
    assert Permutation((2, 4, 3, 1)).to_json() == [2, 4, 3, 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_code_bijective_and_sums_to_length(n):
    seen = set()
    for w in all_permutations(n):
        c = w.code()
        assert sum(c) == w.length == brute_inversions(w.word)
        assert all(c[i] <= n - 1 - i for i in range(n))
        assert c not in seen
        seen.add(c)
        assert from_code(c) == w
    assert len(seen) == len(list(all_permutations(n)))


@pytest.mark.parametrize("n", range(1, 7))
def test_all_permutations_match_validated_words(n):
    listed = list(all_permutations(n))
    validated = [Permutation(word) for word in itertools.permutations(range(1, n + 1))]
    assert listed == validated
    for w, v in zip(listed, validated):
        assert hash(w) == hash(v) and str(w) == str(v)
        assert [w(i) for i in range(1, n + 1)] == [v(i) for i in range(1, n + 1)]


def test_all_permutations_rejects_an_empty_word():
    with pytest.raises(ValueError, match="empty"):
        list(all_permutations(0))


@pytest.mark.parametrize("code", [(0, 2), (1, 1), (-1, 0)])
def test_from_code_rejects_invalid_codes(code):
    with pytest.raises(ValueError, match="not a valid code"):
        from_code(code)


@given(st.permutations(list(range(1, 8))))
def test_group_properties(word):
    w = Permutation(word)
    assert w.inverse().inverse() == w
    assert w.inverse().length == w.length
    assert w * w.inverse() == identity(w.n)
    for i in range(1, w.n):
        assert abs(w.times_s(i).length - w.length) == 1
