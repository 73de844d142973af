from itertools import permutations
from math import factorial

import pytest

from schubfactor.composition import Composition, enumerate_compositions
from schubfactor.permutation import Permutation
from schubfactor.verifier import ORTHOGONAL, SYMPLECTIC, member_set, needs_even_parts
from schubfactor.wset import (
    block_word,
    standardize,
    symplectic_embedding,
    unstandardize,
    w_set_full_orthogonal,
    w_set_full_symplectic,
    w_set_orthogonal,
    w_set_symplectic,
)


def words(perms):
    return sorted(str(w) for w in perms)


# -- orthogonal base sets ---------------------------------------------------------


def test_full_orthogonal_small():
    assert words(w_set_full_orthogonal(1)) == ["1"]
    assert words(w_set_full_orthogonal(2)) == ["21"]
    assert words(w_set_full_orthogonal(3)) == ["231", "312"]
    assert words(w_set_full_orthogonal(4)) == ["2431", "3412", "4213"]


def test_full_orthogonal_five():
    assert words(w_set_full_orthogonal(5)) == [
        "24531", "25341", "34512", "35142", "42513", "45123", "52314", "53124",
    ]


@pytest.mark.parametrize("n", range(1, 8))
def test_full_orthogonal_sizes_and_pairing(n):
    members = w_set_full_orthogonal(n)
    expected = 1
    for k in range(n - 1, 0, -2):
        expected *= k
    assert len(members) == len(set(members)) == expected
    for w in members:
        for i in range(1, n // 2 + 1):
            assert w(i) > w(n + 1 - i)


# -- words and standardization ------------------------------------------------------


def test_block_word_examples():
    assert block_word(
        Permutation((3, 7, 1, 5, 4, 6, 2)), Composition((2, 4, 1)), 2
    ) == (1, 5, 4, 6)
    assert block_word(Permutation((4, 6, 5, 3, 2, 1)), Composition((4, 2)), 1) == (4, 6, 5, 3)
    assert block_word(Permutation((6, 7, 5, 2, 4, 3, 1)), Composition((3, 4)), 2) == (2, 4, 3, 1)


def test_block_word_range_errors():
    with pytest.raises(ValueError):
        block_word(Permutation((2, 1)), Composition((2,)), 2)
    with pytest.raises(ValueError):
        block_word(Permutation((2, 1)), Composition((3,)), 1)


def test_standardize_examples():
    assert str(standardize((1, 5, 4, 6), {1, 4, 5, 6})) == "1324"
    assert str(standardize((4, 6, 5, 3), {3, 4, 5, 6})) == "2431"
    assert str(standardize((5, 6), {5, 6})) == "12"


def test_standardize_rejects_wrong_letters():
    with pytest.raises(ValueError):
        standardize((1, 5), {1, 4})
    with pytest.raises(ValueError):
        standardize((1, 1), {1, 2})


def test_unstandardize_inverts():
    u = Permutation((2, 4, 3, 1))
    letters = [3, 4, 5, 6]
    assert unstandardize(u, letters) == (4, 6, 5, 3)
    assert standardize(unstandardize(u, letters), letters) == u


def test_unstandardize_rejects_repeated_letters():
    with pytest.raises(ValueError, match="distinct"):
        unstandardize(Permutation((1, 2)), [3, 3])


# -- block assembly -------------------------------------------------------------------


def test_w_set_orthogonal_goldens():
    assert words(w_set_orthogonal(Composition((4, 2))).members) == [
        "465321", "563421", "643521",
    ]
    assert words(w_set_orthogonal(Composition((3, 4))).members) == [
        "6752431", "6753412", "6754213", "7562431", "7563412", "7564213",
    ]
    assert words(w_set_orthogonal(Composition((1, 1))).members) == ["21"]


def test_w_set_orthogonal_block_consistency():
    for n in range(1, 7):
        for mu in enumerate_compositions(n):
            wset = w_set_orthogonal(mu)
            expected_size = 1
            for part in mu.parts:
                expected_size *= len(w_set_full_orthogonal(part))
            assert len(wset.members) == expected_size
            base = {p: set(w_set_full_orthogonal(p)) for p in set(mu.parts)}
            for w in wset.members:
                for i, part in enumerate(mu.parts, start=1):
                    sub = block_word(w, mu, i)
                    letters = set(range(n - mu.nu[i] + 1, n - mu.nu[i - 1] + 1))
                    assert set(sub) == letters
                    assert standardize(sub, letters) in base[part]


# -- symplectic ------------------------------------------------------------------------


def test_symplectic_embedding_examples():
    assert str(symplectic_embedding(Permutation((1,)))) == "12"
    assert str(symplectic_embedding(Permutation((1, 2)))) == "1342"
    assert str(symplectic_embedding(Permutation((2, 1)))) == "3124"


def test_full_symplectic_goldens():
    assert words(w_set_full_symplectic(2)) == ["12"]
    assert words(w_set_full_symplectic(4)) == ["1342", "3124"]
    assert words(w_set_full_symplectic(6)) == [
        "135642", "153462", "315624", "351264", "513426", "531246",
    ]


def test_full_symplectic_rejects_odd():
    with pytest.raises(ValueError):
        w_set_full_symplectic(5)


@pytest.mark.parametrize("two_n", (2, 4, 6, 8))
def test_full_symplectic_properties(two_n):
    n = two_n // 2
    members = w_set_full_symplectic(two_n)
    assert len(members) == len(set(members)) == factorial(n)
    for w in members:
        # odd letters occupy the first half; constant length n(n-1)
        assert all(w(i) % 2 == 1 for i in range(1, n + 1))
        assert w.length == n * (n - 1)


# -- involution atoms: an oracle independent of both constructions -----------------


def reduced_word(w):
    """A reduced word (a_1, ..., a_l) with w = s_{a_1} ... s_{a_l}: strip right descents."""
    w, letters = list(w), []
    while True:
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            return tuple(reversed(letters))
        w[i], w[i + 1] = w[i + 1], w[i]
        letters.append(i + 1)


def demazure(u, letters):
    """u o s_{a_1} o ... o s_{a_l} in the Demazure product: s_i is applied only when it lengthens."""
    u = list(u)
    for i in letters:
        if u[i - 1] < u[i]:
            u[i - 1], u[i] = u[i], u[i - 1]
    return tuple(u)


def involution_atoms(n, theta_letters):
    """The minimal-length w in S_n with w^-1 o s_{theta} o w = w0, by brute force over S_n."""
    w0 = tuple(range(n, 0, -1))
    hits = []  # (length, word)
    for w in permutations(range(1, n + 1)):
        letters = reduced_word(w)
        if demazure(demazure(Permutation(w).inverse().word, theta_letters), letters) == w0:
            hits.append((len(letters), w))
    least = min(length for length, _ in hits)
    return sorted("".join(map(str, w)) for length, w in hits if length == least)


def test_demazure_helpers():
    assert reduced_word((2, 3, 1)) == (1, 2)  # 231 = s1 s2
    assert demazure((2, 3, 1), (1,)) == (3, 2, 1)
    assert demazure((2, 3, 1), (2,)) == (2, 3, 1)  # s2 would shorten 231: the Demazure product keeps it


@pytest.mark.parametrize(("n", "size"), zip(range(1, 9), (1, 1, 2, 3, 8, 15, 48, 105)))
def test_full_orthogonal_are_the_atoms_of_w0(n, size):
    atoms = involution_atoms(n, ())
    assert len(atoms) == size
    assert words(w_set_full_orthogonal(n)) == atoms


@pytest.mark.parametrize(("two_m", "size"), zip((2, 4, 6, 8), (1, 2, 6, 24)))
def test_full_symplectic_are_the_theta_atoms_of_w0(two_m, size):
    # theta = (2, 1, 4, 3, ...) = s1 s3 s5 ...
    atoms = involution_atoms(two_m, tuple(range(1, two_m, 2)))
    assert len(atoms) == size
    assert words(w_set_full_symplectic(two_m)) == atoms


def test_w_set_symplectic_goldens():
    assert words(w_set_symplectic(Composition((2,))).members) == ["12"]
    assert words(w_set_symplectic(Composition((4,))).members) == ["1342", "3124"]
    assert words(w_set_symplectic(Composition((2, 4))).members) == ["561342", "563124"]


def test_w_set_symplectic_rejects_odd_parts():
    with pytest.raises(ValueError):
        w_set_symplectic(Composition((3, 4)))


def test_w_set_symplectic_block_consistency():
    for total in (2, 4, 6, 8):
        for mu in enumerate_compositions(total, even_parts_only=True):
            wset = w_set_symplectic(mu)
            expected_size = 1
            for part in mu.parts:
                expected_size *= factorial(part // 2)
            assert len(wset.members) == expected_size
            base = {p: set(w_set_full_symplectic(p)) for p in set(mu.parts)}
            for w in wset.members:
                for i, part in enumerate(mu.parts, start=1):
                    sub = block_word(w, mu, i)
                    letters = set(range(total - mu.nu[i] + 1, total - mu.nu[i - 1] + 1))
                    assert set(sub) == letters
                    assert standardize(sub, letters) in base[part]


def test_families_are_built_in_word_order():
    # nothing sorts them, and wset --format json prints members in this order
    def in_word_order(perms):
        words = [w.word for w in perms]
        return words == sorted(words)

    assert all(in_word_order(w_set_full_orthogonal(n)) for n in range(1, 12))
    assert all(in_word_order(w_set_full_symplectic(two_n)) for two_n in range(2, 15, 2))
    for family, sizes in ((ORTHOGONAL, range(1, 10)), (SYMPLECTIC, range(2, 13, 2))):
        for n in sizes:
            for mu in enumerate_compositions(n, even_parts_only=needs_even_parts(family)):
                assert in_word_order(member_set(mu, family).members), (family, mu)


def test_members_have_uniform_length():
    for mu in enumerate_compositions(6):
        lengths = {w.length for w in w_set_orthogonal(mu).members}
        assert len(lengths) == 1


def test_wset_json():
    wset = w_set_orthogonal(Composition((1, 1)))
    assert wset.to_json_dict() == {
        "family": "orthogonal",
        "mu": [1, 1],
        "members": [[2, 1]],
    }
