import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from schubfactor import composition
from schubfactor.cohomology import space_for
from schubfactor.composition import Composition, enumerate_compositions, parse_composition


def test_nu_convention():
    mu = Composition((3, 4))
    assert mu.nu == (0, 3, 7)
    assert mu.s == 2
    assert mu.total == 7


def test_block_of_examples():
    assert Composition((3, 4)).block_of(4) == 2
    assert Composition((3, 4)).block_of(3) == 1
    assert Composition((2, 2)).block_of(1) == 1


def test_right_mass_examples():
    assert Composition((3, 4)).right_mass(1) == 4
    assert Composition((3, 4)).right_mass(5) == 0
    assert Composition((2, 4)).right_mass(2) == 4


def test_first_half_flag_examples():
    assert Composition((6, 5)).first_half_flag(3) == 1
    assert Composition((6, 5)).first_half_flag(9) == 0  # x9 past the half of block 2
    assert Composition((3, 4)).first_half_flag(2) == 0


def test_odd_block_middle_not_first_half():
    mu = Composition((3,))
    assert [mu.first_half_flag(i) for i in (1, 2, 3)] == [1, 0, 0]


def test_half_weight_examples():
    assert Composition((3, 4)).half_weight() == 3
    assert Composition((2,)).half_weight() == 1
    assert Composition((6, 5)).half_weight() == 5


def test_out_of_range():
    mu = Composition((2, 2))
    for bad in (0, 5, 1.5, 2.0, True):
        with pytest.raises(ValueError):
            mu.block_of(bad)
        with pytest.raises(ValueError):
            mu.right_mass(bad)
        with pytest.raises(ValueError):
            mu.first_half_flag(bad)


def test_invalid_parts():
    with pytest.raises(ValueError):
        Composition(())
    with pytest.raises(ValueError):
        Composition((2, 0))


@pytest.mark.parametrize("parts", [(2.7, 1), (True, 2)])
def test_non_integer_parts_are_rejected_not_truncated(parts):
    with pytest.raises(ValueError, match="positive integers"):
        Composition(parts)


def test_block_of_every_position():
    mu = Composition((3, 1, 2))
    assert [mu.block_of(i) for i in range(1, 7)] == [1, 1, 1, 2, 3, 3]


def test_a_large_composition_is_built_from_its_parts_alone():
    # a Composition keeps only its parts and offsets, so 10^8 positions fit in 128 MB of address space
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (128 << 20, 128 << 20))\n"
        "from schubfactor.composition import Composition, parse_composition\n"
        "for mu in (parse_composition('100000000'), Composition((10**8,))):\n"
        "    assert (mu.total, mu.block_of(1), mu.block_of(10**8), mu.right_mass(1)) == (10**8, 1, 1, 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(composition.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


def test_enumerate_compositions():
    assert [c.parts for c in enumerate_compositions(3)] == [
        (3,),
        (2, 1),
        (1, 2),
        (1, 1, 1),
    ]
    assert [c.parts for c in enumerate_compositions(4, even_parts_only=True)] == [
        (4,),
        (2, 2),
    ]
    assert len(enumerate_compositions(5)) == 16
    for n in range(1, 8):
        assert len(enumerate_compositions(n)) == 2 ** (n - 1)
    for n in (2, 4, 6, 8):
        assert len(enumerate_compositions(n, even_parts_only=True)) == 2 ** (n // 2 - 1)


def test_enumerate_rejects_odd_even_request():
    with pytest.raises(ValueError):
        enumerate_compositions(5, even_parts_only=True)


def test_parse_and_str():
    assert parse_composition("3,4").parts == (3, 4)
    assert str(Composition((3, 4))) == "3,4"
    assert Composition((3, 4)).to_json() == [3, 4]


def test_right_mass_plus_block_size_identity():
    # R(mu,i) + mu_{B(mu,i)} equals the mass of all blocks from B(mu,i) on
    for mu in enumerate_compositions(6):
        for i in range(1, 7):
            b = mu.block_of(i)
            assert mu.right_mass(i) + mu.parts[b - 1] == sum(mu.parts[b - 1:])


def test_value_semantics():
    a, b = Composition((2, 3)), Composition([2, 3])
    assert a == b and hash(a) == hash(b)
    assert a != Composition((3, 2))
    assert space_for(a) is space_for(b)
    for attr in ("parts", "nu"):
        with pytest.raises(AttributeError):
            setattr(a, attr, (5,))
        with pytest.raises(AttributeError):
            delattr(a, attr)
    assert (a.parts, a.nu) == ((2, 3), (0, 2, 5))
    for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert twin == a and twin.nu == a.nu
    assert repr(a) == "Composition(parts=(2, 3))"
    assert a != (2, 3) and (2, 3) != a
