"""
Exact sparse multivariate polynomials over the integers, with named variable
families and the divided-difference operator.

A VariableSpace declares four families in a fixed total order:

    x1 < ... < xn  <  y1 < ... < yn  <  y{i}_{j} block pairs  <  z1 < ... < zs

The y family carries full-torus coordinates; the y{i}_{j} and z{i} families
carry the block-torus coordinates of a composition (one z per block, one
y{i}_{j} per half-block slot).  A space built without a composition has only
the x and y families.

Coefficients are Python ints (arbitrary precision).  Each monomial is one
Python int, its key, with an 8-bit field per variable and x1 in the most
significant field, so multiplying monomials adds their keys, and int order
on keys is lexicographic order on exponent vectors (Monagan & Pearce,
Polynomial division using dynamic arrays, heaps, and packed exponent
vectors, 2007).  An exponent may be at most MAX_EXPONENT = 127, so the sum
of two fields never carries into the next one; every step that may go past
127 raises ValueError instead.  Keys are decoded only to render, serialize,
sort canonically and read degrees.

The canonical term order is graded reverse-lexicographic on the x part (ties
broken the same way on the remaining families), iterated from the smallest
term up; the first term under this order is the "leading" term.  This order
serves text(), the JSON form, leading_term() and the verifier's witnesses;
the Schubert-basis expansion does not use it (it takes the smallest key).
"""

from __future__ import annotations

import bisect
import json
import operator
import re
import sys
import types
from functools import reduce
from typing import Iterable, Iterator, Mapping, Sequence

MAX_EXPONENT = 127  # the largest exponent an 8-bit field holds with its guard bit clear


def _integer(value, what: str) -> int:
    """value itself if it is an int (not a bool); ValueError for anything else."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} {value!r} is not an integer")
    return value


class VariableSpace:
    """
    Variable universe shared by every polynomial that may be combined.
    Immutable: one space may serve many callers, so its attributes cannot be
    rebound after construction.
    """

    __slots__ = ("n", "mu", "s", "halves", "num_vars", "_names", "_yblock_base", "_z_base", "_guard")

    def __init__(self, n: int, mu: tuple[int, ...] | None = None):
        if _integer(n, "space size n") < 1:
            raise ValueError("need at least one x variable")
        if mu is not None:
            mu = tuple(_integer(p, "block size") for p in mu)
            if sum(mu) != n or any(p < 1 for p in mu):
                raise ValueError(f"blocks {mu} do not partition 1..{n}")
        s = len(mu) if mu else 0
        halves = tuple(p // 2 for p in mu) if mu else ()
        z_base = 2 * n + sum(halves)
        names = [f"x{i}" for i in range(1, n + 1)]
        names += [f"y{i}" for i in range(1, n + 1)]
        for i, h in enumerate(halves, start=1):
            names += [f"y{i}_{j}" for j in range(1, h + 1)]
        names += [f"z{i}" for i in range(1, s + 1)]
        init = object.__setattr__  # the only writer: __setattr__ refuses every assignment
        init(self, "n", n)
        init(self, "mu", mu)
        init(self, "s", s)
        init(self, "halves", halves)
        init(self, "_yblock_base", 2 * n)
        init(self, "_z_base", z_base)
        init(self, "num_vars", z_base + s)
        init(self, "_guard", int.from_bytes(b"\x80" * (z_base + s), "big"))  # the top bit of every field
        # interned: cohomology.space_for keeps one space per composition, and they share names
        init(self, "_names", tuple(map(sys.intern, names)))

    def __setattr__(self, attr, value):
        raise AttributeError(f"VariableSpace is immutable; cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"VariableSpace is immutable; cannot delete {attr}")

    def __reduce__(self):
        return VariableSpace, (self.n, self.mu)

    def x(self, i: int) -> int:
        if not 1 <= _integer(i, "x index") <= self.n:
            raise ValueError(f"x{i} out of range")
        return i - 1

    def yfull(self, i: int) -> int:
        if not 1 <= _integer(i, "y index") <= self.n:
            raise ValueError(f"y{i} out of range")
        return self.n + i - 1

    def yblock(self, i: int, j: int) -> int:
        _integer(j, "slot index")
        if not (1 <= _integer(i, "block index") <= self.s and 1 <= j <= self.halves[i - 1]):
            raise ValueError(f"y{i}_{j} out of range")
        return self._yblock_base + sum(self.halves[: i - 1]) + j - 1

    def z(self, i: int) -> int:
        if not 1 <= _integer(i, "z index") <= self.s:
            raise ValueError(f"z{i} out of range")
        return self._z_base + i - 1

    def name(self, vid: int) -> str:
        return self._names[_checked_vid(self, vid)]

    def equivariant_vids(self) -> range:
        """All non-x variables (the ones killed by the ordinary specialization)."""
        return range(self.n, self.num_vars)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, VariableSpace) and self.n == other.n and self.mu == other.mu
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mu))

    def __repr__(self) -> str:
        return f"VariableSpace(n={self.n}, mu={self.mu})"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "s": self.s, "mu": list(self.mu) if self.mu else []}


def _checked_vid(space: VariableSpace, vid: int) -> int:
    """vid itself if it is an int (not a bool) naming a variable of space; ValueError otherwise."""
    if not 0 <= _integer(vid, "variable id") < space.num_vars:
        raise ValueError(f"variable id {vid} out of range for {space}")
    return vid


def packed_key(exponents: Sequence[int]) -> int:
    """
    The key of the monomial with these exponents, the first variable in the
    most significant field.  Raises ValueError for an exponent outside
    0..MAX_EXPONENT.
    """
    if max(exponents, default=0) > MAX_EXPONENT:
        raise ValueError(f"exponent above {MAX_EXPONENT} in {list(exponents)}")
    return int.from_bytes(bytes(exponents), "big")  # bytes() rejects a negative entry


def _exponent(space: VariableSpace, exps: Mapping[int, int]) -> int:
    """The key of prod x_vid^e; the one place that builds one from {vid: e}."""
    key = 0
    for vid, e in exps.items():
        if _integer(e, "exponent") < 0:
            raise ValueError("negative exponent")
        if e > MAX_EXPONENT:
            raise ValueError(f"exponent {e} above {MAX_EXPONENT}")
        key += e << 8 * (space.num_vars - 1 - _checked_vid(space, vid))
    return key


_DECIMAL = re.compile(r"-?[0-9]+")  # the coefficient strings to_json_dict writes


def _canonical_order(space: VariableSpace):
    """Canonical sort key of a term's key: graded revlex on x, then on the remaining families."""
    n, width = space.n, space.num_vars

    def sort_key(key: int):
        exp = key.to_bytes(width, "big")
        x, rest = exp[:n], exp[n:]
        return (sum(x), tuple(-e for e in reversed(x)), sum(rest), tuple(-e for e in reversed(rest)))

    return sort_key


def divided_difference_terms(
    terms: Mapping[int, int], i: int, width: int, out: dict[int, int] | None = None
) -> dict[int, int]:
    """
    The divided difference in x_i, x_{i+1} on a raw key-to-coefficient map
    whose keys have `width` fields, without index checks; shared by
    Polynomial.divided_difference and the Schubert recursion.  Every output
    field is below the larger of its two inputs, so it cannot overflow.
    With `out`, the result is added into that map (sums that reach 0 are
    dropped), which is returned.  Neither `terms` nor `out` may hold a zero
    coefficient: then every step adds a nonzero sign, so a sum that reaches
    0 was an entry of `out`.
    """
    sa = 8 * (width - i)  # the field of x_i; x_{i+1} is the next one down
    sb = sa - 8
    step = (1 << sa) - (1 << sb)  # x_i up one, x_{i+1} down one
    if out is None:
        out = {}
    for key, c in terms.items():
        a, b = key >> sa & 255, key >> sb & 255
        if a == b:
            continue
        lo, hi, sign = (b, a, c) if a > b else (a, b, -c)
        # (x^a y^b - x^b y^a)/(x - y) = sum_{k=lo}^{hi-1} x^k y^{lo+hi-1-k}, from x^lo y^{hi-1} up
        k = key + ((lo - a) << sa) + ((hi - 1 - b) << sb)
        for _ in range(hi - lo):
            nc = out.get(k, 0) + sign
            if nc:
                out[k] = nc
            else:
                del out[k]
            k += step
    return out


def _check_keys(space: VariableSpace, terms: Mapping[int, int]) -> None:
    """
    ValueError unless every key of terms fits the space's fields: the OR of
    the keys has no guard bit set (no exponent above MAX_EXPONENT) and no bit
    above the top field (a negative key has infinitely many).
    """
    bits = reduce(operator.or_, terms, 0)
    if bits & space._guard or bits >> 8 * space.num_vars:
        raise ValueError(f"a monomial key does not fit the {space.num_vars} fields of {space}")


def _product_terms(a: Mapping[int, int], b: Mapping[int, int], guard: int) -> dict[int, int]:
    """
    The term map of a * b with zero entries dropped: the one product loop,
    shared by Polynomial.__mul__ and Polynomial.substitute.  A field of an
    output key is the sum of two below 128, so it cannot carry, and it passes
    MAX_EXPONENT iff its guard bit is set; the OR of the keys is checked
    before cancellation, so a product raises ValueError even if that term
    cancels.
    """
    out: dict[int, int] = {}
    get = out.get
    items = list(b.items())
    for e1, c1 in a.items():
        for e2, c2 in items:
            e = e1 + e2
            out[e] = get(e, 0) + c1 * c2
    if reduce(operator.or_, out, 0) & guard:
        raise ValueError(f"exponent above {MAX_EXPONENT}")
    return {e: c for e, c in out.items() if c} if 0 in out.values() else out


class Polynomial:
    """
    Sparse polynomial: a map from monomial keys to nonzero ints.  `space`
    and `terms` are read-only attributes, and `terms` is a read-only view of
    the constructor's own copy of its argument, with zero coefficients
    dropped (or of a kernel's own zero-free map, handed over by _owned);
    both raise ValueError for a key that does not fit the space's fields.
    Every operation returns a new polynomial.  Outside this module
    a key is opaque: read it back through text(), degree_in() or the JSON
    form.

    Supports +, -, * (by polynomial or int), ** with nonnegative integer
    exponents, exact substitution, and divided differences.  Mixing spaces
    raises ValueError.
    """

    __slots__ = ("_space", "_terms", "_degrees", "_total_degree")

    def __init__(self, space: VariableSpace, terms: Mapping[int, int]):
        self._space = space
        # one C-level copy when no coefficient is 0
        terms = {e: c for e, c in terms.items() if c} if 0 in terms.values() else dict(terms)
        _check_keys(space, terms)
        self._terms = types.MappingProxyType(terms)
        self._degrees: tuple[int, ...] | None = None  # per-variable degrees, on first degree_in
        self._total_degree: int | None = None  # on first total_degree, or set by product_of_linear_forms

    @property
    def space(self) -> VariableSpace:
        return self._space

    @property
    def terms(self) -> Mapping[int, int]:
        return self._terms

    def __reduce__(self):
        return Polynomial, (self._space, dict(self.terms))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space: VariableSpace) -> "Polynomial":
        return cls(space, {})

    @classmethod
    def integer(cls, space: VariableSpace, k: int) -> "Polynomial":
        return cls(space, {0: _integer(k, "coefficient")})  # 0 is the key of the empty monomial

    @classmethod
    def one(cls, space: VariableSpace) -> "Polynomial":
        return cls(space, {0: 1})

    @classmethod
    def variable(cls, space: VariableSpace, vid: int) -> "Polynomial":
        return cls(space, {1 << 8 * (space.num_vars - 1 - _checked_vid(space, vid)): 1})

    @classmethod
    def monomial(cls, space: VariableSpace, exps: Mapping[int, int], coeff: int = 1) -> "Polynomial":
        """coeff * prod x_vid^e over the {vid: e} map exps."""
        return cls(space, {_exponent(space, exps): _integer(coeff, "coefficient")})

    @classmethod
    def linear_form(cls, space: VariableSpace, coeffs: Mapping[int, int]) -> "Polynomial":
        """Sum of coeff * variable."""
        return cls(space, {_exponent(space, {v: 1}): _integer(c, "coefficient") for v, c in coeffs.items()})

    # -- ring operations ----------------------------------------------------

    def _require_same_space(self, other: "Polynomial") -> None:
        if self._space != other._space:
            raise ValueError(f"variable space mismatch: {self._space} vs {other._space}")

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.integer(self._space, int(other))  # int() turns a bool into 0 or 1
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, 0) + c
        return Polynomial(self._space, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self._space, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if not isinstance(other, (int, Polynomial)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other) -> "Polynomial":
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            return Polynomial(self._space, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_space(other)
        return Polynomial(self._space, _product_terms(self._terms, other._terms, self._space._guard))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if _integer(k, "exponent") < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.one(self._space)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == Polynomial.integer(self._space, int(other)).terms
        return (
            isinstance(other, Polynomial)
            and self._space == other._space
            and self.terms == other.terms
        )

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Total degree over all families; 0 for the zero polynomial."""
        if self._total_degree is None:
            width = self._space.num_vars
            self._total_degree = max((sum(key.to_bytes(width, "big")) for key in self._terms), default=0)
        return self._total_degree

    def variables(self) -> tuple[int, ...]:
        """The ids of the variables that occur in some term, ascending: one OR over the keys."""
        fields = reduce(operator.or_, self._terms, 0).to_bytes(self._space.num_vars, "big")
        return tuple(vid for vid, e in enumerate(fields) if e)

    def degree_in(self, vid: int) -> int:
        """Largest exponent of one variable."""
        if self._degrees is None:  # one transposed pass serves every variable
            width = self._space.num_vars
            exps = (key.to_bytes(width, "big") for key in self._terms)
            self._degrees = tuple(map(max, zip(*exps))) or (0,) * width
        return self._degrees[_checked_vid(self._space, vid)]

    def iter_terms(self) -> Iterator[tuple[int, int]]:
        """Terms in canonical order, leading term first."""
        for key in sorted(self._terms, key=_canonical_order(self._space)):
            yield key, self._terms[key]

    def leading_term(self) -> tuple[int, int]:
        """First term in canonical order, as (opaque key, coefficient); raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        key = min(self._terms, key=_canonical_order(self._space))
        return key, self._terms[key]

    # -- operators specific to this package ----------------------------------

    def swap_x(self, i: int) -> "Polynomial":
        """The simple-reflection action exchanging x_i and x_{i+1}."""
        xi, xj = self._x_pair(i)
        space = self._space
        return self.substitute({xi: Polynomial.variable(space, xj), xj: Polynomial.variable(space, xi)})

    def _x_pair(self, i: int) -> tuple[int, int]:
        if not 1 <= _integer(i, "index") <= self._space.n - 1:
            raise ValueError(f"index {i} out of range for divided difference")
        return i - 1, i

    def divided_difference(self, i: int) -> "Polynomial":
        """
        (f - swap_x(i)(f)) / (x_i - x_{i+1}), computed by exact per-term
        synthetic division; the numerator is always divisible.  The result is
        symmetric in x_i, x_{i+1}, and applying the operator twice gives 0.
        """
        self._x_pair(i)  # range check
        return Polynomial(self._space, divided_difference_terms(self._terms, i, self._space.num_vars))

    def substitute(self, images: Mapping[int, "Polynomial | int"]) -> "Polynomial":
        """
        Ring homomorphism sending variable vid to images[vid]; unmapped
        variables map to themselves.  It is simultaneous: an image may mention
        a substituted variable, which is not substituted again.  Raises
        ValueError for an image that is not a polynomial or an int (a bool
        is refused), an image in another space, or a vid outside it.

        Terms that agree on the substituted exponents share one image
        prod images[vid]^e, built from grouped products on raw term maps
        (each image's powers, each group's image and its product with the
        group's other fields) by _product_terms, the loop * also runs.
        Raises ValueError when the image of some term would hold an exponent
        above MAX_EXPONENT, even if the sum of the images cancels it.
        """
        space = self._space
        imgs: dict[int, Polynomial] = {}
        for vid, img in images.items():
            _checked_vid(space, vid)
            if not isinstance(img, Polynomial):
                img = Polynomial.integer(space, _integer(img, "substitution image"))
            if img._space != space:
                raise ValueError("substitution image in a different variable space")
            imgs[vid] = img

        # (field shift, powers [1, img, img^2, ...] extended on demand) per substituted variable, as raw maps
        guard = space._guard
        powers = [(8 * (space.num_vars - 1 - vid), [{0: 1}, img._terms]) for vid, img in imgs.items()]
        mask = sum(255 << shift for shift, _ in powers)
        kill = sum(255 << shift for shift, pw in powers if not pw[1])  # sent to 0: the term vanishes
        groups: dict[int, dict[int, int]] = {}  # substituted fields -> {the other fields: c}
        for key, c in self._terms.items():
            if key & kill:
                continue
            sub = key & mask
            groups.setdefault(sub, {})[key - sub] = c

        out: dict[int, int] = {}
        get = out.get
        for sub, kept in groups.items():
            image = None
            for shift, pw in powers:
                e = sub >> shift & 255
                if e:
                    while len(pw) <= e:
                        pw.append(_product_terms(pw[-1], pw[1], guard))
                    image = pw[e] if image is None else _product_terms(image, pw[e], guard)
            for key, c in (kept if image is None else _product_terms(kept, image, guard)).items():
                out[key] = get(key, 0) + c
        return Polynomial(space, out)

    # -- rendering ------------------------------------------------------------

    def _named_exponents(self, key: int) -> list[tuple[str, int]]:
        exp = key.to_bytes(self._space.num_vars, "big")
        names = self._space._names
        return [(names[vid], e) for vid, e in enumerate(exp) if e]

    def _monomial_text(self, key: int) -> str:
        return " ".join(name if e == 1 else f"{name}^{e}" for name, e in self._named_exponents(key))

    def text(self) -> str:
        """Human-readable form, terms in descending canonical order."""
        if not self.terms:
            return "0"
        pieces = []
        for key, c in reversed(list(self.iter_terms())):
            mono = self._monomial_text(key)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag} {mono}"
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self.text()})"

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical sparse form with decimal-string coefficients."""
        return {
            "space": self._space.to_json_dict(),
            "terms": [
                {
                    "exp": [[name, e] for name, e in self._named_exponents(key)],
                    "coeff": str(c),
                }
                for key, c in self.iter_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        """
        Inverse of to_json_dict.  Raises ValueError for a space size, block
        size or exponent that is not a JSON integer, an unknown variable
        name, an exponent outside 0..MAX_EXPONENT (127, the most a key's
        field holds), a coefficient that is not a nonzero JSON
        integer or decimal string, a variable or monomial listed twice, or a
        block count `s` other than len(mu), none of which to_json_dict
        produces.
        """
        sp = data["space"]
        space = VariableSpace(sp["n"], tuple(sp["mu"]) or None)
        if _integer(sp["s"], "block count s") != space.s:
            raise ValueError(f"space lists s = {sp['s']!r} for {len(sp['mu'])} blocks")
        name_to_vid = {space.name(vid): vid for vid in range(space.num_vars)}
        terms: dict[int, int] = {}
        for term in data["terms"]:
            exps: dict[int, int] = {}
            for name, e in term["exp"]:
                if name not in name_to_vid:
                    raise ValueError(f"unknown variable {name!r} for {space}")
                if name_to_vid[name] in exps:
                    raise ValueError(f"variable {name} listed twice in {term['exp']}")
                exps[name_to_vid[name]] = e
            coeff = term["coeff"]
            if isinstance(coeff, str) and _DECIMAL.fullmatch(coeff):
                coeff = int(coeff)
            key, c = _exponent(space, exps), _integer(coeff, "coefficient")
            if c == 0:
                raise ValueError("zero coefficient")
            if key in terms:
                raise ValueError(f"monomial {term['exp']} listed twice")
            terms[key] = c
        return cls(space, terms)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _owned(space: VariableSpace, terms: Mapping[int, int]) -> Polynomial:
    """
    A Polynomial over `terms` itself, without the constructor's copy: for a
    map with no zero value that its builder hands over and no one changes
    again (a kernel's own output).
    """
    _check_keys(space, terms)
    product = Polynomial.__new__(Polynomial)
    product._space = space
    product._terms = types.MappingProxyType(terms)
    product._degrees = None
    product._total_degree = None
    return product


def product_of_linear_forms(
    space: VariableSpace, forms: Iterable[Polynomial], *, head: Polynomial | None = None
) -> Polynomial:
    """
    Exact product head * prod forms of affine-linear forms; head is a
    polynomial of at most one term (a class's scalar * monomial) and
    defaults to 1.  Raises ValueError for a head of two or more terms, a
    factor of degree above 1, either from another space, and when a
    variable's exponent in the product would exceed MAX_EXPONENT.

    Every form is split and checked, in the given order, before any term
    work.  Then the running term map starts as the head and takes the forms
    with more terms first, in the given order among equals: a wide form
    multiplies the map while it is small, which cuts the work on the
    equivariant and cross-block classes (they mix two- and three-term
    forms) and leaves the order of the Chern and ordinary classes as it is.
    Each form c + sum a_v x_v multiplies the map in one step over its
    bumps, the constant c first with unit key 0: the output starts as every
    key plus the first bump's unit key, times its coefficient, and then one
    pass over the terms per further bump adds each key plus its unit key,
    times its coefficient.  Entries that cancel are dropped before the next
    form.

    Overflow: over the integers the degree in v of a nonzero product is the
    head's exponent of v plus the number of forms that mention v, and a
    product is 0 iff the head or a form is.  The head's key plus the keys of
    the forms so far counts those in one key, a field per variable, so its
    guard bits show the first exponent above MAX_EXPONENT, in the given
    order, before any term is built.

    Degree: over the integers the top-degree parts multiply without
    cancelling, so a nonzero product has the head's degree plus the number
    of forms with a linear part, and its total_degree() reads that number
    without decoding a key.
    """
    guard = space._guard
    if head is None:
        terms: dict[int, int] = {0: 1}
    elif head._space != space:
        raise ValueError(f"variable space mismatch: {space} vs {head._space}")
    elif len(head._terms) > 1:
        raise ValueError(f"a head of {len(head._terms)} terms; a product of linear forms starts from one")
    else:
        terms = dict(head._terms)
    degrees = sum(terms)  # per field, the head's exponent plus the forms so far that mention its variable
    total = sum(degrees.to_bytes(space.num_vars, "big"))  # the head's degree, then one per linear part
    steps: list[tuple[int, int, list[tuple[int, int]]]] = []  # (-terms, position, bumps) per form
    nonzero = bool(terms)  # the product so far: over the integers it is 0 iff the head or a form is
    for position, form in enumerate(forms):
        if form._space is not space and form._space != space:
            raise ValueError(f"variable space mismatch: {space} vs {form._space}")
        bumps: list[tuple[int, int]] = []  # (unit key, coefficient), the constant first with unit key 0
        for key, c in form._terms.items():
            if not key:
                bumps.insert(0, (0, c))
            elif key & (key - 1) or (key.bit_length() - 1) % 8:  # not one variable to the first power
                raise ValueError(f"non-linear factor of degree {form.total_degree()}")
            else:
                bumps.append((key, c))
        degrees += sum(form._terms)
        total += any(form._terms)  # a linear part has a nonzero key
        if degrees & guard and nonzero:
            raise ValueError(f"exponent above {MAX_EXPONENT} in a product of linear forms")
        nonzero = nonzero and bool(form._terms)
        steps.append((-len(form._terms), position, bumps))
    if not nonzero:
        return _owned(space, {})
    steps.sort()  # the forms with more terms first, in the given order among equals
    for _, _, ((unit, a), *bumps) in steps:
        # the first bump maps keys one to one (a nonzero a times a nonzero c), so no entry is 0 or merged
        out = {key + unit: c * a for key, c in terms.items()}
        get = out.get
        for unit, a in bumps:
            for key, c in terms.items():
                key += unit
                out[key] = get(key, 0) + c * a
        terms = {e: c for e, c in out.items() if c} if 0 in out.values() else out
    product = _owned(space, terms)
    product._total_degree = total
    return product


def bijective_substitutions(
    f: Polynomial, sources: Sequence[int], targets: Sequence[int], parts: Sequence[int] | None = None
) -> Iterator[tuple[tuple[int, ...], Polynomial]]:
    """
    f with sources[i] -> targets[w(i) - 1] substituted, as one (w, image)
    item per one-line word w of S_k (k = len(sources)) that rises inside
    every block, in lexicographic word order.  The blocks are runs of
    consecutive sources of the sizes in `parts` (default: k blocks of one, so
    every word rises).  Raises ValueError, before any substitution, for a
    variable id outside f's space, lists of different lengths, a variable
    listed twice in the two lists together (so no source is also a target),
    or parts that are not positive ints summing to k.

    When f is symmetric in the sources of each block, the image at w is also
    the image at every word that permutes w's letters inside blocks (w's
    block orbit), so one item serves the whole orbit; the caller checks that
    symmetry, this walk assumes it.

    A depth-first walk over raw term maps: level i moves the field of
    sources[i] into the field of one unused target, above the previous
    target of its block and with enough unused targets left above it for
    the rest of the block, so the words that share a prefix share its
    partial map, whose cancelling entries are dropped before the next level.
    A node splits its terms once: those without the source are copied into
    each branch's map, and the rest, grouped by their source exponent e,
    move by one delta e * (target unit - source unit) per group and branch,
    an add per term.  A map that cancelled to zero has no term with the
    source, so it passes down every branch as it is, and each word below it
    gets the image 0.  Only leaves become polynomials, over the walk's own
    maps.

    Overflow: on every path each target field receives exactly one source
    field, both at most MAX_EXPONENT, so a sum cannot carry, and a level's
    output passes MAX_EXPONENT iff the OR of its keys has a guard bit set,
    which raises ValueError when the walk reaches that level.  A term that
    cancelled at an earlier level, or lies only on a word that falls
    outside the rising ones, is not checked.
    """
    space = f._space
    k = len(sources)
    if k != len(targets):
        raise ValueError(f"{k} sources for {len(targets)} targets")
    vids = [_checked_vid(space, vid) for vid in (*sources, *targets)]
    if len(set(vids)) != len(vids):
        raise ValueError(f"a variable is listed twice in sources {list(sources)} and targets {list(targets)}")
    if parts is None:
        parts = [1] * k
    elif any(type(p) is not int or p < 1 for p in parts) or sum(parts) != k:
        raise ValueError(f"block sizes {list(parts)} are not positive integers summing to {k}")
    width, guard = space.num_vars, space._guard
    src = [8 * (width - 1 - vid) for vid in sources]
    units = [1 << 8 * (width - 1 - vid) for vid in targets]
    # per level: whether its source opens a block, and how many sources of that block follow it
    opens = [j == 0 for p in parts for j in range(p)]
    after = [p - 1 - j for p in parts for j in range(p)]
    zero = Polynomial.zero(space)

    def walk(
        terms: Mapping[int, int], top: int, level: int, free: list[int], prefix: tuple[int, ...]
    ) -> Iterator[tuple[tuple[int, ...], Polynomial]]:
        # top: the OR of the keys of terms, a bound on every field; free: the unused letters, ascending
        if level == k:
            yield prefix, _owned(space, terms) if terms else zero
        else:
            s = src[level]
            still: dict[int, int] = {}  # the terms without the source, the same in every branch
            groups: dict[int, list[tuple[int, int]]] = {}  # source exponent e -> its terms
            if top >> s & 255:  # 0: no term has the source (or no term at all), so every move leaves the map as it is
                for key, c in terms.items():
                    e = key >> s & 255
                    if e:
                        groups.setdefault(e, []).append((key, c))
                    else:
                        still[key] = c
            lo = 0 if opens[level] else bisect.bisect(free, prefix[-1])
            for j in range(lo, len(free) - after[level]):
                letter = free[j]
                out, out_top = terms, top
                if groups:
                    step = units[letter - 1] - (1 << s)  # one exponent from the source field to the target field
                    out = still.copy()
                    get = out.get
                    for e, group in groups.items():
                        delta = e * step
                        for key, c in group:
                            key += delta
                            out[key] = get(key, 0) + c
                    out_top = reduce(operator.or_, out, 0)
                    if out_top & guard:
                        raise ValueError(f"exponent above {MAX_EXPONENT} in a substitution")
                    if 0 in out.values():
                        out = {e: c for e, c in out.items() if c}
                yield from walk(out, out_top, level + 1, free[:j] + free[j + 1 :], prefix + (letter,))

    return walk(f._terms, reduce(operator.or_, f._terms, 0), 0, list(range(1, k + 1)), ())
