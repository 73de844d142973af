"""
Exact sparse multivariate polynomials over the integers, with named variable
families and the divided-difference operator.

A VariableSpace declares four families in a fixed total order:

    x1 < ... < xn  <  y1 < ... < yn  <  y{i}_{j} block pairs  <  z1 < ... < zs

The y family carries full-torus coordinates; the y{i}_{j} and z{i} families
carry the block-torus coordinates of a composition (one z per block, one
y{i}_{j} per half-block slot).  A space built without a composition has only
the x and y families.

Coefficients are Python ints (arbitrary precision); exponent vectors are kept
as dense tuples internally and serialized sparsely.  The canonical term order
is graded reverse-lexicographic on the x part (ties broken the same way on
the remaining families), iterated from the smallest term up; the first term
under this order is the "leading" term.  This order serves text(), the JSON
form, leading_term() and the verifier's witnesses; the Schubert-basis
expansion does not use it (it takes the smallest exponent tuple).
"""

from __future__ import annotations

import json
import re
import sys
import types
from typing import Iterable, Iterator, Mapping


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

    __slots__ = ("n", "mu", "s", "halves", "num_vars", "_names", "_yblock_base", "_z_base")

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
        # interned: cohomology.space_for keeps one space per composition, and they share names
        init(self, "_names", tuple(map(sys.intern, names)))

    def __setattr__(self, attr, value):
        raise AttributeError(f"VariableSpace is immutable; cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"VariableSpace is immutable; cannot delete {attr}")

    def __reduce__(self):
        return VariableSpace, (self.n, self.mu)

    def x(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"x{i} out of range")
        return i - 1

    def yfull(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"y{i} out of range")
        return self.n + i - 1

    def yblock(self, i: int, j: int) -> int:
        if not (1 <= i <= self.s and 1 <= j <= self.halves[i - 1]):
            raise ValueError(f"y{i}_{j} out of range")
        return self._yblock_base + sum(self.halves[: i - 1]) + j - 1

    def z(self, i: int) -> int:
        if not 1 <= i <= self.s:
            raise ValueError(f"z{i} out of range")
        return self._z_base + i - 1

    def name(self, vid: int) -> str:
        return self._names[vid]

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
    """vid itself if it names a variable of space; ValueError otherwise."""
    if not 0 <= vid < space.num_vars:
        raise ValueError(f"variable id {vid} out of range for {space}")
    return vid


def _exponent(space: VariableSpace, exps: Mapping[int, int]) -> tuple[int, ...]:
    """The exponent vector of prod x_vid^e; the one place that builds one from {vid: e}."""
    exp = [0] * space.num_vars
    for vid, e in exps.items():
        if _integer(e, "exponent") < 0:
            raise ValueError("negative exponent")
        exp[_checked_vid(space, vid)] = e
    return tuple(exp)


_DECIMAL = re.compile(r"-?[0-9]+")  # the coefficient strings to_json_dict writes


def _term_key(n: int, exp: tuple[int, ...]):
    """Canonical sort key: graded revlex on x, then on the remaining families."""
    x = exp[:n]
    rest = exp[n:]
    return (
        sum(x),
        tuple(-e for e in reversed(x)),
        sum(rest),
        tuple(-e for e in reversed(rest)),
    )


def divided_difference_terms(
    terms: Mapping[tuple[int, ...], int], i: int
) -> dict[tuple[int, ...], int]:
    """
    The divided difference in x_i, x_{i+1} on a raw exponent-to-coefficient
    map, without index checks; shared by Polynomial.divided_difference and
    the Schubert recursion.
    """
    xi, xj = i - 1, i
    out: dict[tuple[int, ...], int] = {}
    for exp, c in terms.items():
        a, b = exp[xi], exp[xj]
        if a == b:
            continue
        lo, hi, sign = (b, a, c) if a > b else (a, b, -c)
        base = list(exp)
        # (x^a y^b - x^b y^a)/(x - y) = sum_{k=lo}^{hi-1} x^k y^{lo+hi-1-k}
        for k in range(lo, hi):
            base[xi] = k
            base[xj] = lo + hi - 1 - k
            key = tuple(base)
            nc = out.get(key, 0) + sign
            if nc:
                out[key] = nc
            elif key in out:
                del out[key]
    return out


class Polynomial:
    """
    Sparse polynomial: a map from exponent vectors to nonzero ints.  `space`
    and `terms` are read-only attributes, and `terms` is a read-only view of
    the constructor's own copy of its argument, with zero coefficients
    dropped; every operation returns a new polynomial.  Outside this module
    an exponent vector is an opaque key: read it back through text(),
    degree_in() or the JSON form.

    Supports +, -, * (by polynomial or int), ** with nonnegative integer
    exponents, exact substitution, and divided differences.  Mixing spaces
    raises ValueError.
    """

    __slots__ = ("_space", "_terms", "_degrees")

    def __init__(self, space: VariableSpace, terms: Mapping[tuple[int, ...], int]):
        self._space = space
        # exponent tuples do not cache their hash, so filter only when needed
        terms = {e: c for e, c in terms.items() if c} if 0 in terms.values() else dict(terms)
        self._terms = types.MappingProxyType(terms)
        self._degrees: tuple[int, ...] | None = None  # per-variable degrees, on first degree_in

    @property
    def space(self) -> VariableSpace:
        return self._space

    @property
    def terms(self) -> Mapping[tuple[int, ...], int]:
        return self._terms

    def __reduce__(self):
        return Polynomial, (self._space, dict(self.terms))

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, space: VariableSpace) -> "Polynomial":
        return cls(space, {})

    @classmethod
    def integer(cls, space: VariableSpace, k: int) -> "Polynomial":
        return cls.monomial(space, {}, k)

    @classmethod
    def one(cls, space: VariableSpace) -> "Polynomial":
        return cls.monomial(space, {})

    @classmethod
    def variable(cls, space: VariableSpace, vid: int) -> "Polynomial":
        exp = [0] * space.num_vars
        exp[_checked_vid(space, vid)] = 1
        return cls(space, {tuple(exp): 1})

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
        out: dict[tuple[int, ...], int] = {}
        items = list(other.terms.items())
        for e1, c1 in self.terms.items():
            for e2, c2 in items:
                e = tuple(map(int.__add__, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return Polynomial(self._space, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int) or k < 0:
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
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, vid: int) -> int:
        """Largest exponent of one variable."""
        if self._degrees is None:  # one transposed pass serves every variable
            self._degrees = tuple(map(max, zip(*self._terms))) or (0,) * self._space.num_vars
        return self._degrees[_checked_vid(self._space, vid)]

    def iter_terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Terms in canonical order, leading term first."""
        n = self._space.n
        for exp in sorted(self.terms, key=lambda e: _term_key(n, e)):
            yield exp, self.terms[exp]

    def leading_term(self) -> tuple[tuple[int, ...], int]:
        """First term in canonical order; raises on the zero polynomial."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        n = self._space.n
        exp = min(self.terms, key=lambda e: _term_key(n, e))
        return exp, self.terms[exp]

    # -- operators specific to this package ----------------------------------

    def swap_x(self, i: int) -> "Polynomial":
        """The simple-reflection action exchanging x_i and x_{i+1}."""
        xi, xj = self._x_pair(i)
        space = self._space
        return self.substitute({xi: Polynomial.variable(space, xj), xj: Polynomial.variable(space, xi)})

    def _x_pair(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= self._space.n - 1:
            raise ValueError(f"index {i} out of range for divided difference")
        return i - 1, i

    def divided_difference(self, i: int) -> "Polynomial":
        """
        (f - swap_x(i)(f)) / (x_i - x_{i+1}), computed by exact per-term
        synthetic division; the numerator is always divisible.  The result is
        symmetric in x_i, x_{i+1}, and applying the operator twice gives 0.
        """
        self._x_pair(i)  # range check
        return Polynomial(self._space, divided_difference_terms(self.terms, i))

    def substitute(self, images: Mapping[int, "Polynomial | int"]) -> "Polynomial":
        """
        Ring homomorphism sending variable vid to images[vid]; unmapped
        variables map to themselves.  It is simultaneous: an image may mention
        a substituted variable, which is not substituted again.  Raises
        ValueError for an image in another space or a vid outside it.

        When every image has at most one term (a variable, c * monomial, an
        integer or 0), each term maps to exactly one term, so the map is an
        exponent remap with no polynomial products.  Otherwise terms that
        agree on the substituted exponents share one image
        prod images[vid]^e, built from grouped products.
        """
        space = self._space
        imgs: dict[int, Polynomial] = {}
        for vid, img in images.items():
            _checked_vid(space, vid)
            if isinstance(img, int):
                img = Polynomial.integer(space, img)
            if img._space != space:
                raise ValueError("substitution image in a different variable space")
            imgs[vid] = img
        if all(len(img.terms) <= 1 for img in imgs.values()):
            return self._remap(imgs)

        powers = {vid: [Polynomial.one(space), img] for vid, img in imgs.items()}
        groups: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        for exp, c in self.terms.items():
            groups.setdefault(tuple(exp[vid] for vid in powers), {})[exp] = c

        out: dict[tuple[int, ...], int] = {}
        for sub, terms in groups.items():
            image = None
            for pw, e in zip(powers.values(), sub):
                if e:
                    while len(pw) <= e:
                        pw.append(pw[-1] * pw[1])
                    image = pw[e] if image is None else image * pw[e]
            kept: dict[tuple[int, ...], int] = {}  # one group at a time, to bound memory
            for exp, c in terms.items():
                k = list(exp)
                for vid in powers:
                    k[vid] = 0
                kept[tuple(k)] = c
            product = kept if image is None else (Polynomial(space, kept) * image).terms
            for exp, c in product.items():
                out[exp] = out.get(exp, 0) + c
        return Polynomial(space, out)

    def _remap(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """substitute() for images of at most one term each: c x^a -> c' x^a'."""
        moves: list[tuple[int, int, int]] = []  # (source, target, multiplicity)
        scales: list[tuple[int, int]] = []  # a term gains c ** e for source exponent e
        kills: list[int] = []  # sources whose image is 0
        for vid, img in images.items():
            if not img.terms:
                kills.append(vid)
                continue
            ((mono, c),) = img.terms.items()
            moves.extend((vid, target, m) for target, m in enumerate(mono) if m)
            if c != 1:
                scales.append((vid, c))
        sources = tuple(images)

        out: dict[tuple[int, ...], int] = {}
        for exp, c in self.terms.items():
            if kills and any(exp[vid] for vid in kills):
                continue
            k = list(exp)
            for vid in sources:
                k[vid] = 0
            for vid, target, m in moves:  # read from exp, so the map is simultaneous
                k[target] += exp[vid] * m
            for vid, b in scales:
                c *= b ** exp[vid]
            key = tuple(k)
            out[key] = out.get(key, 0) + c
        return Polynomial(self._space, out)

    # -- rendering ------------------------------------------------------------

    def _named_exponents(self, exp: tuple[int, ...]) -> list[tuple[str, int]]:
        return [(self._space.name(vid), e) for vid, e in enumerate(exp) if e]

    def _monomial_text(self, exp: tuple[int, ...]) -> str:
        return " ".join(name if e == 1 else f"{name}^{e}" for name, e in self._named_exponents(exp))

    def text(self) -> str:
        """Human-readable form, terms in descending canonical order."""
        if not self.terms:
            return "0"
        pieces = []
        for exp, c in reversed(list(self.iter_terms())):
            mono = self._monomial_text(exp)
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
                    "exp": [[name, e] for name, e in self._named_exponents(exp)],
                    "coeff": str(c),
                }
                for exp, c in self.iter_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polynomial":
        """
        Inverse of to_json_dict.  Raises ValueError for a space size, block
        size or exponent that is not a JSON integer, an unknown variable
        name, a negative exponent, a coefficient that is not a nonzero JSON
        integer or decimal string, a variable or monomial listed twice, or a
        block count `s` other than len(mu), none of which to_json_dict
        produces.
        """
        sp = data["space"]
        space = VariableSpace(sp["n"], tuple(sp["mu"]) or None)
        if _integer(sp["s"], "block count s") != space.s:
            raise ValueError(f"space lists s = {sp['s']!r} for {len(sp['mu'])} blocks")
        name_to_vid = {space.name(vid): vid for vid in range(space.num_vars)}
        terms: dict[tuple[int, ...], int] = {}
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


def product_of_linear_forms(space: VariableSpace, forms: Iterable[Polynomial]) -> Polynomial:
    """
    Exact product of affine-linear forms; the empty product is 1.  Raises
    ValueError for a factor of degree above 1 or from another space.

    Each form c + sum a_v x_v multiplies the running term map in one step: a
    term yields its own key times c and, per variable v, its key with the one
    exponent of v raised, times a_v.  Entries that cancel are dropped before
    the next form.
    """
    terms: dict[tuple[int, ...], int] = {(0,) * space.num_vars: 1}
    for form in forms:
        const = 0
        bumps: list[tuple[int, int]] = []  # (vid, coefficient)
        for exp, c in form._terms.items():
            degree = sum(exp)
            if degree > 1:
                raise ValueError(f"non-linear factor of degree {form.total_degree()}")
            if degree:
                bumps.append((exp.index(1), c))
            else:
                const = c
        if form._space != space:
            raise ValueError(f"variable space mismatch: {space} vs {form._space}")
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for exp, c in terms.items():
            if const:
                out[exp] = get(exp, 0) + c * const
            key = list(exp)
            for vid, a in bumps:
                key[vid] += 1
                k = tuple(key)
                key[vid] -= 1
                out[k] = get(k, 0) + c * a
        terms = {e: c for e, c in out.items() if c} if 0 in out.values() else out
    return Polynomial(space, terms)
