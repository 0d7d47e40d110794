"""Symbolic exterior calculus with polynomial coefficients.

Differential forms on R^n are stored on the lexicographic wedge basis
dx_S, S an ascending subset of {1..n}.  Forms of degree i and n-i are
identified with vectors of C(n, min(i, n-i)) polynomial components; the
high-degree identification carries the permutation sign that sorts
(S, complement(S)) into (1..n).  That sign choice is what makes the n=3
operators come out as the classical grad, curl and div, and it is pinned
by tests rather than assumed.  The identification is stated once, in
_level and _slots; both iso maps and the level helpers read it from there.
The level rule is checked once, too: iso_from_components refuses a vector
whose level does not fit the target degree, and nabla relies on that.

The basis is one table, _basis(n, size): the subsets of a size, each keyed
by itself.  subsets and both sides of _slots read it, and _subset is the one
lookup of a key in it: the form constructor, coefficient and complement_sign
all call it, so each refuses a key that is no basis subset (descending,
repeated or out of range) with the same message.

The combinatorics of the nabla route depend only on n and a subset, so
each is built once and cached, bounded by the (n, subset) pairs seen: the
basis table, complement_sign per subset, and per subset s the
(t, key of dx_t ^ dx_s, sign) entries exterior_derivative reads.  _slots is
not cached: it reads both sides from the basis table per call, and its high
side calls complement_sign once per slot on every iso call, so a traced run
that follows an untraced one still enters complement_sign.  The zero test
caches one more fact, whether a word of length 1 or 2 is zero, per
(n, word) it meets: at most n single operators and 2n pairs per n, as each
i has at most two successors, so at most 3n words per n.

The operator chain machinery (nabla, apply_word) and the exact
zero-operator decision procedure live here too; apply_word folds an input
with a Fraction as the int vector D*v divided by D once at the end, unless D
is past the cutoff, and an all-int input as given, as its docstring states.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from ._record import Record
from .errors import LevelMismatchError
from .graph import check_bound
from .polynomial import Polynomial, Scalar, _built
from .words import CompositionWord, WordLike, as_word

Subset = tuple[int, ...]


@functools.cache
def _basis(n: int, size: int) -> dict[Subset, Subset]:
    """Ascending subsets of {1..n} of a size, lexicographic, each keyed by
    itself: an equal key, such as (True,) for (1,), finds the tuple stored."""
    return {s: s for s in itertools.combinations(range(1, n + 1), size)}


def _subset(basis: dict[Subset, Subset], key, size: int) -> Subset:
    """The basis subset a key names, or the refusal of a key that names none."""
    try:
        key = tuple(key)
        s = basis.get(key)
    except TypeError:  # a key that is not iterable, or holds an unhashable element
        s = None
    if s is None:
        raise ValueError(f"bad basis subset {key} for degree {size}")
    return s


def subsets(n: int, size: int) -> list[Subset]:
    """Ascending subsets of {1..n} of the given size, in lexicographic order."""
    check_bound(n, "n", 0)  # before the cache, which would take 3.0 for a cached 3
    check_bound(size, "size", 0)
    return list(_basis(n, size))


def complement_sign(s: Subset, n: int) -> tuple[Subset, int]:
    """Complement T of S in {1..n} and the sign of the permutation (S, T).

    S must be a basis subset; any other is refused as a form's key is, by
    _subset, and so is a value that is not iterable (named at degree 1, as
    one element) or holds an unhashable element.  The k-th smallest s_k
    exceeds s_k - k elements of T, so (S, T) has sum(S) - |S|(|S|+1)/2
    inversions.
    """
    check_bound(n, "n", 0)  # before the cache, which would take 3.0 for a cached 3
    try:
        s = tuple(s)
    except TypeError:  # not iterable: the empty table refuses it as one element
        _subset({}, s, 1)
    try:
        return _complement_sign(s, n)
    except TypeError:  # an unhashable element: the empty table refuses the tuple read
        _subset({}, s, len(s))


@functools.cache
def _complement_sign(s: Subset, n: int) -> tuple[Subset, int]:
    s = _subset(_basis(n, len(s)), s, len(s))
    t = tuple(x for x in range(1, n + 1) if x not in s)
    return t, -1 if (sum(s) - len(s) * (len(s) + 1) // 2) % 2 else 1


def _level(degree: int, n: int) -> int:
    """Level of the coefficient space that forms of this degree live on."""
    return min(degree, n - degree)


def _slots(n: int, degree: int) -> list[tuple[Subset, int]]:
    """Basis subset and sign behind each slot of a degree's coefficient vector.

    Slot s, in lexicographic order, holds the coefficient of dx_s up to
    degree n // 2, and sign(S, T) times that of dx_T, T = complement(s), above.
    """
    basis = _basis(n, _level(degree, n))
    if degree <= n // 2:
        return [(s, 1) for s in basis]
    return [complement_sign(s, n) for s in basis]


@functools.cache
def _wedges(s: Subset, n: int) -> tuple[tuple[int, Subset, int], ...]:
    """(t, key of dx_t ^ dx_s, sign) for each t in 1..n not in s; the sign is
    (-1)^pos, as dx_t moves past the pos elements of s below it."""
    out = []
    pos = 0
    for t in range(1, n + 1):
        if t in s:
            pos += 1
        else:
            out.append((t, s[:pos] + (t,) + s[pos:], -1 if pos % 2 else 1))
    return tuple(out)


class DifferentialForm(Record):
    """Polynomial differential form; components keyed by ascending subsets.

    Absent keys are zero.  Zero components are dropped at construction.
    """

    __match_args__ = ("n", "degree", "components")

    def __init__(self, n: int, degree: int, components: Mapping[Subset, Polynomial]):
        check_bound(n, "dimension", 3)
        check_bound(degree, "degree", 0, n)
        basis = _basis(n, degree)
        canon: dict[Subset, Polynomial] = {}
        for key, poly in components.items():
            s = _subset(basis, key, degree)
            if not isinstance(poly, Polynomial):
                raise ValueError(f"component {poly!r} is not a polynomial")
            if poly.n_vars != n:
                raise ValueError("component polynomial has wrong variable count")
            if poly.terms:
                canon[s] = poly
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "components", canon)

    def is_zero(self) -> bool:
        return not self.components

    def __hash__(self) -> int:
        # components is a dict, so hash its items, as Polynomial hashes its terms
        return hash((self.n, self.degree, frozenset(self.components.items())))

    def coefficient(self, s: Subset) -> Polynomial:
        p = self.components.get(_subset(_basis(self.n, self.degree), s, self.degree))
        return Polynomial.zero(self.n) if p is None else p


class ComponentVector(Record):
    """Element of the coefficient space at a level: C(n, level) polynomials
    in lexicographic slot order."""

    __match_args__ = ("n", "level", "entries")

    def __init__(self, n: int, level: int, entries: Iterable[Polynomial]):
        entries = tuple(entries)
        check_bound(n, "dimension", 3)
        check_bound(level, "level", 0, n // 2)
        expected = math.comb(n, level)
        if len(entries) != expected:
            raise ValueError(f"level {level} in dimension {n} needs {expected} entries, "
                             f"got {len(entries)}")
        for p in entries:
            if not isinstance(p, Polynomial):
                raise ValueError(f"entry {p!r} is not a polynomial")
            if p.n_vars != n:
                raise ValueError("entry polynomial has wrong variable count")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "entries", entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    @classmethod
    def zero(cls, n: int, level: int) -> "ComponentVector":
        return cls(n, level, tuple(Polynomial.zero(n) for _ in range(math.comb(n, level))))

    def __add__(self, other: "ComponentVector") -> "ComponentVector":
        if (self.n, self.level) != (other.n, other.level):
            raise ValueError("component vectors of different shape")
        return ComponentVector(
            self.n, self.level, tuple(a + b for a, b in zip(self.entries, other.entries))
        )

    def scale(self, c) -> "ComponentVector":
        return ComponentVector(self.n, self.level, tuple(p.scale(c) for p in self.entries))


def exterior_derivative(form: DifferentialForm) -> DifferentialForm:
    """d on polynomial forms; returns the zero top form when degree == n."""
    n = form.n
    if form.degree == n:
        return DifferentialForm(n, n, {})
    out: dict[Subset, Polynomial] = {}
    for s, g in form.components.items():
        for t, key, sign in _wedges(s, n):
            dg = g.diff(t)
            if not dg.terms:
                continue
            contrib = dg.scale(sign)
            old = out.get(key)
            out[key] = contrib if old is None else old + contrib
    return DifferentialForm(n, form.degree + 1, out)


def iso_to_components(form: DifferentialForm) -> ComponentVector:
    """Push a form down to its coefficient vector."""
    n, get = form.n, form.components.get
    zero = Polynomial.zero(n)  # every absent slot
    entries = tuple(get(s, zero).scale(sign) for s, sign in _slots(n, form.degree))
    return ComponentVector(n, _level(form.degree, n), entries)


def iso_from_components(v: ComponentVector, target_degree: int) -> DifferentialForm:
    """Lift a coefficient vector to a form of the requested degree.

    target_degree must be v.level (low side) or n - v.level (high side).
    """
    check_bound(target_degree, "degree", 0, v.n)
    if (expected := _level(target_degree, v.n)) != v.level:
        raise LevelMismatchError(expected, v.level)
    # a form's absent keys are zero, so only nonzero entries are lifted
    comps = {s: p.scale(sign) for (s, sign), p in zip(_slots(v.n, target_degree), v.entries) if p}
    return DifferentialForm(v.n, target_degree, comps)


def domain_level(i: int, n: int) -> int:
    """Level of the coefficient space nabla_i consumes."""
    check_bound(n, "dimension", 3)
    check_bound(i, "operator index", 1, n)
    return _level(i - 1, n)


def codomain_level(i: int, n: int) -> int:
    """Level of the coefficient space nabla_i produces."""
    check_bound(n, "dimension", 3)
    check_bound(i, "operator index", 1, n)
    return _level(i, n)


def nabla(i: int, v: ComponentVector) -> ComponentVector:
    """The operator nabla_i: lift (which checks v's level), d, push down."""
    check_bound(i, "operator index", 1, v.n)
    return iso_to_components(exterior_derivative(iso_from_components(v, i - 1)))


# Largest bit length of the shared denominator D for which apply_word folds
# nabla over integer numerators.  Each numerator grows by D over the term's
# own denominator, and that ratio, not D, decides which fold is faster: at
# n = 3, word (1, 3, 1), on a 2-vCPU Xeon, the integer fold was 2.0x faster
# for 100 terms over one shared 600-bit denominator, but 3.1x slower over
# distinct 60-bit ones (D of 5 392 bits) and 640x over 1 000-digit ones.
_CLEARED_DENOMINATOR_BITS = 512


def apply_word(w: WordLike, v: ComponentVector) -> ComponentVector:
    """Fold nabla over the word in application order.

    The chain is linear over Z, so it maps v = (D*v)/D to chain(D*v)/D, D
    the lcm of the denominators of v's Fraction coefficients.  An all-int v
    folds as given.  A v with a Fraction folds as the int vector D*v when D
    has at most _CLEARED_DENOMINATOR_BITS bits (D = 1 included), and as given
    past that; either way each output term is divided once at the end, by D
    or by 1, so every output coefficient is an int when it is integral and a
    Fraction otherwise.
    """
    word = as_word(w, v.n)
    word.require_meaningful()
    n = v.n
    # ints and empty slots are skipped, as the zero-test probe fills one slot
    # of many with an int; the lcm stops growing past the cutoff, as the lcm
    # of many long denominators alone can cost more than the fold
    dens = {c.denominator for p in v.entries if p.terms for c in p.terms.values()
            if isinstance(c, Fraction)}
    d, cleared = 1, True
    for den in dens:
        d = math.lcm(d, den)
        if d.bit_length() > _CLEARED_DENOMINATOR_BITS:
            d, cleared = 1, False  # fold as given, and divide by 1
            break
    # keys carry over and nonzero values stay nonzero, so both conversions
    # build canonical polynomials directly
    if dens and cleared:
        v = ComponentVector(n, v.level, tuple(
            _built(n, {e: c.numerator * (d // c.denominator) for e, c in p.terms.items()})
            for p in v.entries
        ))
    for i in word.indices:
        v = nabla(i, v)
    if dens:
        v = ComponentVector(n, v.level, tuple(_built(n, _over(p.terms, d)) for p in v.entries))
    return v


def _over(terms: dict[tuple[int, ...], Scalar], d: int) -> dict[tuple[int, ...], Scalar]:
    """Each coefficient over d (an int over D, or a Fraction over 1): the
    quotient when it is integral, else a Fraction, kept as it is over 1."""
    out: dict[tuple[int, ...], Scalar] = {}
    for e, c in terms.items():
        q, r = divmod(c.numerator, c.denominator * d)
        out[e] = q if not r else c if d == 1 else Fraction(c, d)
    return out


def is_zero_operator(w: WordLike, n: int) -> bool:
    """Decide exactly whether the composed operator annihilates everything.

    A word of length 1 or 2 is read from _zero_short, which decides each
    such word once per process by the probe below.  A longer word is zero
    when one of its consecutive pairs (i, j) is: the chain is
    A . (nabla_j . nabla_i) . B with A and B linear, so a zero middle makes
    the whole zero whatever A and B are.  Such a word is checked to compose
    first, then its pairs are read in order from the same table; the first
    zero pair ends it, and a word with no zero pair is decided by the probe
    on the whole word.  No answer reads the combinatorial j = i + 1 rule, so
    classify_word stays an independent check.
    """
    word = as_word(w, n)
    if len(word) <= 2:
        return _zero_short(n, word.indices)
    word.require_meaningful()
    if any(_zero_short(n, pair) for pair in itertools.pairwise(word.indices)):
        return True
    return _zero_by_probe(word)


@functools.cache
def _zero_short(n: int, indices: tuple[int, ...]) -> bool:
    """The probe decision of a word of length 1 or 2, held once it is made;
    a word that does not compose raises from the probe, so no refusal is
    held."""
    return _zero_by_probe(CompositionWord(n, indices))


def _zero_by_probe(word: CompositionWord) -> bool:
    """Decide a word by one fold of apply_word: x^(L, ..., L) in slot 0.

    Each nabla_i = iso . d . iso is first order and homogeneous with constant
    coefficients, so a chain of length L is sum_{|a|=L} C_a d^a with constant
    matrices C_a.  With b = (L, ..., L) >= a, d^a x^b = (b!/(b-a)!) x^(b-a)
    with a nonzero factor, and the monomials x^(b-a) are distinct over a, so
    nothing cancels: fed x^b in slot 0 alone, the chain gives zero iff column
    0 of every C_a is zero.  A permutation of the coordinates commutes with d
    and, up to its orientation sign, with the iso maps (the Hodge star up to
    sign), and it fixes x^b and carries slot 0 of a level to any other slot;
    so a chain that kills x^b in slot 0 kills it in every slot, and every
    column of every C_a is zero.
    """
    n = word.n
    level = domain_level(word.indices[0], n)
    zero = Polynomial.zero(n)
    probe = (Polynomial.monomial(n, (len(word),) * n),) + (zero,) * (math.comb(n, level) - 1)
    return apply_word(word, ComponentVector(n, level, probe)).is_zero()
