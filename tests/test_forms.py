import bisect
import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from nablachains import (
    ComponentVector,
    DifferentialForm,
    LevelMismatchError,
    NotComposableError,
    Polynomial,
    TrivialityClass,
    apply_word,
    classify_word,
    enumerate_words,
    exterior_derivative,
    is_zero_operator,
    iso_from_components,
    iso_to_components,
    nabla,
    parse_polynomial,
)
from nablachains import forms
from nablachains.forms import complement_sign, domain_level, codomain_level, subsets
from nablachains.graph import successors
from nablachains.words import CompositionWord


def rand_poly(rng: random.Random, n: int, terms: int = 3, max_exp: int = 2) -> Polynomial:
    d = {}
    for _ in range(terms):
        e = tuple(rng.randrange(0, max_exp + 1) for _ in range(n))
        d[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
    return Polynomial(n, d)


def rand_form(rng: random.Random, n: int, degree: int) -> DifferentialForm:
    return DifferentialForm(
        n, degree, {s: rand_poly(rng, n) for s in subsets(n, degree)}
    )


def rand_vector(rng: random.Random, n: int, level: int) -> ComponentVector:
    return ComponentVector(
        n, level, tuple(rand_poly(rng, n) for _ in range(math.comb(n, level)))
    )


def test_exterior_derivative_product_of_coordinates():
    f = parse_polynomial("x1*x2", 3)
    d = exterior_derivative(DifferentialForm(3, 0, {(): f}))
    assert d.degree == 1
    assert d.coefficient((1,)) == parse_polynomial("x2", 3)
    assert d.coefficient((2,)) == parse_polynomial("x1", 3)
    assert d.coefficient((3,)).is_zero()


def test_exterior_derivative_one_form_wedge_signs():
    rng = random.Random(7)
    fs = [rand_poly(rng, 3) for _ in range(3)]
    form = DifferentialForm(3, 1, {(1,): fs[0], (2,): fs[1], (3,): fs[2]})
    d = exterior_derivative(form)
    assert d.coefficient((2, 3)) == fs[2].diff(2) - fs[1].diff(3)
    assert d.coefficient((1, 3)) == fs[2].diff(1) - fs[0].diff(3)
    assert d.coefficient((1, 2)) == fs[1].diff(1) - fs[0].diff(2)


def test_top_degree_derivative_is_zero():
    form = DifferentialForm(3, 3, {(1, 2, 3): parse_polynomial("x1", 3)})
    assert exterior_derivative(form).is_zero()


@pytest.mark.parametrize("n", range(3, 7))
def test_d_squared_is_zero(n):
    rng = random.Random(100 + n)
    for degree in range(0, n + 1):
        for _ in range(50):
            form = rand_form(rng, n, degree)
            assert exterior_derivative(exterior_derivative(form)).is_zero()


def test_complement_sign_n3():
    assert complement_sign((1,), 3) == ((2, 3), 1)
    assert complement_sign((2,), 3) == ((1, 3), -1)
    assert complement_sign((3,), 3) == ((1, 2), 1)
    assert complement_sign((), 3) == ((1, 2, 3), 1)
    # the memo is keyed on tuple(S), so a list is still an S
    assert complement_sign([2], 3) == complement_sign((2,), 3)
    assert complement_sign([1, 3], 4) == ((2, 4), -1)


@pytest.mark.parametrize("n", range(1, 11))
def test_complement_sign_counts_inversions(n):
    for size in range(n + 1):
        for s in subsets(n, size):
            t, sign = complement_sign(s, n)
            assert t == tuple(x for x in range(1, n + 1) if x not in s)
            seq = s + t
            inversions = sum(seq[a] > seq[b] for a, b in combinations(range(n), 2))
            assert sign == (-1) ** inversions


@pytest.mark.parametrize("n", range(1, 6))
def test_complement_sign_reads_only_basis_subsets(n):
    # every ordering of every basis subset: the ascending one is read, with
    # the inversion count's sign, and each other one is refused
    for size in range(n + 1):
        for s in combinations(range(1, n + 1), size):
            for order in permutations(s):
                if order != s:
                    with pytest.raises(ValueError, match=r"^bad basis subset "):
                        complement_sign(order, n)
                    continue
                t, sign = complement_sign(order, n)
                seq = s + t
                assert sign == (-1) ** sum(seq[a] > seq[b] for a, b in combinations(range(n), 2))


def test_iso_high_side_n3():
    rng = random.Random(5)
    f1, f2, f3 = (rand_poly(rng, 3) for _ in range(3))
    form = DifferentialForm(3, 2, {(2, 3): f1, (1, 3): -f2, (1, 2): f3})
    v = iso_to_components(form)
    assert v.level == 1
    assert v.entries == (f1, f2, f3)


def test_iso_zero_and_top_forms_n3():
    g = parse_polynomial("x1^2 - x3", 3)
    assert iso_to_components(DifferentialForm(3, 0, {(): g})).entries == (g,)
    top = DifferentialForm(3, 3, {(1, 2, 3): g})
    v = iso_to_components(top)
    assert v.level == 0 and v.entries == (g,)
    assert iso_from_components(v, 3) == top


def test_iso_from_components_bad_degree():
    v = ComponentVector.zero(3, 1)
    with pytest.raises(LevelMismatchError):
        iso_from_components(v, 3)  # n - level = 2, level = 1; 3 fits neither


P3 = Polynomial.monomial(3, (1, 0, 0))
P4 = Polynomial.monomial(4, (1, 0, 0, 0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DifferentialForm(3, 4, {}), "degree 4 out of range 0..3"),
        (lambda: DifferentialForm(3, 2, {(2, 1): P3}), "bad basis subset (2, 1) for degree 2"),
        (lambda: DifferentialForm(3, 1, {(4,): P3}), "bad basis subset (4,) for degree 1"),
        (lambda: DifferentialForm(3, 1, {(1.5,): P3}), "bad basis subset (1.5,) for degree 1"),
        (lambda: DifferentialForm(3, 1, {1: P3}), "bad basis subset 1 for degree 1"),
        (lambda: DifferentialForm(3, 1, Pairs([([[1]], P3)])), "bad basis subset ([1],) for degree 1"),
        (lambda: DifferentialForm(3, 1, {(1,): P4}), "component polynomial has wrong variable count"),
        (lambda: DifferentialForm(3, 1, {(1,): 5}), "component 5 is not a polynomial"),
        (lambda: ComponentVector(3, 2, (P3,) * 3), "level 2 out of range 0..1"),
        (lambda: ComponentVector(3, 1, (P3,) * 2), "level 1 in dimension 3 needs 3 entries, got 2"),
        (lambda: ComponentVector(3, 1, (P3, P3, P4)), "entry polynomial has wrong variable count"),
        (lambda: ComponentVector(3, 0, [5]), "entry 5 is not a polynomial"),
        (lambda: ComponentVector.zero(3, 1) + ComponentVector.zero(3, 0),
         "component vectors of different shape"),
        # every reader of a subset refuses it as the constructor does; a
        # message met above gets an id of its own, so no case's id changes
        (lambda: complement_sign((3, 1), 3), "bad basis subset (3, 1) for degree 2"),
        pytest.param(lambda: complement_sign((4,), 3), "bad basis subset (4,) for degree 1",
                     id="complement_sign-bad basis subset (4,) for degree 1"),
        (lambda: complement_sign((1, 1), 3), "bad basis subset (1, 1) for degree 2"),
        pytest.param(lambda: complement_sign(1, 3), "bad basis subset 1 for degree 1",
                     id="complement_sign-bad basis subset 1 for degree 1"),
        pytest.param(lambda: complement_sign(([1],), 3), "bad basis subset ([1],) for degree 1",
                     id="complement_sign-bad basis subset ([1],) for degree 1"),
        # an iterator is read once, and refused as the tuple it gave
        pytest.param(lambda: complement_sign(iter([1, [2]]), 3), "bad basis subset (1, [2]) for degree 2",
                     id="complement_sign-iterator"),
        pytest.param(lambda: DifferentialForm(3, 2, {(1, 2): P3}).coefficient((2, 1)),
                     "bad basis subset (2, 1) for degree 2",
                     id="coefficient-bad basis subset (2, 1) for degree 2"),
        (lambda: DifferentialForm(3, 2, {(1, 2): P3}).coefficient(1),
         "bad basis subset 1 for degree 2"),
        # the lift's degree, then its level
        (lambda: iso_from_components(ComponentVector.zero(3, 1), 5), "degree 5 out of range 0..3"),
        (lambda: iso_from_components(ComponentVector.zero(3, 1), 3),
         "expected component vector at level 0, got level 1"),
        # the level helpers, subsets and the enumeration cap, by graph's rules
        (lambda: domain_level(5, 3), "operator index 5 out of range 1..3"),
        (lambda: codomain_level(7, 3), "operator index 7 out of range 1..3"),
        (lambda: domain_level(True, 3), "operator index must be an int, got True"),
        (lambda: domain_level(1, 2), "dimension must be >= 3, got 2"),
        (lambda: codomain_level(2, 3.0), "dimension must be an int, got 3.0"),
        (lambda: complement_sign((1,), True), "n must be an int, got True"),
        (lambda: subsets(3, -1), "size must be >= 0, got -1"),
        (lambda: subsets(3, 1.0), "size must be an int, got 1.0"),
        (lambda: enumerate_words(3, 1, cap=True), "cap must be an int, got True"),
        (lambda: enumerate_words(3, 1, cap=2.5), "cap must be an int, got 2.5"),
    ],
)
def test_form_and_vector_checks_name_the_fault(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("read", [lambda n: subsets(n, 1), lambda n: complement_sign((1,), n)],
                         ids=["subsets", "complement_sign"])
def test_subset_readers_check_n_before_their_tables(read):
    # 3.0 == 3 and hashes alike, so a cached table for 3 would answer 3.0
    forms._basis.cache_clear()
    forms._complement_sign.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(ValueError, match=r"^n must be an int, got 3\.0$"):
            read(3.0)
        read(3)


def bisect_wedges(s, n):
    """The wedge entries as exterior_derivative once derived them per call."""
    out = []
    for t in range(1, n + 1):
        if t in s:
            continue
        pos = bisect.bisect(s, t)
        out.append((t, s[:pos] + (t,) + s[pos:], -1 if pos % 2 else 1))
    return tuple(out)


def inversion_slots(n, degree):
    """_slots from its definition: (s, 1) up to n // 2, and above it the
    complement of s with the sign of (s, complement) by counting inversions."""
    level = min(degree, n - degree)
    slots = []
    for s in combinations(range(1, n + 1), level):
        if degree <= n // 2:
            slots.append((s, 1))
            continue
        t = tuple(x for x in range(1, n + 1) if x not in s)
        seq = s + t
        inversions = sum(seq[a] > seq[b] for a, b in combinations(range(n), 2))
        slots.append((t, (-1) ** inversions))
    return slots


@pytest.mark.parametrize("n", range(1, 9))
def test_cached_tables_equal_their_derivations(n):
    for size in range(n + 1):
        for s in subsets(n, size):
            assert forms._wedges(s, n) == bisect_wedges(s, n)
    for degree in range(n + 1):
        slots = forms._slots(n, degree)
        assert slots == inversion_slots(n, degree)
        # each call returns a fresh list, so a caller cannot edit the cache
        slots.append(None)
        subsets(n, degree).append(None)
        assert forms._slots(n, degree) == inversion_slots(n, degree)
        assert subsets(n, degree) == list(combinations(range(1, n + 1), degree))


class Pairs:
    """A components argument whose keys need not be hashable, such as lists:
    the form constructor reads components.items() only."""

    def __init__(self, pairs):
        self.pairs = pairs

    def items(self):
        return iter(self.pairs)


def keywise_form_check(n, degree, components):
    """DifferentialForm's component checks made key by key: degree whole
    numbers in 1..n, ascending by sorted(set(key)); returns the canonical
    components, keyed by tuples of ints."""
    canon = {}
    for key, poly in components.items():
        try:
            key = tuple(key)
            bad = (len(key) != degree or list(key) != sorted(set(key))
                   or key and not (1 <= key[0] and key[-1] <= n) or any(e != int(e) for e in key))
        except TypeError:  # not iterable, or an element that is unhashable or not a number
            bad = True
        if bad:
            raise ValueError(f"bad basis subset {key} for degree {degree}")
        if poly.n_vars != n:
            raise ValueError("component polynomial has wrong variable count")
        if not poly.is_zero():
            canon[tuple(map(int, key))] = poly
    return canon


def outcome(build):
    try:
        return build()
    except Exception as exc:  # the exception's class and message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("n, longest", [(3, 4), (4, 3)])
def test_form_checks_agree_with_the_keywise_check(n, longest):
    # every key of length 0..longest over 0..n+1 (duplicates, descending, out
    # of range and wrong length among them), keys holding a float or bool
    # (1.5 is refused, True and 1.0 are stored as 1), and a key that is not
    # iterable or holds an unhashable element, as a tuple and as a list, with
    # a zero or nonzero polynomial of the right or wrong variable count, alone
    # and after a valid key
    polys = [Polynomial.monomial(n, (1,) + (0,) * (n - 1)), Polynomial.zero(n),
             Polynomial.monomial(n + 1, (1,) * (n + 1))]
    keys = [k for length in range(longest + 1) for k in product(range(n + 2), repeat=length)]
    keys += [(1.5,), (True,), (1.0,), (1, 2.0), (True, 2), 1, ([1],)]
    faults = 0
    for degree in range(n + 1):
        valid = tuple(range(1, degree + 1))
        for key, poly, as_list, after_valid in product(keys, polys, (False, True), (False, True)):
            pairs = [(list(key) if as_list and isinstance(key, tuple) else key, poly)]
            if after_valid:
                pairs.insert(0, (valid, polys[0]))
            want = outcome(lambda: keywise_form_check(n, degree, Pairs(pairs)))
            got = outcome(lambda: DifferentialForm(n, degree, Pairs(pairs)).components)
            # repr tells a stored (1,) from (True,) or (1.0,)
            assert got == want and repr(got) == repr(want), (degree, pairs)
            faults += isinstance(want, tuple)
    assert faults > len(keys)  # the oracle refused many of them


@pytest.mark.parametrize("n", range(3, 7))
def test_iso_round_trip_forms(n):
    rng = random.Random(200 + n)
    for degree in range(0, n + 1):
        for _ in range(10):
            form = rand_form(rng, n, degree)
            assert iso_from_components(iso_to_components(form), degree) == form


@pytest.mark.parametrize("n", range(3, 7))
def test_iso_round_trip_vectors(n):
    rng = random.Random(300 + n)
    for level in range(0, n // 2 + 1):
        for target in {level, n - level}:
            if target > n // 2 and target != n - level:
                continue
            for _ in range(10):
                v = rand_vector(rng, n, level)
                assert iso_to_components(iso_from_components(v, target)) == v


def test_domain_and_codomain_levels():
    # n = 5: levels run 0,1,2,2,1 (domains) and 1,2,2,1,0 (codomains)
    assert [domain_level(i, 5) for i in range(1, 6)] == [0, 1, 2, 2, 1]
    assert [codomain_level(i, 5) for i in range(1, 6)] == [1, 2, 2, 1, 0]
    assert [domain_level(i, 4) for i in range(1, 5)] == [0, 1, 2, 1]
    assert [codomain_level(i, 4) for i in range(1, 5)] == [1, 2, 1, 0]


def test_nabla_1_is_gradient():
    rng = random.Random(11)
    f = rand_poly(rng, 3)
    out = nabla(1, ComponentVector(3, 0, (f,)))
    assert out.entries == (f.diff(1), f.diff(2), f.diff(3))


def test_nabla_2_is_curl():
    rng = random.Random(12)
    fs = tuple(rand_poly(rng, 3) for _ in range(3))
    out = nabla(2, ComponentVector(3, 1, fs))
    assert out.entries == (
        fs[2].diff(2) - fs[1].diff(3),
        fs[0].diff(3) - fs[2].diff(1),
        fs[1].diff(1) - fs[0].diff(2),
    )


def test_nabla_3_is_divergence():
    rng = random.Random(13)
    fs = tuple(rand_poly(rng, 3) for _ in range(3))
    out = nabla(3, ComponentVector(3, 1, fs))
    assert out.entries == (fs[0].diff(1) + fs[1].diff(2) + fs[2].diff(3),)


@pytest.mark.parametrize("n", range(3, 9))
def test_divergence_of_gradient_is_laplacian(n):
    # nabla_1 is the gradient and nabla_n the divergence in every dimension,
    # which pins the complement sign of each level-1 slot
    rng = random.Random(400 + n)
    f = rand_poly(rng, n, terms=4, max_exp=3) + parse_polynomial(
        " + ".join(f"{s}*x{s}^3*x{s % n + 1}" for s in range(1, n + 1)), n
    )
    second = [f.diff(s).diff(s) for s in range(1, n + 1)]
    assert not any(p.is_zero() for p in second)
    out = nabla(n, nabla(1, ComponentVector(n, 0, (f,))))
    assert out.entries == (sum(second, Polynomial.zero(n)),)


def test_nabla_level_mismatch():
    with pytest.raises(LevelMismatchError) as exc:
        nabla(1, ComponentVector.zero(3, 1))
    assert exc.value.expected == 0


def test_apply_word_curl_grad_is_zero():
    f = parse_polynomial("x1^2*x3", 3)
    out = apply_word((1, 2), ComponentVector(3, 0, (f,)))
    assert out.is_zero()


def test_apply_word_grad_div():
    v = ComponentVector(
        3, 1, (parse_polynomial("x1^2", 3), Polynomial.zero(3), Polynomial.zero(3))
    )
    out = apply_word((3, 1), v)
    assert [str(p) for p in out.entries] == ["2", "0", "0"]


def test_apply_word_rejects_non_meaningful():
    with pytest.raises(NotComposableError) as exc:
        apply_word((1, 1), ComponentVector.zero(3, 0))
    assert exc.value.pair == (1, 1)


def test_is_zero_operator_known_pairs():
    assert is_zero_operator((1, 2), 3)
    assert is_zero_operator((2, 3), 3)
    assert not is_zero_operator((2, 2), 3)
    assert not is_zero_operator((1, 3), 3)
    assert not is_zero_operator((3, 1), 3)
    assert not is_zero_operator((3, 3), 5)


def test_is_zero_operator_rejects_non_meaningful():
    with pytest.raises(NotComposableError):
        is_zero_operator((2, 1), 3)


def test_is_zero_operator_refuses_a_word_before_reading_its_pairs():
    # (1, 2, 1) holds the zero pair (1, 2), decided and cached here first,
    # but (2, 1) does not compose: the word is refused, not called zero
    assert is_zero_operator((1, 2, 3), 3)
    with pytest.raises(NotComposableError) as exc:
        is_zero_operator((1, 2, 1), 3)
    assert exc.value.pair == (2, 1)


@pytest.mark.parametrize("word, probes", [((1, 2), 1), ((1, 3), 1), ((2, 3), 1), ((2, 2, 2), 1)])
def test_is_zero_operator_scans_composability_once_per_probe(monkeypatch, word, probes):
    # the probe's apply_word refuses a word that is not meaningful, so the
    # probe decision need not scan it first
    scans, folds = [], []
    scan, fold = CompositionWord.first_invalid_pair, forms.apply_word
    monkeypatch.setattr(CompositionWord, "first_invalid_pair", lambda w: scans.append(w) or scan(w))
    monkeypatch.setattr(forms, "apply_word", lambda w, v: folds.append(w) or fold(w, v))
    forms._zero_by_probe(CompositionWord(3, word))
    assert folds == [CompositionWord(3, word)] * probes and len(scans) == probes


def test_is_zero_operator_ends_at_a_zero_pair(monkeypatch):
    # a word with a zero pair makes no whole-word probe, cold or warm; a word
    # without one makes the probe the probe decision makes on it alone.
    # Which pairs are zero comes from the one-probe-per-slot oracle.
    folds = []
    fold = forms.apply_word
    monkeypatch.setattr(forms, "apply_word", lambda u, v: folds.append(u) or fold(u, v))

    def whole_word_folds(decide, w):
        folds.clear()
        decide(w)
        return [u for u in folds if u == w]

    forms._zero_short.cache_clear()
    for n in range(3, 6):
        for length in range(3, 5):
            for w in enumerate_words(n, length):
                has_zero_pair = any(
                    slow_is_zero_operator(CompositionWord(n, pair))
                    for pair in zip(w.indices, w.indices[1:])
                )
                got = whole_word_folds(lambda u: is_zero_operator(u, n), w)
                if has_zero_pair:
                    assert got == [], (n, w.indices)
                else:
                    assert got == whole_word_folds(forms._zero_by_probe, w) != [], (n, w.indices)
    # every pair at n = 3 is decided by now, so this word folds nothing at all
    folds.clear()
    assert is_zero_operator((1, 3, 1, 2, 3), 3) and folds == []


@pytest.mark.parametrize("n", range(3, 13))
def test_short_word_table_agrees_with_its_oracles(n):
    # every composable word of length 1 or 2 is answered from one table
    # entry each, which holds the one-probe-per-slot oracle's answer (n <= 7)
    # and classify_word's d^2 rule (every n the CLI admits)
    words = [w for length in (1, 2) for w in enumerate_words(n, length)]
    forms._zero_short.cache_clear()
    want = {}
    for w in words:
        want[w] = classify_word(w) is TrivialityClass.ZERO
        if n <= 7:
            assert slow_is_zero_operator(w) is want[w], w.indices
        assert is_zero_operator(w, n) is want[w], w.indices
    info = forms._zero_short.cache_info()
    assert info.currsize == len(words)
    for w in words:
        assert forms._zero_short(n, w.indices) is want[w], w.indices
    assert forms._zero_short.cache_info().misses == info.misses


def test_short_words_are_decided_once(monkeypatch):
    # a cold word of length 1 or 2 makes the probe decision's folds, and the
    # same word warm makes no fold at all
    folds = []
    fold = forms.apply_word
    monkeypatch.setattr(forms, "apply_word", lambda u, v: folds.append(u) or fold(u, v))
    forms._zero_short.cache_clear()
    for n in range(3, 6):
        for length in (1, 2):
            for w in enumerate_words(n, length):
                folds.clear()
                forms._zero_by_probe(w)
                cold = list(folds)
                folds.clear()
                is_zero_operator(w, n)
                assert folds == cold != [], (n, w.indices)
                folds.clear()
                is_zero_operator(w, n)
                assert folds == [], (n, w.indices)


def test_short_word_table_holds_at_most_3n_words():
    # after every meaningful word of length <= 4, the table holds each
    # single operator and each composable pair once, and nothing else
    forms._zero_short.cache_clear()
    expected = 0
    for n in range(3, 7):
        for length in range(1, 5):
            for w in enumerate_words(n, length):
                is_zero_operator(w, n)
        pairs = sum(len(successors(i, n)) for i in range(1, n + 1))
        assert pairs <= 2 * n
        expected += n + pairs
    assert forms._zero_short.cache_info().currsize == expected


def test_short_word_table_holds_no_refusal():
    forms._zero_short.cache_clear()
    assert is_zero_operator((1, 2), 3)
    assert forms._zero_short.cache_info().currsize == 1
    for _ in range(2):
        with pytest.raises(NotComposableError) as exc:
            is_zero_operator((2, 1), 3)
        assert exc.value.pair == (2, 1)
    assert forms._zero_short.cache_info().currsize == 1


@pytest.mark.parametrize("n", (3, 4, 5))
def test_identification_mismatch_has_nonzero_witness(n):
    # the round-trip identification at complementary degrees is not the
    # identity: each surviving pair (k, n+1-k) has a nonzero witness
    for k in range(1, n + 1):
        if 2 * k == n or 2 * (n + 1 - k) == n:
            continue
        assert not is_zero_operator((k, n + 1 - k), n)


@given(st.integers(3, 5), st.data())
@settings(max_examples=60, deadline=None)
def test_apply_word_linearity(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    words = [w for w in enumerate_words(n, 2)]
    w = words[data.draw(st.integers(0, len(words) - 1))]
    level = domain_level(w.indices[0], n)
    u = rand_vector(rng, n, level)
    v = rand_vector(rng, n, level)
    a = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    b = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    lhs = apply_word(w, u.scale(a) + v.scale(b))
    rhs = apply_word(w, u).scale(a) + apply_word(w, v).scale(b)
    assert lhs == rhs


def test_probe_lemma_coefficients():
    # The argument behind is_zero_operator, checked coefficient by coefficient:
    # a length-L chain is sum_{|a|=L} C_a d^a, so on x^b e_s with b >= a the
    # coefficient of x^(b-a) is prod C(b_i, a_i) times the constant the chain
    # gives on x^a e_s (= a! C_a e_s), and no other monomial appears.  Checked
    # for b = (L, ..., L), the probe's exponents, in every slot s.
    for n in range(3, 6):
        for length in range(1, 4):
            alphas = [
                tuple(v.count(t) for t in range(n))
                for v in combinations_with_replacement(range(n), length)
            ]
            for w in enumerate_words(n, length):
                level = domain_level(w.indices[0], n)
                slots = math.comb(n, level)

                def single(slot, exps):
                    entries = [Polynomial.zero(n)] * slots
                    entries[slot] = Polynomial.monomial(n, exps)
                    return apply_word(w, ComponentVector(n, level, tuple(entries))).entries

                beta = (length,) * n
                for slot in range(slots):
                    probe = single(slot, beta)
                    expected = [{} for _ in probe]
                    for alpha in alphas:
                        factor = math.prod(math.comb(b, a) for b, a in zip(beta, alpha))
                        shifted = tuple(b - a for b, a in zip(beta, alpha))
                        for r, c in enumerate(single(slot, alpha)):
                            assert set(c.terms) <= {(0,) * n}
                            if c:
                                expected[r][shifted] = factor * c.terms[(0,) * n]
                    assert [p.terms for p in probe] == expected, (n, w.indices, slot)


def test_is_zero_operator_makes_one_probe(monkeypatch):
    # the probe decision behind is_zero_operator, on any word, must feed
    # exactly the probe the lemma above is about, x^(L, ..., L) in slot 0
    # alone, once, and answer with that fold's zero-ness
    calls = []

    def spy(word, v):
        out = apply_word(word, v)
        calls.append((v, out.is_zero()))
        return out

    monkeypatch.setattr(forms, "apply_word", spy)
    for n in range(3, 6):
        for length in range(1, 4):
            for w in enumerate_words(n, length):
                calls.clear()
                zero = forms._zero_by_probe(w)
                level = domain_level(w.indices[0], n)
                slots = math.comb(n, level)
                probe = Polynomial.monomial(n, (length,) * n)
                assert len(calls) == 1, (n, w.indices)
                (v, out_zero), = calls
                assert v.level == level
                assert v.entries == (probe,) + (Polynomial.zero(n),) * (slots - 1)
                assert out_zero is zero, (n, w.indices)


def probe_zero_per_slot(w: CompositionWord):
    """Whether the chain kills x^(L, ..., L) in slot s alone, slot by slot."""
    n = w.n
    level = domain_level(w.indices[0], n)
    slots = math.comb(n, level)
    probe = Polynomial.monomial(n, (len(w),) * n)
    for slot in range(slots):
        entries = [Polynomial.zero(n)] * slots
        entries[slot] = probe
        yield apply_word(w, ComponentVector(n, level, tuple(entries))).is_zero()


def slow_is_zero_operator(w: CompositionWord) -> bool:
    """The zero test with one probe per slot: x^(L, ..., L) in slot s alone."""
    return all(probe_zero_per_slot(w))


@pytest.mark.parametrize("n", range(3, 8))
def test_probe_is_zero_in_every_slot_or_in_none(n):
    # the symmetry the one-probe decision rests on: a permutation of the
    # coordinates commutes with d and, up to sign, with the iso maps, fixes
    # x^(L, ..., L) and carries slot 0 to every slot of its level, so a chain
    # kills the probe in every slot or in none
    for length in range(1, 4):
        for w in enumerate_words(n, length):
            assert len(set(probe_zero_per_slot(w))) == 1, w.indices


@pytest.mark.parametrize("n", range(3, 8))
def test_is_zero_operator_agrees_with_one_probe_per_slot(n):
    for length in range(1, 5 if n <= 5 else 4):
        for w in enumerate_words(n, length):
            assert is_zero_operator(w, n) is slow_is_zero_operator(w), w.indices


@pytest.mark.parametrize("indices", [(7, 8), (6, 7, 8), (7, 6, 7), (7, 6)])
def test_is_zero_operator_on_the_largest_levels(indices):
    # at n = 12, nabla_7 takes C(12, 6) = 924 slots and nabla_6 C(12, 5) = 792,
    # of which the probe fills slot 0 alone; classify_word's d^2 rule is the
    # independent answer
    w = CompositionWord(12, indices)
    assert math.comb(12, domain_level(indices[0], 12)) == (792 if indices[0] == 6 else 924)
    assert is_zero_operator(w, 12) is (classify_word(w) is TrivialityClass.ZERO)


# Small denominators and a few large primes, so coefficients are ints, small
# Fractions and Fractions with large denominators side by side.  The lcm of a
# vector's denominators decides apply_word's fold: the Mersenne prime
# 2^521 - 1 alone puts it past the cutoff of _CLEARED_DENOMINATOR_BITS.
DENOMINATORS = [1, 1, 2, 3, 4, 6, 9, 2**31 - 1, 2**61 - 1, 2**89 - 1, 2**127 - 1, 2**521 - 1]


def as_fractions(v):
    """v with every coefficient a Fraction, as before int coefficients."""
    return ComponentVector(v.n, v.level, tuple(
        Polynomial(p.n_vars, {e: Fraction(c) for e, c in p.terms.items()}) for p in v.entries
    ))


@st.composite
def rational_chain_inputs(draw, denominators=DENOMINATORS):
    n = draw(st.integers(3, 8))
    length = draw(st.integers(1, 3))
    indices = [draw(st.integers(1, n))]
    for _ in range(length - 1):
        indices.append(draw(st.sampled_from(successors(indices[-1], n))))
    level = domain_level(indices[0], n)
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.one_of(
        st.integers(-50, 50),
        st.builds(Fraction, st.integers(-50, 50), st.sampled_from(denominators)),
    )
    entries = draw(
        st.lists(st.dictionaries(exps, coeff, max_size=3),
                 min_size=math.comb(n, level), max_size=math.comb(n, level))
    )
    return CompositionWord(n, tuple(indices)), ComponentVector(
        n, level, tuple(Polynomial(n, d) for d in entries)
    )


@given(rational_chain_inputs())
@settings(max_examples=150, deadline=None)
def test_apply_word_equals_the_fraction_fold(case):
    # the oracle folds nabla over the same vector with Fraction coefficients only
    w, v = case
    got = apply_word(w, v)
    want = as_fractions(v)
    for i in w.indices:
        want = nabla(i, want)
    assert got == want
    for p in got.entries:
        assert Polynomial(p.n_vars, p.terms).terms == p.terms
        assert all(type(c) in (int, Fraction) for c in p.terms.values())


@pytest.mark.parametrize("denominators, past", [
    (DENOMINATORS[:-1], False), (DENOMINATORS[-1:] + [1, 2, 3], True), ([1], False),
], ids=["cleared", "past the cutoff", "D = 1"])
@given(case=st.data())
# without the explain phase, which takes a minute on a failure here
@settings(max_examples=50, deadline=None, phases=set(Phase) - {Phase.explain})
def test_apply_word_gives_an_int_for_each_integral_coefficient(denominators, past, case):
    # a shared denominator on one side of the cutoff or the other, or D = 1,
    # where every Fraction drawn is integral and none may be left in the
    # output; the uncleared fold, nabla over v as given, is the oracle
    w, v = case.draw(rational_chain_inputs(denominators))
    bits = math.lcm(*(c.denominator for p in v.entries for c in p.terms.values())).bit_length()
    assume((bits > forms._CLEARED_DENOMINATOR_BITS) is past)
    got = apply_word(w, v)
    want = v
    for i in w.indices:
        want = nabla(i, want)
    assert got == want
    for p in got.entries:
        for c in p.terms.values():
            assert type(c) is int if c.denominator == 1 else type(c) is Fraction


def fraction_count(monkeypatch):
    """A list that records each Fraction made from now on."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    return made


def test_is_zero_operator_makes_no_fraction(monkeypatch):
    forms._zero_short.cache_clear()  # so that each short-word decision runs here
    made = fraction_count(monkeypatch)
    for n in range(3, 7):
        for length in range(1, 4):
            for w in enumerate_words(n, length):
                is_zero_operator(w, n)
    assert made == []
    # the counter sees the Fractions a rational input makes
    v = ComponentVector(3, 0, (Polynomial(3, {(2, 0, 0): 1}).scale(Fraction(1, 3)),))
    apply_word((1,), v)
    assert made


def test_apply_word_folds_an_integral_fraction_as_an_int(monkeypatch):
    # 4/2 reads as the Fraction 2, so D = 1: the fold runs on ints and the
    # output is divided by 1 with no Fraction made
    v = ComponentVector(3, 0, (parse_polynomial("4/2*x1^2", 3),))
    assert v.entries[0].terms == {(2, 0, 0): Fraction(2)}
    made = fraction_count(monkeypatch)
    got = apply_word((1,), v).entries[0].terms
    assert got == {(1, 0, 0): 4} and type(got[1, 0, 0]) is int
    assert made == []


def coefficient_types(monkeypatch):
    """The coefficient types of each vector nabla is given from now on."""
    seen = []

    def spy(i, v):
        seen.append({type(c) for p in v.entries for c in p.terms.values()})
        return nabla(i, v)

    monkeypatch.setattr(forms, "nabla", spy)
    return seen


def test_apply_word_folds_over_one_shared_denominator(monkeypatch):
    assert (2**521 - 1).bit_length() > forms._CLEARED_DENOMINATOR_BITS >= (2**127 - 1).bit_length()
    w = CompositionWord(3, (1, 3, 1))
    exps = [(4, 1, 0), (2, 2, 2), (0, 3, 1), (1, 0, 5), (3, 3, 0)]

    def vector(dens):
        terms = {}
        for k, e in enumerate(exps):
            num, den = (-1) ** k * (7 * k + 5), dens[k % len(dens)]
            terms[e] = num if den == 1 else Fraction(num, den)
        return ComponentVector(3, 0, (Polynomial(3, terms),))

    def oracle(v):
        v = as_fractions(v)
        for i in w.indices:
            v = nabla(i, v)
        return v

    below, above, ints = vector([2, 9, 2**127 - 1]), vector([2, 9, 2**521 - 1]), vector([1])
    want_below, want_above = oracle(below), oracle(above)
    assert {type(c) for c in ints.entries[0].terms.values()} == {int}
    made, seen = fraction_count(monkeypatch), coefficient_types(monkeypatch)
    # below the cutoff: nabla sees ints only, and each output term is one
    # Fraction, made when it is divided by the shared denominator
    got = apply_word(w, below)
    assert got == want_below
    assert seen == [{int}] * 3
    assert 0 < len(made) <= sum(len(p.terms) for p in got.entries)
    # above it: the fold runs on the Fractions as given
    seen.clear()
    assert apply_word(w, above) == want_above
    assert Fraction in seen[0]
    # integer input stays integer, and makes no Fraction
    made.clear()
    seen.clear()
    got = apply_word(w, ints)
    assert made == [] and seen == [{int}] * 3
    assert {type(c) for p in got.entries for c in p.terms.values()} == {int}


def test_apply_word_stops_the_lcm_past_the_cutoff(monkeypatch):
    # the lcm of many long denominators costs more than the Fraction fold it
    # selects, so it stops at the first denominator that passes the cutoff
    big = [2**521 - 1, 2**607 - 1, 2**1279 - 1]
    v = ComponentVector(3, 0, (Polynomial(3, {(k + 2, 1, 0): Fraction(1, d) for k, d in enumerate(big)}),))
    want = as_fractions(v)
    for i in (1, 3):
        want = nabla(i, want)
    calls = []
    lcm = math.lcm
    monkeypatch.setattr(math, "lcm", lambda *args: calls.append(args) or lcm(*args))
    assert apply_word((1, 3), v) == want
    assert len(calls) == 1


def test_apply_word_clears_a_denominator_of_exactly_the_cutoff_bits(monkeypatch):
    # D = lcm(3, 2^(b - 2)) has exactly b bits: at b = the cutoff nabla sees
    # ints only, and one bit past it the Fractions as given
    cutoff = forms._CLEARED_DENOMINATOR_BITS
    w = (1, 3, 1)
    seen = coefficient_types(monkeypatch)
    for bits in (cutoff, cutoff + 1):
        assert math.lcm(3, 2 ** (bits - 2)).bit_length() == bits
        terms = {(3, 1, 0): Fraction(1, 3), (0, 2, 2): Fraction(5, 2 ** (bits - 2)), (1, 1, 2): 7}
        v = ComponentVector(3, 0, (Polynomial(3, terms),))
        want = as_fractions(v)
        for i in w:
            want = nabla(i, want)
        seen.clear()
        assert apply_word(w, v) == want
        assert (seen == [{int}] * 3) is (bits == cutoff)
        assert (Fraction in seen[0]) is (bits > cutoff)
