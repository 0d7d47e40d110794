import pytest

from nablachains import (
    CompositionWord,
    TrivialityClass,
    classify_pair,
    classify_word,
    count_nontrivial,
    enumerate_nontrivial,
    enumerate_words,
    is_composable,
    is_zero_operator,
)
from nablachains.words import N3_NAMES, NABLA_NAMES, as_word, notation


@pytest.mark.parametrize(
    "k,j,n,expected",
    [
        (1, 2, 3, TrivialityClass.ZERO),
        (3, 1, 3, TrivialityClass.NONTRIVIAL),
        (1, 1, 3, TrivialityClass.UNDEFINED),
        (2, 3, 4, TrivialityClass.ZERO),  # both clauses fire; zero wins
        (2, 2, 3, TrivialityClass.NONTRIVIAL),
        (3, 3, 5, TrivialityClass.NONTRIVIAL),
    ],
)
def test_classify_pair(k, j, n, expected):
    assert classify_pair(k, j, n) is expected


@pytest.mark.parametrize("n", range(3, 13))
def test_classify_pair_follows_composability(n):
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            if not is_composable(k, j, n):
                expected = TrivialityClass.UNDEFINED
            elif j == k + 1:
                expected = TrivialityClass.ZERO
            else:
                expected = TrivialityClass.NONTRIVIAL
            assert classify_pair(k, j, n) is expected
    if n % 2 == 0:  # j = k + 1 and k + j = n + 1 both hold; zero wins
        assert classify_pair(n // 2, n // 2 + 1, n) is TrivialityClass.ZERO


def test_classify_pair_rejects_bad_index():
    with pytest.raises(ValueError):
        classify_pair(0, 1, 3)


@pytest.mark.parametrize(
    "k, j, n, message",
    [
        (1, 2, 2, "dimension must be >= 3, got 2"),
        (1, 2, 3.0, "dimension must be an int, got 3.0"),
        (0, 9, 3, "operator index 0 out of range 1..3"),
        (1, 4, 3, "operator index 4 out of range 1..3"),
    ],
)
def test_classify_pair_names_the_first_fault(k, j, n, message):
    # n first, then k, then j, as classify_word checks them
    with pytest.raises(ValueError) as info:
        classify_pair(k, j, n)
    assert str(info.value) == message


def test_classify_word_examples():
    assert classify_word((1, 3, 1), 3) is TrivialityClass.NONTRIVIAL
    assert classify_word((1, 2, 2), 3) is TrivialityClass.ZERO
    assert classify_word((2, 1), 3) is TrivialityClass.UNDEFINED


def test_classify_word_single_operator_is_nontrivial():
    for i in (1, 2, 3):
        assert classify_word((i,), 3) is TrivialityClass.NONTRIVIAL


def test_classify_word_requires_n_for_bare_sequences():
    with pytest.raises(ValueError):
        classify_word((1, 2))
    assert classify_word(CompositionWord(3, (1, 2))) is TrivialityClass.ZERO


def test_undefined_iff_not_meaningful():
    for n in (3, 4, 5):
        for length in (2, 3, 4):
            import itertools

            for indices in itertools.product(range(1, n + 1), repeat=length):
                w = CompositionWord(n, indices)
                undefined = classify_word(w) is TrivialityClass.UNDEFINED
                assert undefined == (w.first_invalid_pair() is not None)


def test_classify_word_agrees_with_classify_pair_per_pair():
    # the per-pair oracle: UNDEFINED at the first non-composable pair, else
    # ZERO if any pair is a d-squared step
    import itertools

    for n in range(3, 7):
        for length in range(1, 5):
            for indices in itertools.product(range(1, n + 1), repeat=length):
                classes = [classify_pair(a, b, n) for a, b in zip(indices, indices[1:])]
                if TrivialityClass.UNDEFINED in classes:
                    expected = TrivialityClass.UNDEFINED
                elif TrivialityClass.ZERO in classes:
                    expected = TrivialityClass.ZERO
                else:
                    expected = TrivialityClass.NONTRIVIAL
                assert classify_word(CompositionWord(n, indices)) is expected, indices
                assert classify_word(indices, n) is expected


def test_enumerate_nontrivial_n3():
    assert [w.indices for w in enumerate_nontrivial(3, 3)] == [
        (1, 3, 1),
        (2, 2, 2),
        (3, 1, 3),
    ]


def test_enumerate_nontrivial_n4_length2():
    # (3, 2) survives at length exactly 2: verified non-zero symbolically
    assert [w.indices for w in enumerate_nontrivial(4, 2)] == [(1, 4), (3, 2), (4, 1)]


def test_enumerate_nontrivial_n4_length3():
    assert [w.indices for w in enumerate_nontrivial(4, 3)] == [(1, 4, 1), (4, 1, 4)]


def test_enumerate_nontrivial_n5_contains_middle_chain():
    words = [w.indices for w in enumerate_nontrivial(5, 4)]
    assert (3, 3, 3, 3) in words


def test_enumerate_nontrivial_length1():
    assert [w.indices for w in enumerate_nontrivial(4, 1)] == [(1,), (2,), (3,), (4,)]


def test_alternation_property():
    for n in (3, 4, 5, 6):
        for length in (2, 3, 4, 5):
            for w in enumerate_nontrivial(n, length):
                idx = w.indices
                assert all(idx[t + 2] == idx[t] for t in range(len(idx) - 2))
                assert all(a + b == n + 1 for a, b in zip(idx, idx[1:]))


@pytest.mark.parametrize("n", (3, 4, 5, 6))
@pytest.mark.parametrize("length", (2, 3, 4, 5))
def test_filter_equivalence(n, length):
    filtered = [
        w.indices
        for w in enumerate_words(n, length)
        if classify_word(w) is TrivialityClass.NONTRIVIAL
    ]
    direct = sorted(w.indices for w in enumerate_nontrivial(n, length))
    assert sorted(filtered) == direct


@pytest.mark.parametrize(
    "n,length,expected",
    [(3, 5, 3), (4, 2, 3), (4, 3, 2), (5, 2, 5), (6, 2, 5), (6, 4, 4), (7, 3, 7)],
)
def test_count_nontrivial(n, length, expected):
    assert count_nontrivial(n, length) == expected
    assert len(enumerate_nontrivial(n, length)) == expected


@pytest.mark.parametrize("n", range(3, 10))
@pytest.mark.parametrize("length", range(2, 7))
def test_count_nontrivial_counts_the_classified_words(n, length):
    words = enumerate_words(n, length)
    want = sum(classify_word(w) is TrivialityClass.NONTRIVIAL for w in words)
    assert count_nontrivial(n, length) == want


def test_count_nontrivial_requires_length_2():
    with pytest.raises(ValueError):
        count_nontrivial(3, 1)


@pytest.mark.parametrize("n", range(3, 9))
def test_symbolic_concordance_small(n):
    for length in range(1, 5):
        for w in enumerate_words(n, length):
            zero = classify_word(w) is TrivialityClass.ZERO
            assert is_zero_operator(w, n) == zero


def test_notation_rendering():
    w = CompositionWord(3, (1, 3, 1))
    assert w.composition_notation() == "∇_1 ∘ ∇_3 ∘ ∇_1"
    assert w.named_notation() == "grad ∘ div ∘ grad"
    assert CompositionWord(4, (1, 4)).named_notation() is None
    # two-digit indices, and the largest n the CLI enumerates
    w = CompositionWord(64, (10, 55, 64, 1))
    assert w.composition_notation() == "∇_1 ∘ ∇_64 ∘ ∇_55 ∘ ∇_10"
    assert notation((63, 64, 1)) == "∇_1 ∘ ∇_64 ∘ ∇_63"
    # the named form from bare indices, as enumerate writes json's named field
    assert notation((1, 3, 1), N3_NAMES) == "grad ∘ div ∘ grad"
    assert notation((2,), N3_NAMES) == "curl"
    # a table caches each name by index, and True == 1: True must not make "∇_True"
    assert notation((1, True), type(NABLA_NAMES)()) == "∇_1 ∘ ∇_1"


@pytest.mark.parametrize("build, message", [
    (lambda: CompositionWord(3, ()), "composition word must be nonempty"),
    (lambda: as_word(CompositionWord(4, (1,)), 3), "word is for n=4, expected n=3"),
])
def test_word_checks_name_the_fault(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
