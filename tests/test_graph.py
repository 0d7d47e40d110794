import pytest

from nablachains import (
    ComponentVector,
    CompositionWord,
    DifferentialForm,
    Polynomial,
    apply_word,
    brute_force_count,
    build_adjacency,
    classify_pair,
    count_nontrivial,
    count_per_start,
    count_sequence,
    count_total,
    enumerate_nontrivial,
    enumerate_words,
    is_composable,
    is_zero_operator,
    nabla,
    successors,
)
from nablachains.forms import codomain_level, domain_level
from nablachains.graph import total_count_polynomial
from nablachains.words import as_word


def test_dimension_rejects_small_n():
    with pytest.raises(ValueError):
        is_composable(1, 2, 2)


@pytest.mark.parametrize(
    "i,j,n,expected",
    [
        (1, 2, 3, True),
        (3, 2, 3, False),
        (2, 2, 3, True),  # i + j = n + 1
        (2, 3, 4, True),  # j = i + 1
        (1, 1, 3, False),
    ],
)
def test_is_composable(i, j, n, expected):
    assert is_composable(i, j, n) is expected


def test_dimensions_and_indices_must_be_ints():
    # a float was once truncated (n) or only compared (indices)
    with pytest.raises(ValueError, match=r"^dimension must be an int, got 3\.9$"):
        count_total(3.9, 5)
    with pytest.raises(ValueError, match=r"^dimension must be an int, got 3\.5$"):
        build_adjacency(3.5)
    with pytest.raises(ValueError, match=r"^dimension must be an int, got 3\.5$"):
        is_zero_operator((1, 2), 3.5)
    with pytest.raises(ValueError, match=r"^operator index must be an int, got 1\.5$"):
        CompositionWord(3, (1.5, 2.5))


# every entry point that checks a dimension, called with dimension n
DIMENSION_ENTRY_POINTS = {
    "is_composable": lambda n: is_composable(1, 2, n),
    "build_adjacency": build_adjacency,
    "successors": lambda n: successors(1, n),
    "total_count_polynomial": total_count_polynomial,
    "CompositionWord": lambda n: CompositionWord(n, (1,)),
    "as_word": lambda n: as_word((1,), n),
    "count_per_start": lambda n: count_per_start(n, 1),
    "count_total": lambda n: count_total(n, 1),
    "count_sequence": lambda n: count_sequence(n, 1),
    "enumerate_words": lambda n: enumerate_words(n, 1),
    "brute_force_count": lambda n: brute_force_count(n, 1),
    "enumerate_nontrivial": lambda n: enumerate_nontrivial(n, 1),
    "count_nontrivial": lambda n: count_nontrivial(n, 2),
    "DifferentialForm": lambda n: DifferentialForm(n, 0, {}),
    "ComponentVector": lambda n: ComponentVector(n, 0, (Polynomial.zero(3),)),
    "domain_level": lambda n: domain_level(1, n),
    "codomain_level": lambda n: codomain_level(1, n),
}


@pytest.mark.parametrize(
    "call, n, message",
    # 3.0 and True compare equal to an int in range, so only their type refuses them
    [pytest.param(call, 2, "dimension must be >= 3, got 2", id=f"{name}-2")
     for name, call in DIMENSION_ENTRY_POINTS.items()]
    + [pytest.param(call, n, f"dimension must be an int, got {n!r}", id=f"{name}-{n!r}")
       for name, call in DIMENSION_ENTRY_POINTS.items() for n in (3.0, True, "3")],
)
def test_dimension_message_is_shared(call, n, message):
    call(3)
    with pytest.raises(ValueError) as info:
        call(n)
    assert str(info.value) == message


def test_index_out_of_range():
    with pytest.raises(ValueError):
        is_composable(0, 1, 3)
    with pytest.raises(ValueError):
        is_composable(1, 4, 3)
    with pytest.raises(ValueError):
        successors(5, 4)


# every entry point that takes an operator index, called with index i at n = 3
INDEX_ENTRY_POINTS = {
    "is_composable": lambda i: is_composable(1, i, 3),
    "successors": lambda i: successors(i, 3),
    "CompositionWord": lambda i: CompositionWord(3, (1, i)),
    "classify_pair": lambda i: classify_pair(i, 1, 3),
    "nabla": lambda i: nabla(i, ComponentVector.zero(3, 0)),
    "apply_word": lambda i: apply_word((i,), ComponentVector.zero(3, 0)),
    "is_zero_operator": lambda i: is_zero_operator((i,), 3),
}


@pytest.mark.parametrize(
    "call, index, message",
    # a bool is refused by its type, though isinstance(True, int) and True == 1
    [pytest.param(call, 4, "operator index 4 out of range 1..3", id=name)
     for name, call in INDEX_ENTRY_POINTS.items()]
    + [pytest.param(call, i, f"operator index must be an int, got {i!r}", id=f"{name}-{i!r}")
       for name, call in INDEX_ENTRY_POINTS.items() for i in (True, 1.0, "1")],
)
def test_operator_index_message_is_shared(call, index, message):
    with pytest.raises(ValueError) as info:
        call(index)
    assert str(info.value) == message


# every order, length, level and degree argument, at n = 3: (call with the
# value, the least value taken, the argument's name, the message that
# refuses an int v out of range)
BOUND_ENTRY_POINTS = {
    "count_per_start": (lambda k: count_per_start(3, k), 1,
                        "order k", "order k must be >= 1, got {!r}"),
    "count_total": (lambda k: count_total(3, k), 0, "order k", "order k must be >= 0, got {!r}"),
    "count_sequence": (lambda k: count_sequence(3, k), 1, "k_max", "k_max must be >= 1, got {!r}"),
    "enumerate_words": (lambda k: enumerate_words(3, k), 1,
                        "length k", "length k must be >= 1, got {!r}"),
    "brute_force_count": (lambda k: brute_force_count(3, k), 0,
                          "order k", "order k must be >= 0, got {!r}"),
    "enumerate_nontrivial": (lambda k: enumerate_nontrivial(3, k), 1,
                             "length", "length must be >= 1, got {!r}"),
    "count_nontrivial": (lambda k: count_nontrivial(3, k), 2,
                         "length", "length must be >= 2, got {!r}"),
    "DifferentialForm": (lambda d: DifferentialForm(3, d, {}), 0,
                         "degree", "degree {!r} out of range 0..3"),
    "ComponentVector": (lambda m: ComponentVector(3, m, (Polynomial.zero(3),)), 0,
                        "level", "level {!r} out of range 0..1"),
}


@pytest.mark.parametrize("name", BOUND_ENTRY_POINTS)
def test_bound_takes_its_least_value_and_refuses_the_one_below(name):
    call, low, _, message = BOUND_ENTRY_POINTS[name]
    call(low)
    with pytest.raises(ValueError) as info:
        call(low - 1)
    assert str(info.value) == message.format(low - 1)


@pytest.mark.parametrize(
    "name, value",
    # a bool or float whose value is in range: each site once took one, or
    # raised TypeError from inside range(), and later named its range as the
    # fault; a str is named as given, not as the int it prints as
    [pytest.param(name, value, id=f"{name}-{value!r}")
     for name, (_, low, _, _) in BOUND_ENTRY_POINTS.items()
     for value in [b for b in (False, True) if b >= low] + [float(low), low + 0.5, str(low)]],
)
def test_bound_refuses_a_bool_or_non_int(name, value):
    call, _, arg, _ = BOUND_ENTRY_POINTS[name]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{arg} must be an int, got {value!r}"


def test_adjacency_n3_matches_known_table():
    assert build_adjacency(3) == [[0, 1, 1], [0, 1, 1], [1, 0, 0]]


def test_adjacency_n4_row_sums():
    assert [sum(row) for row in build_adjacency(4)] == [2, 1, 2, 1]


@pytest.mark.parametrize("n", range(3, 13))
def test_every_operator_has_a_successor(n):
    for i in range(1, n + 1):
        assert successors(i, n)


@pytest.mark.parametrize("n", range(3, 13))
def test_wraparound_clause(n):
    # i + j = n + 1 always gives a composable pair; in particular (n, 1)
    for i in range(1, n + 1):
        assert is_composable(i, n + 1 - i, n)
    assert build_adjacency(n)[n - 1][0] == 1


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12])
def test_even_middle_pair_fires_both_clauses(n):
    i = n // 2
    assert is_composable(i, i + 1, n)


@pytest.mark.parametrize("n", range(3, 13))
def test_row_sums_are_one_or_two(n):
    for row in build_adjacency(n):
        assert sum(row) in (1, 2)


@pytest.mark.parametrize("n", range(3, 71))
def test_adjacency_agrees_with_is_composable(n):
    # the package reads every view below off one closed form; the oracle is
    # the paper's rule, written out here and asked of every pair
    a = build_adjacency(n)
    for i in range(1, n + 1):
        rule = [j for j in range(1, n + 1) if j == i + 1 or i + j == n + 1]
        assert successors(i, n) == rule
        for j in range(1, n + 1):
            assert is_composable(i, j, n) is (j in rule)
            assert a[i - 1][j - 1] == int(j in rule)
            bad = CompositionWord(n, (i, j)).first_invalid_pair()
            assert bad == (None if j in rule else (i, j))


@pytest.mark.parametrize(
    "i,n,expected",
    [(1, 3, [2, 3]), (3, 3, [1]), (2, 4, [3]), (2, 5, [3, 4])],
)
def test_successors(i, n, expected):
    assert successors(i, n) == expected


@pytest.mark.parametrize(
    "n, expected",
    [
        (3, (-1, -1, 1)),  # t^2 - t - 1: Fibonacci, N = 5
        (4, (-2, 0, 1)),  # L_2 = t^2 - 2, N = 4
        (8, (-3, 0, 1)),  # L_3 / t = t^2 - 3, N = 6
        (7, (1, 2, -3, -1, 1)),  # r_4 = t^4 - t^3 - 3t^2 + 2t + 1, N = 9
        (20, (-2, 0, 9, 0, -6, 0, 1)),  # (t^2 - 2)(t^4 - 4t^2 + 1), N = 12
    ],
)
def test_total_count_polynomial_closed_form(n, expected):
    assert total_count_polynomial(n) == expected
