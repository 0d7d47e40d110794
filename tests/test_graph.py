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
from nablachains.graph import total_count_polynomial


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
    with pytest.raises(ValueError, match="dimension must be an int"):
        count_total(3.9, 5)
    with pytest.raises(ValueError, match="dimension must be an int"):
        build_adjacency(3.5)
    with pytest.raises(ValueError, match="dimension must be an int"):
        is_zero_operator((1, 2), 3.5)
    with pytest.raises(ValueError, match="operator index 1.5"):
        CompositionWord(3, (1.5, 2.5))


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
    "call, index",
    # a bool is refused, though isinstance(True, int) and True == 1
    [pytest.param(call, 4, id=name) for name, call in INDEX_ENTRY_POINTS.items()]
    + [pytest.param(call, True, id=f"{name}-True") for name, call in INDEX_ENTRY_POINTS.items()],
)
def test_operator_index_message_is_shared(call, index):
    with pytest.raises(ValueError, match=rf"^operator index {index} out of range 1\.\.3$"):
        call(index)


# every order, length, level and degree argument, at n = 3: (call with the
# value, the least value taken, the message that refuses value v)
BOUND_ENTRY_POINTS = {
    "count_per_start": (lambda k: count_per_start(3, k), 1, "order k must be >= 1, got {!r}"),
    "count_total": (lambda k: count_total(3, k), 0, "order k must be >= 0, got {!r}"),
    "count_sequence": (lambda k: count_sequence(3, k), 1, "k_max must be >= 1, got {!r}"),
    "enumerate_words": (lambda k: enumerate_words(3, k), 1, "length k must be >= 1, got {!r}"),
    "brute_force_count": (lambda k: brute_force_count(3, k), 0, "order k must be >= 0, got {!r}"),
    "enumerate_nontrivial": (lambda k: enumerate_nontrivial(3, k), 1, "length must be >= 1, got {!r}"),
    "count_nontrivial": (lambda k: count_nontrivial(3, k), 2, "length must be >= 2, got {!r}"),
    "DifferentialForm": (lambda d: DifferentialForm(3, d, {}), 0, "degree {!r} out of range 0..3"),
    "ComponentVector": (lambda m: ComponentVector(3, m, (Polynomial.zero(3),)), 0,
                        "level {!r} out of range 0..1"),
}


@pytest.mark.parametrize("name", BOUND_ENTRY_POINTS)
def test_bound_takes_its_least_value_and_refuses_the_one_below(name):
    call, low, message = BOUND_ENTRY_POINTS[name]
    call(low)
    with pytest.raises(ValueError) as info:
        call(low - 1)
    assert str(info.value) == message.format(low - 1)


@pytest.mark.parametrize(
    "name, value",
    # a bool or float whose value is in range: each site once took one, or
    # raised TypeError from inside range(); a str is named as given, not as
    # the int it prints as
    [pytest.param(name, value, id=f"{name}-{value!r}")
     for name, (_, low, _) in BOUND_ENTRY_POINTS.items()
     for value in [b for b in (False, True) if b >= low] + [float(low), low + 0.5, str(low)]],
)
def test_bound_refuses_a_bool_or_non_int(name, value):
    call, _, message = BOUND_ENTRY_POINTS[name]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message.format(value)


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
