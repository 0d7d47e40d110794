"""The six records behave as the frozen dataclasses they replace, and the
package imports neither dataclasses nor typing."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from nablachains import (
    ComponentVector,
    CompositionWord,
    CountSequence,
    DifferentialForm,
    IntegerPolynomial,
    Polynomial,
    Recurrence,
    count_sequence,
    minimal_recurrence,
    recurrence_from_polynomial,
    verify_recurrence,
)

SRC = Path(__file__).resolve().parents[1] / "src"

P = Polynomial.monomial(3, (2, 0, 1), 3)
# (record, its field names, its field values, its repr)
RECORDS = [
    (CountSequence(3, (3, 5, 8)), ("n", "values"), (3, (3, 5, 8)),
     "CountSequence(n=3, values=(3, 5, 8))"),
    (IntegerPolynomial((-1, -1, 1)), ("coefficients",), ((-1, -1, 1),),
     "IntegerPolynomial(coefficients=(-1, -1, 1))"),
    (Recurrence((1, 1), 3), ("coefficients", "valid_from"), ((1, 1), 3),
     "Recurrence(coefficients=(1, 1), valid_from=3)"),
    (CompositionWord(3, (1, 3)), ("n", "indices"), (3, (1, 3)),
     "CompositionWord(n=3, indices=(1, 3))"),
    (ComponentVector(3, 0, (P,)), ("n", "level", "entries"), (3, 0, (P,)),
     "ComponentVector(n=3, level=0, entries=(Polynomial(3, 3*x1^2*x3),))"),
    (DifferentialForm(3, 1, {(2,): P}), ("n", "degree", "components"), (3, 1, {(2,): P}),
     "DifferentialForm(n=3, degree=1, components={(2,): Polynomial(3, 3*x1^2*x3)})"),
]
IDS = [type(r[0]).__name__ for r in RECORDS]


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_fields_and_repr(record, names, values, text):
    assert type(record).__match_args__ == names
    assert tuple(getattr(record, name) for name in names) == values
    assert repr(record) == text


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_hash_is_the_hash_of_the_field_tuple(record, names, values, text):
    if isinstance(record, DifferentialForm):
        # its components are a dict, so the form hashes their items instead
        n, degree, components = values
        assert hash(record) == hash((n, degree, frozenset(components.items())))
    else:
        assert hash(record) == hash(values)


def test_equal_forms_hash_equal_and_work_as_set_members():
    form = DifferentialForm(3, 1, {(2,): P, (3,): P.scale(2)})
    same = DifferentialForm(3, 1, {(3,): P.scale(2), (2,): P, (1,): Polynomial.zero(3)})
    assert form == same and hash(form) == hash(same)
    other = DifferentialForm(3, 1, {(2,): P})
    assert {form, same, other} == {form, other}
    assert same in {form} and other not in {form}


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_equal_only_to_the_same_class_with_equal_fields(record, names, values, text):
    assert record == type(record)(*values)
    assert not record != type(record)(*values)
    assert record != values
    for other, *_ in RECORDS:
        if type(other) is not type(record):
            assert record != other


def test_equality_reads_every_field():
    assert CountSequence(3, (1, 3)) != CompositionWord(3, (1, 3))  # same field tuple
    assert Recurrence((1, 1), 3) != Recurrence((1, 1), 4)
    assert CompositionWord(4, (1, 4)) != CompositionWord(5, (1, 4))
    assert ComponentVector(3, 0, (P,)) != ComponentVector(3, 0, (P.scale(2),))


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(record, names, values, text):
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert tuple(getattr(record, name) for name in names) == values


@pytest.mark.parametrize("record, names, values, text", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(record, names, values, text):
    for protocol in range(0, pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is type(record) and back == record
    for back in (copy.copy(record), copy.deepcopy(record)):
        assert type(back) is type(record) and back == record
        assert repr(back) == text


@pytest.mark.parametrize("poly", [P, Polynomial(2, {(1, 0): Fraction(-1, 3), (0, 0): 5}),
                                  Polynomial.zero(4)])
def test_polynomial_pickle_and_copy_round_trip(poly):
    # a Polynomial has __slots__; it is rebuilt through its constructor
    backs = [pickle.loads(pickle.dumps(poly, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in [*backs, copy.copy(poly), copy.deepcopy(poly)]:
        assert type(back) is Polynomial and back == poly and str(back) == str(poly)


def test_match_reads_fields_by_position():
    match CompositionWord(3, (1, 3)):
        case CompositionWord(n, (first, *_)):
            assert (n, first) == (3, 1)
        case _:
            pytest.fail("the word did not match its class pattern")


def test_sequence_fields_are_stored_as_tuples():
    pairs = [
        (CompositionWord(3, [1, 3]), CompositionWord(3, (1, 3))),
        (Recurrence([1, 1], 3), Recurrence((1, 1), 3)),
        (ComponentVector(3, 0, [P]), ComponentVector(3, 0, (P,))),
        (CountSequence(3, [3, 5]), CountSequence(3, (3, 5))),
        (IntegerPolynomial([0, 1]), IntegerPolynomial((0, 1))),
    ]
    for built, expected in pairs:
        assert built == expected and hash(built) == hash(expected)
        assert repr(built) == repr(expected)
    indices = (1, 3)
    assert CompositionWord(3, indices).indices is indices  # a tuple is not copied


def test_empty_integer_polynomial_is_refused():
    with pytest.raises(ValueError, match="at least one coefficient"):
        IntegerPolynomial(())
    zero = IntegerPolynomial((0,))
    assert zero.degree == 0 and str(zero) == "0"
    assert recurrence_from_polynomial(IntegerPolynomial((1,))) == Recurrence((), 1)


def test_integer_polynomial_needs_a_nonzero_leading_coefficient():
    with pytest.raises(ValueError) as info:
        IntegerPolynomial((1, 0))
    assert str(info.value) == "leading coefficient must be nonzero"


@pytest.mark.parametrize("coefficients, bad", [
    ([1.5, 2], 1.5), ([1, Fraction(2)], Fraction(2)), ([1, True], True), (["1"], "1"),
], ids=["float", "Fraction", "bool", "str"])
def test_integer_polynomial_refuses_a_coefficient_that_is_not_an_int(coefficients, bad):
    with pytest.raises(ValueError) as info:
        IntegerPolynomial(coefficients)
    assert str(info.value) == f"coefficient {bad!r} is not an int"


@pytest.mark.parametrize("build, message", [
    # a float value once reached Berlekamp-Massey, which raised TypeError
    (lambda: minimal_recurrence(CountSequence(3, [1.5] * 10)), "value 1.5 is not an int"),
    (lambda: CountSequence(3, [1, True]), "value True is not an int"),
    (lambda: CountSequence(3, ["1"]), "value '1' is not an int"),
    (lambda: CountSequence(0, [1]), "n must be >= 1, got 0"),
    (lambda: CountSequence(3.0, [1]), "n must be an int, got 3.0"),
    (lambda: CountSequence(True, [1]), "n must be an int, got True"),
    # a float coefficient was once printed as f(i+1)=1.5 f(i)
    (lambda: Recurrence([1.5], 1), "coefficient 1.5 is not an int"),
    (lambda: Recurrence([1, Fraction(2)], 1), "coefficient Fraction(2, 1) is not an int"),
    (lambda: Recurrence([True], 1), "coefficient True is not an int"),
    # a str valid_from once raised TypeError inside verify_recurrence
    (lambda: verify_recurrence(Recurrence([1], "a"), count_sequence(3, 10)),
     "valid_from must be an int, got 'a'"),
    (lambda: Recurrence([1], 1.5), "valid_from must be an int, got 1.5"),
    (lambda: Recurrence([1], 0), "valid_from must be >= 1, got 0"),
], ids=["CountSequence-float", "CountSequence-bool", "CountSequence-str", "CountSequence-n0",
        "CountSequence-n-float", "CountSequence-n-bool", "Recurrence-float", "Recurrence-Fraction",
        "Recurrence-bool", "Recurrence-valid_from-str", "Recurrence-valid_from-float",
        "Recurrence-valid_from-0"])
def test_count_sequence_and_recurrence_refuse_a_field_that_is_not_an_int(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_integer_polynomial_prints_its_constant_term():
    assert str(IntegerPolynomial((-2, 0, 1))) == "t^2 - 2"


@pytest.mark.parametrize("code", [
    "import nablachains; print(nablachains.count_total(3, 1))",
    "import nablachains.cli",
])
def test_import_footprint(code):
    """-S keeps site hooks, which belong to the machine, out of the child."""
    heavy = ("dataclasses", "typing", "inspect", "ast")
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; "
             f"print(sorted(m for m in {heavy!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.splitlines()[-1] == "[]"
