"""The package's immutable records: `ExactMatrix` and the NamedTuple records
of `modules`, `forms`, `omega` and `verify` (see `sl2forms.records`).

Each record must survive a pickle round trip under every protocol, and a
deep copy, as an equal object of the same type: the process pool pickles
what it passes, and a tuple-based record whose constructor were not its
fields would be rebuilt wrongly.  Fields stay immutable, tuple arithmetic
stays refused, and a copy with changes is validated like a new record.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from sl2forms.forms import is_star_form, tensor_of_canonical_forms
from sl2forms.linalg import ExactMatrix
from sl2forms.modules import (
    check_relations,
    decompose,
    perturbed,
    tensor_of_irreducibles,
)
from sl2forms.omega import b_closed_form, check_sign_alternation
from sl2forms.verify import SuiteResult

Q, R = Fraction(-3, 2), Fraction(5, 7)


def records():
    """One record of each type, with every cached property filled in."""
    matrix = ExactMatrix.from_rows([[1, Fraction(1, 2)], [0, -3]])
    matrix.transpose
    module = tensor_of_irreducibles(2, 1)
    module.weight_positions
    form = tensor_of_canonical_forms(2, 1, Q, R)
    form.integer_gram
    alternation = check_sign_alternation(2, 1, Q, R)
    return {
        "ExactMatrix": matrix,
        "WeightModule": module,
        "ModuleVector": b_closed_form(2, 1, 1),
        "RelationReport": check_relations(perturbed(module, "X", 0, 1, 1)),
        "DecompositionReport": decompose(module),
        "BilinearForm": form,
        "StarFormReport": is_star_form(module, form),
        "OmegaRow": alternation.table.rows[1],
        "OmegaReport": alternation.table,
        "SignAlternationReport": alternation,
        "SuiteResult": SuiteResult("relations", 3, ("V_1: [X,Y]=H",), 0.25),
    }


RECORDS = records()
TUPLE_RECORDS = {name: r for name, r in RECORDS.items() if name != "ExactMatrix"}


def test_every_record_type_is_covered():
    assert [type(r).__name__ for r in RECORDS.values()] == list(RECORDS)


@pytest.mark.parametrize("record", RECORDS.values(), ids=list(RECORDS))
def test_pickle_round_trip_gives_an_equal_record(record):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is type(record), protocol
        assert restored == record and hash(restored) == hash(record), protocol


@pytest.mark.parametrize("record", RECORDS.values(), ids=list(RECORDS))
def test_deep_copy_gives_an_equal_record(record):
    duplicate = copy.deepcopy(record)
    assert type(duplicate) is type(record)
    assert duplicate == record and hash(duplicate) == hash(record)


def test_cached_properties_survive_a_round_trip():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        matrix, module, form = (
            pickle.loads(pickle.dumps(RECORDS[name], protocol))
            for name in ("ExactMatrix", "WeightModule", "BilinearForm")
        )
        assert matrix.transpose == RECORDS["ExactMatrix"].transpose
        assert module.weight_positions == RECORDS["WeightModule"].weight_positions
        assert form.integer_gram == RECORDS["BilinearForm"].integer_gram


@pytest.mark.parametrize("record", RECORDS.values(), ids=list(RECORDS))
def test_attributes_cannot_be_set_or_deleted(record):
    field = "rows" if isinstance(record, ExactMatrix) else record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_cached_properties_cannot_be_overwritten():
    for record, name in (
        (RECORDS["ExactMatrix"], "transpose"),
        (RECORDS["WeightModule"], "weight_positions"),
        (RECORDS["BilinearForm"], "integer_gram"),
    ):
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert getattr(record, name) is before


@pytest.mark.parametrize("record", RECORDS.values(), ids=list(RECORDS))
def test_tuple_arithmetic_is_refused(record):
    for operation in (
        lambda: record * 2,
        lambda: 2 * record,
        lambda: () + record,
    ):
        with pytest.raises(TypeError):
            operation()
    if not isinstance(record, ExactMatrix):  # a matrix adds entrywise
        with pytest.raises(TypeError):
            record + record


@pytest.mark.parametrize("record", TUPLE_RECORDS.values(), ids=list(TUPLE_RECORDS))
def test_rebuilt_from_its_fields_is_equal(record):
    rebuilt = type(record)(*record)
    assert rebuilt == record and hash(rebuilt) == hash(record)
    assert record._replace() == record


INVALID_CHANGES = {
    "WeightModule": ({"dim": 5}, "one entry per dimension"),
    "ModuleVector": ({"coords": (1, 0)}, "does not live in V_2⊗V_1"),
    "DecompositionReport": ({"dim": 7}, "summand dimensions add to 6, not 7"),
    "BilinearForm": ({"gram": ExactMatrix.from_rows([[1, 2], [0, 1]])},
                     "gram matrix must be 6x6"),
    "OmegaReport": ({"rows": ()}, "rows must cover k = 0..1 in order"),
}


@pytest.mark.parametrize("name", INVALID_CHANGES)
def test_replace_validates_like_the_constructor(name):
    changes, message = INVALID_CHANGES[name]
    with pytest.raises(ValueError, match=message):
        RECORDS[name]._replace(**changes)
