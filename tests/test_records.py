"""The package's immutable records: `ExactMatrix` and the NamedTuple records
of `modules`, `forms`, `omega`, `hypergeom` and `verify` (see
`sl2forms.records`).

Each record must survive a pickle round trip under every protocol, and a
deep copy, as an equal object of the same type: the process pool pickles
what it passes, and a tuple-based record whose constructor were not its
fields would be rebuilt wrongly.  Fields stay immutable, tuple arithmetic
stays refused, and a copy with changes is validated like a new record.
Every public NamedTuple of the package is `frozen` and covered here.
"""

import copy
import pickle
import pkgutil
import re
from fractions import Fraction
from importlib import import_module

import pytest

import sl2forms
from sl2forms import records as records_module
from sl2forms.forms import is_star_form, tensor_of_canonical_forms
from sl2forms.hypergeom import KMParams, km_range_verify, to_3f2
from sl2forms.linalg import ExactMatrix
from sl2forms.modules import (
    CheckReport,
    WeightModule,
    check_relations,
    decompose,
    perturbed,
    tensor_of_irreducibles,
)
from sl2forms.omega import OmegaRow, b_closed_form, omega_table
from sl2forms.verify import SuiteResult

Q, R = Fraction(-3, 2), Fraction(5, 7)


def records():
    """One record of each type, with the matrix's cached transpose filled in.

    A case is named by its record's type, but `check_relations` and
    `is_star_form` both return a `CheckReport`: their cases are named by
    the check (`CHECK_CASES`)."""
    matrix = ExactMatrix.from_rows([[1, Fraction(1, 2)], [0, -3]])
    matrix.transpose
    module = tensor_of_irreducibles(2, 1)
    form = tensor_of_canonical_forms(2, 1, Q, R)
    table = omega_table(2, 1, Q, R)
    params = KMParams(2, 1, 3, 3)
    return {
        "ExactMatrix": matrix,
        "WeightModule": module,
        "ModuleVector": b_closed_form(2, 1, 1),
        "RelationReport": check_relations(perturbed(module, "X", 0, 1, 1)),
        "DecompositionReport": decompose(module),
        "BilinearForm": form,
        "StarFormReport": is_star_form(module, form),
        "OmegaRow": table.rows[1],
        "OmegaReport": table,
        "SuiteResult": SuiteResult("relations", 3, ("V_1: [X,Y]=H",), 0.25),
        "KMParams": params,
        "HypergeomSpec": to_3f2(params)[0],
        "KMSweepReport": km_range_verify(2),
    }


CHECK_CASES = ("RelationReport", "StarFormReport")
RECORDS = records()
TUPLE_RECORDS = {name: r for name, r in RECORDS.items() if name != "ExactMatrix"}


def test_every_record_type_is_covered():
    assert [type(r).__name__ for r in RECORDS.values()] == [
        "CheckReport" if case in CHECK_CASES else case for case in RECORDS
    ]


def public_named_tuples():
    """Every NamedTuple class defined in a layer of the package whose name
    does not start with ``_`` (so `verify._Task`, private plan plumbing, is
    left out)."""
    found = {}
    for info in pkgutil.iter_modules(sl2forms.__path__):
        if info.name.startswith("_"):
            continue
        layer = import_module(f"sl2forms.{info.name}")
        for name, value in vars(layer).items():
            if (isinstance(value, type) and issubclass(value, tuple)
                    and hasattr(value, "_fields")
                    and value.__module__ == layer.__name__
                    and not name.startswith("_")):
                found[name] = value
    return found


def test_every_public_named_tuple_is_frozen_and_covered():
    found = public_named_tuples()
    by_type = {type(r).__name__: r for r in TUPLE_RECORDS.values()}
    assert set(found) == set(by_type)
    assert found["CheckReport"] is CheckReport
    for name, cls in found.items():
        assert cls.__add__ is records_module._no_arithmetic, name
        assert cls._make.__func__ is records_module._make, name
        assert not hasattr(by_type[name], "__dict__"), name


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


def test_an_edited_pickle_is_validated_at_every_protocol():
    # KMParams(2, 0, 3, 4) with k edited to 5, past min(m, n)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        data = pickle.dumps(KMParams(2, 0, 3, 4), protocol)
        two, five = (b"I2\n", b"I5\n") if protocol == 0 else (b"K\x02", b"K\x05")
        assert data.count(two) == 1, protocol
        with pytest.raises(ValueError, match=re.escape("got k=5, l=0, m=3, n=4")):
            pickle.loads(data.replace(two, five))


def test_cached_properties_survive_a_round_trip():
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        matrix = pickle.loads(pickle.dumps(RECORDS["ExactMatrix"], protocol))
        assert matrix.transpose == RECORDS["ExactMatrix"].transpose


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
    matrix = RECORDS["ExactMatrix"]
    before = matrix.transpose
    with pytest.raises(AttributeError):
        matrix.transpose = None
    assert matrix.transpose is before


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
    "WeightModule": ({"basis_names": ("e",)}, "basis_names must have one entry per"),
    "ModuleVector": (
        {"terms": ((6, 1),)}, "term index 6 does not live in V_2⊗V_1 (dim 6)"
    ),
    "ModuleVector-order": ({"terms": ((2, 1), (1, 3))}, "term index 1 is out of order"),
    "ModuleVector-negative": ({"terms": ((-1, 1),)}, "term index -1 is out of order"),
    "ModuleVector-zero": ({"terms": ((1, 1), (2, 0))}, "term 2 is zero"),
    "DecompositionReport": ({"dim": 7}, "summand dimensions add to 6, not 7"),
    "BilinearForm": ({"gram": ExactMatrix.from_rows([[1, 2], [0, 1]])},
                     "gram matrix must be 6x6"),
    "OmegaReport": ({"rows": ()}, "rows must cover k = 0..1 in order"),
    "OmegaReport-s": (
        {"rows": (RECORDS["OmegaRow"]._replace(k=0), RECORDS["OmegaRow"])},
        "row k=0 has s=1, expected m+n-2k",
    ),
    "WeightModule-actX": ({"actX": ExactMatrix.from_rows([[1]])}, "actX must be 6x6"),
    "KMParams": ({"k": 5}, "need 0 <= l <= k"),
    "HypergeomSpec": ({"upper": (Fraction(1, 2), Fraction(1), Fraction(3))},
                      "series does not terminate"),
}


@pytest.mark.parametrize("case", INVALID_CHANGES)
def test_replace_validates_like_the_constructor(case):
    changes, message = INVALID_CHANGES[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        RECORDS[case.partition("-")[0]]._replace(**changes)


def test_derived_values_are_properties_not_fields():
    # a verdict or size that a record's fields determine is computed from
    # them, so a record cannot contradict itself
    assert OmegaRow._fields == ("k", "s", "value")
    assert CheckReport._fields == ("label", "failures")
    assert WeightModule._fields == (
        "label", "weights", "basis_names", "actX", "actY", "actH"
    )
    assert OmegaRow(0, 2, Fraction(-3)).sign == -1
    assert RECORDS["WeightModule"].dim == 6
    assert RECORDS["OmegaReport"].alternating
    zero = ExactMatrix.from_rows([[0]])
    with pytest.raises(TypeError):
        OmegaRow(0, 2, Fraction(2), -1)
    with pytest.raises(TypeError):
        WeightModule("V_0", 1, (0,), ("e_{0}",), zero, zero, zero)
