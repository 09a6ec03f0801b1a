"""The package's value types: equality, hashing, immutability, repr and copies."""
import copy
import pickle

import pytest

from tilecount.count2d import Tiling
from tilecount.identities import CheckResult, Report
from tilecount.regions2d import Region2D
from tilecount.sequences import ClosedForm, Family, LinearRecurrence
from tilecount.solid3d import Prism3D

A_REC = LinearRecurrence((4, -1), (3, 11), start=1)
A_CLOSED = ClosedForm(3, 6, 1, ((3, 1, 2, 1), (3, -1, 2, -1)))

# class -> (its fields, a way to build an instance twice over, an instance unequal to it)
RECORDS = {
    Tiling: (
        ("dominoes",),
        lambda: Tiling(frozenset({((0, 0), (0, 1))})),
        Tiling(frozenset({((0, 0), (1, 0))})),
    ),
    Region2D: (("cells",), lambda: Region2D([(1, 1), (1, 2)]), Region2D([(1, 1), (2, 1)])),
    Prism3D: (
        ("cross_section", "layers", "deleted"),
        lambda: Prism3D({(0, 0), (0, 1)}, 3, deleted={(0, 0, 2)}),
        Prism3D({(0, 0), (0, 1)}, 3, deleted={(0, 1, 2)}),
    ),
    ClosedForm: (
        ("d", "coeff_den", "base_den", "terms"),
        lambda: ClosedForm(3, 6, 1, ((3, 1, 2, 1), (3, -1, 2, -1))),
        ClosedForm(3, 2, 1, ((2, 1, 2, 1), (2, -1, 2, -1))),
    ),
    LinearRecurrence: (
        ("coeffs", "initial", "start"),
        lambda: LinearRecurrence((4, -1), (3, 11), start=1),
        LinearRecurrence((4, -1), (3, 11)),
    ),
    Family: (
        ("name", "description", "recurrence", "closed"),
        lambda: Family("A", "3 x 2n", A_REC, A_CLOSED),
        Family("A", "3 x 2n", A_REC),
    ),
    Report: (
        ("checks",),
        lambda: Report([CheckResult("b", (2,), 5, 5), CheckResult("a", (1,), 3, 4)]),
        Report([CheckResult("b", (2,), 5, 5)]),
    ),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_are_hashable_immutable_values(cls):
    fields, make, other = RECORDS[cls]
    first, second = make(), make()
    assert first is not second and first == second and hash(first) == hash(second)
    assert first != other and type(other) is cls
    assert first != tuple(getattr(first, name) for name in fields)  # no tuple behaviour
    assert first != object() and len({first, second, other}) == 2
    for name in fields:
        before = getattr(first, name)
        with pytest.raises(AttributeError):
            setattr(first, name, None)
        with pytest.raises(AttributeError):
            delattr(first, name)
        assert getattr(first, name) is before
    with pytest.raises(AttributeError):
        first.extra = 1
    text = repr(first)
    assert text.startswith(f"{cls.__name__}(") and text.endswith(")")
    assert all(f"{name}={getattr(first, name)!r}" in text for name in fields)
    for clone in (copy.copy(first), copy.deepcopy(first), pickle.loads(pickle.dumps(first))):
        assert type(clone) is cls and clone == first and repr(clone) == text
    assert pickle.loads(pickle.dumps(first, protocol=0)) == first


def test_reprs_name_each_field_in_order():
    assert repr(A_REC) == "LinearRecurrence(coeffs=(4, -1), initial=(3, 11), start=1)"
    assert repr(Region2D([(5, 7)])) == "Region2D(cells=frozenset({(0, 0)}))"
    assert repr(Family("F", "strip", LinearRecurrence((1, 1), (1, 1)))) == (
        "Family(name='F', description='strip', "
        "recurrence=LinearRecurrence(coeffs=(1, 1), initial=(1, 1), start=0), closed=None)"
    )
    failed = CheckResult("a", (1,), 3, 4)  # a report's failures are a field of their own
    assert repr(Report([failed])) == (
        "Report(checks=(CheckResult(name='a', params=(1,), left=3, right=4),), "
        "failures=(CheckResult(name='a', params=(1,), left=3, right=4),))"
    )


def test_constructors_keep_their_signatures_and_defaults():
    assert LinearRecurrence(coeffs=(1,), initial=(2,)).start == 0
    assert Family(name="F", description="", recurrence=A_REC).closed is None
    assert Prism3D(cross_section=[(0, 0)], layers=2).deleted == frozenset()
    assert Region2D() == Region2D([]) and Region2D().cells == frozenset()
    assert Tiling(dominoes=frozenset()) == Tiling(frozenset())
    # the constructors still normalize what they are given
    assert Region2D([(3, 4), (3, 5)]).cells == frozenset({(0, 0), (0, 1)})
    assert Prism3D([[0, 1]], 1).cross_section == frozenset({(0, 1)})
    checks = [CheckResult("b", (1,), 1, 1), CheckResult("a", (2,), 1, 1), CheckResult("a", (1,), 0, 1)]
    report = Report(checks)
    assert [c.name + str(c.params) for c in report.checks] == ["a(1,)", "a(2,)", "b(1,)"]
    assert report.failures == (checks[2],) and not report.all_passed
