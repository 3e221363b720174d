"""The contract of the public value types.

Equality (same class only, field by field), the hash of the field
tuple, the exact repr, immutability, pickle and copy round trips, and
the constructors' exceptions and messages.
"""

import copy
import math
import pickle
from decimal import Decimal
from fractions import Fraction
from operator import attrgetter

import pytest

from bezout_bezier import (
    BezoutCoeffs,
    Center,
    CoprimePair,
    DomainError,
    EnvelopeParams,
    EnvelopeRecord,
    HypothesisError,
    Point2,
    QuadBezier,
    RenderOptions,
    Segment,
    VerificationReport,
    _kernels_py,
    bezout_coefficients,
    bezout_segment,
    build_envelope,
    contact_parameter,
    coprime_neighbors,
    endpoint_gaps,
    extend_pair,
    flip_bezout,
    gcd,
)
from bezout_bezier._frozen import Frozen, setfields


_PARAMS = EnvelopeParams(Center(10, 3), 2.0)


def _record(r=10, s=3, params=_PARAMS):
    return EnvelopeRecord(CoprimePair(r, s), params)


_RECORD_REPR = (
    "EnvelopeRecord(pair=CoprimePair(r=10, s=3), "
    "params=EnvelopeParams(center=Center(p=10, q=3), epsilon=2.0))"
)
_PARAMS_REPR = "EnvelopeParams(center=Center(p=10, q=3), epsilon=2.0)"

# name: (fields in order, a factory of equal instances, an unequal
# instance of the same class, the repr of the factory's instances)
CASES = {
    "Point2": (
        ("x", "y"),
        lambda: Point2(1.5, -2.0),
        Point2(1.5, 2.0),
        "Point2(x=1.5, y=-2.0)",
    ),
    "Segment": (
        ("start", "end"),
        lambda: Segment(Point2(2.0, 3.0), Point2(2.0, 1.0)),
        Segment(Point2(2.0, 1.0), Point2(2.0, 3.0)),
        "Segment(start=Point2(x=2.0, y=3.0), end=Point2(x=2.0, y=1.0))",
    ),
    "QuadBezier": (
        ("p", "q"),
        lambda: QuadBezier(10, 3),
        QuadBezier(10, 4),
        "QuadBezier(p=10, q=3)",
    ),
    "CoprimePair": (
        ("r", "s"),
        lambda: CoprimePair(3, 5),
        CoprimePair(5, 3),
        "CoprimePair(r=3, s=5)",
    ),
    "BezoutCoeffs": (
        ("a", "b", "pair"),
        lambda: BezoutCoeffs(2, 3, CoprimePair(3, 5)),
        BezoutCoeffs(2, 1, CoprimePair(5, 3)),
        "BezoutCoeffs(a=2, b=3, pair=CoprimePair(r=3, s=5))",
    ),
    "Center": (
        ("p", "q"),
        lambda: Center(10, 3),
        Center(10, 0),
        "Center(p=10, q=3)",
    ),
    "EnvelopeParams": (
        ("center", "epsilon"),
        lambda: EnvelopeParams(Center(10, 3), 2.0),
        EnvelopeParams(Center(10, 3), 2.5),
        _PARAMS_REPR,
    ),
    "EnvelopeRecord": (
        ("pair", "params"),
        _record,
        # one pair at another epsilon: another record
        _record(params=EnvelopeParams(Center(10, 3), 2.5)),
        _RECORD_REPR,
    ),
    # the sequence of a report's records, as report.records reaches it:
    # the report itself
    "EnvelopeRecords": (
        ("params",),
        lambda: VerificationReport(EnvelopeParams(Center(10, 3), 2.0)).records,
        VerificationReport(EnvelopeParams(Center(10, 3), 2.5)).records,
        f"VerificationReport(params={_PARAMS_REPR})",
    ),
    "VerificationReport": (
        ("params",),
        lambda: VerificationReport(EnvelopeParams(Center(10, 3), 2.0)),
        VerificationReport(EnvelopeParams(Center(10, 3), 2.5)),
        f"VerificationReport(params={_PARAMS_REPR})",
    ),
    "RenderOptions": (
        (
            "width_px", "show_curve", "show_controls", "curve_samples",
            "stroke_width_fraction",
        ),
        lambda: RenderOptions(400, True),
        RenderOptions(),
        "RenderOptions(width_px=400, show_curve=True, show_controls=False, "
        "curve_samples=256, stroke_width_fraction=0.0008)",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def _values(obj, fields):
    return tuple(getattr(obj, name) for name in fields)


def test_equality_and_hash(case):
    fields, make, other, _ = case
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_values(a, fields))
    assert a != other and other != a
    assert a != _values(a, fields)


def test_unequal_across_classes():
    same_fields = [Center(10, 3), QuadBezier(10, 3), CoprimePair(10, 3), Point2(10, 3)]
    for i, a in enumerate(same_fields):
        for b in same_fields[i + 1:]:
            assert a != b and b != a
    assert CoprimePair(10, 3) == CoprimePair(10, 3)


def test_repr(case):
    _, make, _, text = case
    assert repr(make()) == text


def test_positional_and_keyword_construction(case):
    fields, make, _, _ = case
    a = make()
    cls = type(a)
    assert cls.__match_args__ == fields
    assert cls(*_values(a, fields)) == a
    assert cls(**dict(zip(fields, _values(a, fields)))) == a


_summary = attrgetter(
    "neighbor_count", "all_bounds_hold", "max_deviation", "max_endpoint_gap", "extent"
)


def test_report_summary_comes_from_its_records(monkeypatch):
    # the summary is the fold over the scanned rows, not constructor
    # arguments; a copy or an unpickled report scans and folds again
    _, make, _, _ = CASES["VerificationReport"]
    report = make()
    # (10, 3) and (11, 3) at epsilon 2: B(10, 3) = (7, 2), B(3, 10) = (1, 3),
    # B(11, 3) = (4, 1) and B(3, 11) = (2, 7)
    for a in (report, pickle.loads(pickle.dumps(report)), copy.copy(report)):
        assert _summary(a) == (
            2, True, pytest.approx(0.4105, abs=1e-4),
            pytest.approx(0.6212, abs=1e-4), (7, 7),
        )
    empty = VerificationReport(EnvelopeParams(Center(300, 21), 1.5))
    assert _summary(empty) == (0, True, 0.0, 0.0, (0, 0))
    # (3, 5) lies 7.3 from (10, 3), outside every disk the scan reads: a
    # scan that yields it anyway breaks epsilon 2 with deviation 2.28
    rows = [_kernels_py.pair_row(10, 3, 10, 3), _kernels_py.pair_row(10, 3, 3, 5)]
    monkeypatch.setattr(_kernels_py, "envelope_scan", lambda p, q, radius: rows)
    failing = VerificationReport(report.params)
    assert _summary(failing) == (
        2, False, pytest.approx(2.2838, abs=1e-4), pytest.approx(4.3311, abs=1e-4),
        (7, 3),
    )


def test_render_options_defaults():
    assert RenderOptions() == RenderOptions(800, False, False, 256, 0.0008)
    assert RenderOptions(curve_samples=32) == RenderOptions(800, False, False, 32)


def test_fields_cannot_be_assigned_or_deleted(case):
    fields, make, other, _ = case
    a = make()
    before = _values(a, fields)
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, getattr(other, name))
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
    assert _values(a, fields) == before


def test_other_attributes_cannot_be_set(case):
    # the frozen slots dataclasses raised TypeError here, from their
    # generated __setattr__'s super() call
    _, make, _, _ = case
    a = make()
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        a.extra = 1


def test_pickle_and_copy_round_trips(case):
    _, make, _, _ = case
    a = make()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is type(a) and b == a
    for b in (copy.copy(a), copy.deepcopy(a)):
        assert type(b) is type(a) and b == a


# name: the slots outside _fields, which hold values the constructor
# derives from the fields
DERIVED = {
    "QuadBezier": ("is_degenerate",),
    "EnvelopeParams": ("radius", "gap_limit"),
    "EnvelopeRecord": ("_row",),
    "VerificationReport": (
        "rows", "neighbor_count", "all_bounds_hold", "max_deviation",
        "max_endpoint_gap", "extent",
    ),
}


def test_derived_slots(case):
    # set once by the constructor: rebuilt by pickling and copying, which
    # pass only the fields, and as read-only as a field
    fields, make, _, _ = case
    a = make()
    cls = type(a)
    derived = tuple(name for name in cls.__slots__ if name not in fields)
    assert derived == DERIVED.get(cls.__name__, ())
    assert not set(derived) & set(cls.__match_args__)
    copies = [
        pickle.loads(pickle.dumps(a, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    copies += [copy.copy(a), copy.deepcopy(a)]
    for name in derived:
        value = getattr(a, name)
        for b in copies:
            assert getattr(b, name) == value
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
        assert getattr(a, name) is value


class _Pair(Frozen):
    __slots__ = ("a", "b")

    def __init__(self, *values):
        setfields(self, *values)


def test_setfields_sets_one_value_per_slot():
    pair = _Pair(1, 2)
    assert (pair.a, pair.b) == (1, 2)
    # a value short would leave slot b unset until its first read failed
    for values in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError):
            _Pair(*values)


_HALF_NORM = 0.5 * math.hypot(10, 3)

# An int too long for str(): a message names it by its sign and size.
_HUGE = 10**5000
_HUGE_TEXT = "<16610-bit integer>"


@pytest.mark.parametrize(
    "build, exc_type, message",
    [
        (lambda: CoprimePair(0, 5), DomainError,
         "coprime pair needs r >= 1 (got r = 0)"),
        (lambda: CoprimePair(2**31 + 1, 1), DomainError,
         "r = 2147483649 exceeds the supported range 2**31"),
        (lambda: CoprimePair(1, 2**31 + 1), DomainError,
         "s = 2147483649 exceeds the supported range 2**31"),
        (lambda: CoprimePair(6, 4), DomainError, "(6, 4) is not coprime: gcd = 2"),
        (lambda: CoprimePair(2.0, 3), DomainError,
         "coprime pair needs an integer r (got r = 2.0)"),
        (lambda: CoprimePair(3, True), DomainError,
         "coprime pair needs an integer s (got s = True)"),
        (lambda: BezoutCoeffs(1, 1, CoprimePair(3, 5)), DomainError,
         "(1, 1) does not satisfy the identity for (3, 5): 1*5 - 1*3 != 1"),
        (lambda: BezoutCoeffs(5, 8, CoprimePair(3, 5)), DomainError,
         "(5, 8) lies outside the normalization box 0 < a <= 3, 0 <= b < 5"),
        (lambda: BezoutCoeffs(2.0, 3, CoprimePair(3, 5)), DomainError,
         "BezoutCoeffs needs an integer a (got a = 2.0)"),
        (lambda: BezoutCoeffs(2, 3.0, CoprimePair(3, 5)), DomainError,
         "BezoutCoeffs needs an integer b (got b = 3.0)"),
        (lambda: BezoutCoeffs(True, 0, CoprimePair(1, 1)), DomainError,
         "BezoutCoeffs needs an integer a (got a = True)"),
        (lambda: BezoutCoeffs(1, False, CoprimePair(1, 1)), DomainError,
         "BezoutCoeffs needs an integer b (got b = False)"),
        (lambda: Center(0, 1), DomainError, "center needs p >= 1 (got p = 0)"),
        (lambda: Center(1, -1), DomainError, "center needs q >= 0 (got q = -1)"),
        (lambda: Center(2**31 + 1, 0), DomainError,
         "p = 2147483649 exceeds the supported range 2**31"),
        (lambda: Center(1, 2**31 + 1), DomainError,
         "q = 2147483649 exceeds the supported range 2**31"),
        (lambda: Center(10.5, 3), DomainError,
         "center needs an integer p (got p = 10.5)"),
        (lambda: Center(True, 0), DomainError,
         "center needs an integer p (got p = True)"),
        (lambda: Center(10, "3"), DomainError,
         "center needs an integer q (got q = '3')"),
        (lambda: Point2(math.inf, 0.0), DomainError,
         "coordinates must be finite (got inf, 0.0)"),
        (lambda: Point2(0.0, math.nan), DomainError,
         "coordinates must be finite (got 0.0, nan)"),
        (lambda: QuadBezier(0, 1), DomainError, "curve needs p >= 1 (got p = 0)"),
        (lambda: QuadBezier(1, -1), DomainError, "curve needs q >= 0 (got q = -1)"),
        (lambda: QuadBezier(2.5, 1), DomainError,
         "curve needs an integer p (got p = 2.5)"),
        (lambda: QuadBezier(3, False), DomainError,
         "curve needs an integer q (got q = False)"),
        pytest.param(
            lambda: QuadBezier(2**31 + 1, 0), DomainError,
            "p = 2147483649 exceeds the supported range 2**31",
            id="QuadBezier p beyond the range",
        ),
        pytest.param(
            lambda: QuadBezier(10**400, 0), DomainError,
            f"p = {10**400} exceeds the supported range 2**31",
            id="QuadBezier p beyond the floats",
        ),
        (lambda: EnvelopeParams(Center(3, 1), 2.0), HypothesisError,
         "requires p > 3 (got p = 3)"),
        (lambda: EnvelopeParams(Center(4, 7), 2.0), HypothesisError,
         "requires 0 <= q < p (got p = 4 and q = 7)"),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), math.nan), HypothesisError,
            "requires epsilon > 1 (got epsilon = nan)",
            id="nan epsilon",
        ),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), -math.inf), HypothesisError,
            "requires epsilon > 1 (got epsilon = -inf)",
            id="-inf epsilon",
        ),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), math.inf), HypothesisError,
            f"requires epsilon <= ||(p,q)||/2 = {_HALF_NORM} (got epsilon = inf)",
            id="inf epsilon",
        ),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), "2"), DomainError,
            "epsilon must be a number (got '2')",
            id="str epsilon",
        ),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), True), DomainError,
            "epsilon must be a number (got True)",
            id="bool epsilon",
        ),
        (lambda: EnvelopeParams(Center(10, 3), 1), HypothesisError,
         "requires epsilon > 1 (got epsilon = 1)"),
        (lambda: EnvelopeParams(Center(10, 3), 99.0), HypothesisError,
         f"requires epsilon <= ||(p,q)||/2 = {_HALF_NORM} (got epsilon = 99.0)"),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), 10**400), HypothesisError,
            f"requires epsilon <= ||(p,q)||/2 = {_HALF_NORM} "
            f"(got epsilon = {10**400})",
            id="huge int epsilon",
        ),
        pytest.param(
            lambda: EnvelopeParams(Center(2**31, 2**31 - 1), 3.0), DomainError,
            "requires p + epsilon <= 2**31 and q + epsilon <= 2**31 so that every "
            "neighbor stays in the supported range "
            "(got p = 2147483648, q = 2147483647 and epsilon = 3.0)",
            id="EnvelopeParams disk beyond the range",
        ),
        (lambda: RenderOptions(width_px=15), DomainError,
         "RenderOptions needs width_px >= 16 (got width_px = 15)"),
        (lambda: RenderOptions(curve_samples=1), DomainError,
         "RenderOptions needs curve_samples >= 2 (got curve_samples = 1)"),
        pytest.param(
            lambda: RenderOptions(width_px=10**400), DomainError,
            f"width_px = {10**400} exceeds the supported range 2**31",
            id="huge int RenderOptions width_px",
        ),
        (lambda: RenderOptions(stroke_width_fraction=1.0), DomainError,
         "stroke_width_fraction must lie in (0, 1) (got 1.0)"),
        (lambda: RenderOptions(stroke_width_fraction="0.1"), DomainError,
         "stroke_width_fraction must be a number (got '0.1')"),
        (lambda: RenderOptions(stroke_width_fraction=Decimal("0.1")), DomainError,
         "stroke_width_fraction must be a number (got Decimal('0.1'))"),
        (lambda: RenderOptions(stroke_width_fraction=Fraction(1, 10)), DomainError,
         "stroke_width_fraction must be a number (got Fraction(1, 10))"),
        (lambda: RenderOptions(stroke_width_fraction=True), DomainError,
         "stroke_width_fraction must be a number (got True)"),
        (lambda: RenderOptions(width_px=100.5), DomainError,
         "RenderOptions needs an integer width_px (got width_px = 100.5)"),
        (lambda: RenderOptions(curve_samples=2.5, show_curve=True), DomainError,
         "RenderOptions needs an integer curve_samples (got curve_samples = 2.5)"),
        (lambda: RenderOptions(curve_samples=True), DomainError,
         "RenderOptions needs an integer curve_samples (got curve_samples = True)"),
        (lambda: Point2(1.0), TypeError,
         "Point2.__init__() missing 1 required positional argument: 'y'"),
        (lambda: Segment(Point2(0.0, 0.0), Point2(1.0, 1.0), None), TypeError,
         "Segment.__init__() takes 3 positional arguments but 4 were given"),
        pytest.param(
            lambda: Center(_HUGE, 1), DomainError,
            f"p = {_HUGE_TEXT} exceeds the supported range 2**31",
            id="huge int Center p",
        ),
        pytest.param(
            lambda: CoprimePair(_HUGE, 1), DomainError,
            f"r = {_HUGE_TEXT} exceeds the supported range 2**31",
            id="huge int CoprimePair r",
        ),
        pytest.param(
            lambda: CoprimePair(1, -_HUGE), DomainError,
            f"coprime pair needs s >= 1 (got s = -{_HUGE_TEXT})",
            id="huge negative int CoprimePair s",
        ),
        pytest.param(
            lambda: QuadBezier(-_HUGE, 1), DomainError,
            f"curve needs p >= 1 (got p = -{_HUGE_TEXT})",
            id="huge negative int QuadBezier p",
        ),
        pytest.param(
            lambda: BezoutCoeffs(_HUGE, 1, CoprimePair(3, 5)), DomainError,
            f"({_HUGE_TEXT}, 1) does not satisfy the identity for (3, 5): "
            f"{_HUGE_TEXT}*5 - 1*3 != 1",
            id="huge int BezoutCoeffs a",
        ),
        pytest.param(
            lambda: RenderOptions(width_px=-_HUGE), DomainError,
            f"RenderOptions needs width_px >= 16 (got width_px = -{_HUGE_TEXT})",
            id="huge negative int RenderOptions width_px",
        ),
        pytest.param(
            lambda: gcd(-_HUGE, 1), DomainError,
            f"gcd needs x >= 0 (got x = -{_HUGE_TEXT})",
            id="huge negative int gcd",
        ),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), _HUGE), HypothesisError,
            f"requires epsilon <= ||(p,q)||/2 = {_HALF_NORM} "
            f"(got epsilon = {_HUGE_TEXT})",
            id="huge int epsilon beyond str",
        ),
        pytest.param(
            lambda: EnvelopeParams(Center(10, 3), -_HUGE), HypothesisError,
            f"requires epsilon > 1 (got epsilon = -{_HUGE_TEXT})",
            id="huge negative int epsilon",
        ),
        pytest.param(
            lambda: Point2(_HUGE, 1), DomainError,
            f"coordinates must be finite (got {_HUGE_TEXT}, 1)",
            id="huge int Point2 x",
        ),
        pytest.param(
            lambda: EnvelopeParams((10, 3), 2.0), DomainError,
            "EnvelopeParams needs center of type Center (got center = (10, 3))",
            id="tuple EnvelopeParams center",
        ),
        pytest.param(
            lambda: BezoutCoeffs(2, 3, (3, 5)), DomainError,
            "BezoutCoeffs needs pair of type CoprimePair (got pair = (3, 5))",
            id="tuple BezoutCoeffs pair",
        ),
        pytest.param(
            lambda: EnvelopeRecord((10, 3), _PARAMS), DomainError,
            "EnvelopeRecord needs pair of type CoprimePair (got pair = (10, 3))",
            id="tuple EnvelopeRecord pair",
        ),
        pytest.param(
            lambda: EnvelopeRecord(CoprimePair(10, 3), _HUGE), DomainError,
            "EnvelopeRecord needs params of type EnvelopeParams "
            f"(got params = {_HUGE_TEXT})",
            id="huge int EnvelopeRecord params",
        ),
        pytest.param(
            lambda: RenderOptions(show_curve="no"), DomainError,
            "RenderOptions needs show_curve of type bool (got show_curve = 'no')",
            id="str RenderOptions show_curve",
        ),
        pytest.param(
            lambda: RenderOptions(show_controls=1), DomainError,
            "RenderOptions needs show_controls of type bool (got show_controls = 1)",
            id="int RenderOptions show_controls",
        ),
        pytest.param(
            lambda: Point2(0.0, 10**400), DomainError,
            f"coordinates must be finite (got 0.0, {10**400})",
            id="int beyond the floats Point2 y",
        ),
        pytest.param(
            lambda: VerificationReport((10, 3)), DomainError,
            "VerificationReport needs params of type EnvelopeParams "
            "(got params = (10, 3))",
            id="tuple VerificationReport params",
        ),
        pytest.param(
            lambda: VerificationReport(_PARAMS, []), TypeError,
            "VerificationReport.__init__() takes 2 positional arguments "
            "but 3 were given",
            id="VerificationReport records",
        ),
        pytest.param(
            # the records' one params check is the report's, which
            # build_envelope reaches too
            lambda: build_envelope((10, 3, 2.0)), DomainError,
            "VerificationReport needs params of type EnvelopeParams "
            "(got params = (10, 3, 2.0))",
            id="tuple EnvelopeRecords params",
        ),
        pytest.param(
            lambda: coprime_neighbors((10, 3), 2.0), DomainError,
            "coprime_neighbors needs center of type Center (got center = (10, 3))",
            id="tuple coprime_neighbors center",
        ),
        pytest.param(
            lambda: endpoint_gaps((10, 3), _PARAMS), DomainError,
            "endpoint_gaps needs pair of type CoprimePair (got pair = (10, 3))",
            id="tuple endpoint_gaps pair",
        ),
        pytest.param(
            lambda: endpoint_gaps(CoprimePair(10, 3), (10, 3, 2.0)), DomainError,
            "endpoint_gaps needs params of type EnvelopeParams "
            "(got params = (10, 3, 2.0))",
            id="tuple endpoint_gaps params",
        ),
        pytest.param(
            lambda: bezout_coefficients((3, 5)), DomainError,
            "bezout_coefficients needs pair of type CoprimePair (got pair = (3, 5))",
            id="tuple bezout_coefficients pair",
        ),
        pytest.param(
            lambda: contact_parameter((3, 5)), DomainError,
            "contact_parameter needs pair of type CoprimePair (got pair = (3, 5))",
            id="tuple contact_parameter pair",
        ),
        pytest.param(
            lambda: bezout_segment((3, 5)), DomainError,
            "bezout_segment needs pair of type CoprimePair (got pair = (3, 5))",
            id="tuple bezout_segment pair",
        ),
        pytest.param(
            lambda: flip_bezout((2, 3)), DomainError,
            "flip_bezout needs coeffs of type BezoutCoeffs (got coeffs = (2, 3))",
            id="tuple flip_bezout coeffs",
        ),
        pytest.param(
            lambda: extend_pair((2, 3)), DomainError,
            "extend_pair needs coeffs of type BezoutCoeffs (got coeffs = (2, 3))",
            id="tuple extend_pair coeffs",
        ),
    ],
)
def test_constructor_errors(build, exc_type, message):
    with pytest.raises(exc_type) as excinfo:
        build()
    assert type(excinfo.value) is exc_type
    assert str(excinfo.value) == message


@pytest.mark.parametrize(
    "build, owner, name, minimum",
    [
        pytest.param(lambda v: Center(v, 0), "center", "p", 1, id="Center p"),
        pytest.param(lambda v: Center(1, v), "center", "q", 0, id="Center q"),
        pytest.param(lambda v: QuadBezier(v, 0), "curve", "p", 1, id="QuadBezier p"),
        pytest.param(lambda v: QuadBezier(1, v), "curve", "q", 0, id="QuadBezier q"),
        pytest.param(
            lambda v: CoprimePair(v, 1), "coprime pair", "r", 1, id="CoprimePair r"
        ),
        pytest.param(
            lambda v: CoprimePair(1, v), "coprime pair", "s", 1, id="CoprimePair s"
        ),
        pytest.param(
            lambda v: RenderOptions(width_px=v), "RenderOptions", "width_px", 16,
            id="RenderOptions width_px",
        ),
        pytest.param(
            lambda v: RenderOptions(curve_samples=v), "RenderOptions",
            "curve_samples", 2, id="RenderOptions curve_samples",
        ),
        pytest.param(lambda v: gcd(v, 1), "gcd", "x", 0, id="gcd x"),
        pytest.param(lambda v: gcd(1, v), "gcd", "y", 0, id="gcd y"),
    ],
)
def test_integer_floor_message(build, owner, name, minimum):
    # every integer floor is require_int's: one message form, and the
    # floor itself is admitted
    build(minimum)
    for value in (minimum - 1, minimum - 1000):
        with pytest.raises(DomainError) as excinfo:
            build(value)
        assert type(excinfo.value) is DomainError
        assert str(excinfo.value) == (
            f"{owner} needs {name} >= {minimum} (got {name} = {value})"
        )


def test_integer_ceiling_message():
    # the one integer ceiling is require_int's too, and admitted itself;
    # nothing here renders a curve
    RenderOptions(curve_samples=2**16)
    for value in (2**16 + 1, 2**16 + 1000, 10**400):
        with pytest.raises(DomainError) as excinfo:
            RenderOptions(curve_samples=value)
        assert type(excinfo.value) is DomainError
        assert str(excinfo.value) == (
            f"RenderOptions needs curve_samples <= 65536 (got curve_samples = {value})"
        )
