"""The contract of the public value types.

Equality (same class only, field by field), the hash of the field
tuple, the exact repr, immutability, pickle and copy round trips, and
the constructors' exceptions and messages.
"""

import copy
import math
import pickle

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
    SweepResult,
    VerificationReport,
)


def _record(deviation=0.75, bound_ok=True):
    pair = CoprimePair(3, 5)
    return EnvelopeRecord(
        pair,
        BezoutCoeffs(2, 3, pair),
        BezoutCoeffs(2, 1, CoprimePair(5, 3)),
        Segment(Point2(2.0, 3.0), Point2(2.0, 1.0)),
        0.5,
        0.25,
        0.125,
        deviation,
        bound_ok,
        False,
    )


_RECORD_REPR = (
    "EnvelopeRecord(pair=CoprimePair(r=3, s=5), "
    "coeffs=BezoutCoeffs(a=2, b=3, pair=CoprimePair(r=3, s=5)), "
    "flipped=BezoutCoeffs(a=2, b=1, pair=CoprimePair(r=5, s=3)), "
    "segment=Segment(start=Point2(x=2.0, y=3.0), end=Point2(x=2.0, y=1.0)), "
    "t_contact=0.5, gap_alpha=0.25, gap_beta=0.125, deviation=0.75, "
    "bound_ok=True, degenerate=False)"
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
        (
            "pair", "coeffs", "flipped", "segment", "t_contact",
            "gap_alpha", "gap_beta", "deviation", "bound_ok", "degenerate",
        ),
        _record,
        _record(2.5, False),
        _RECORD_REPR,
    ),
    "VerificationReport": (
        (
            "params", "records", "neighbor_count", "all_bounds_hold",
            "max_deviation", "max_endpoint_gap",
        ),
        lambda: VerificationReport(
            EnvelopeParams(Center(10, 3), 2.0), (_record(),), 1, True, 0.75, 0.25
        ),
        VerificationReport(EnvelopeParams(Center(10, 3), 2.0), (), 0, True, 0.0, 0.0),
        f"VerificationReport(params={_PARAMS_REPR}, records=({_RECORD_REPR},), "
        "neighbor_count=1, all_bounds_hold=True, max_deviation=0.75, "
        "max_endpoint_gap=0.25)",
    ),
    "SweepResult": (
        ("center", "epsilon", "report", "skip_reason"),
        lambda: SweepResult(
            Center(10, 3), 0.5, None, "requires epsilon > 1 (got epsilon = 0.5)"
        ),
        SweepResult(Center(10, 3), 0.5, None, None),
        "SweepResult(center=Center(p=10, q=3), epsilon=0.5, report=None, "
        "skip_reason='requires epsilon > 1 (got epsilon = 0.5)')",
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


_HALF_NORM = 0.5 * math.hypot(10, 3)


@pytest.mark.parametrize(
    "build, exc_type, message",
    [
        (lambda: CoprimePair(0, 5), DomainError,
         "coprime pair entries must be positive integers (got (0, 5))"),
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
        (lambda: EnvelopeParams(Center(3, 1), 2.0), HypothesisError,
         "requires p > 3 (got p = 3)"),
        (lambda: EnvelopeParams(Center(4, 7), 2.0), HypothesisError,
         "requires 0 <= q < p (got p = 4 and q = 7)"),
        (lambda: EnvelopeParams(Center(10, 3), math.nan), HypothesisError,
         "requires a finite epsilon (got nan)"),
        (lambda: EnvelopeParams(Center(10, 3), "2"), HypothesisError,
         "requires a finite epsilon (got '2')"),
        (lambda: EnvelopeParams(Center(10, 3), 1), HypothesisError,
         "requires epsilon > 1 (got epsilon = 1)"),
        (lambda: EnvelopeParams(Center(10, 3), 99.0), HypothesisError,
         f"requires epsilon <= ||(p,q)||/2 = {_HALF_NORM} (got epsilon = 99.0)"),
        (lambda: EnvelopeParams(Center(2**31, 2**31 - 1), 3.0), DomainError,
         "requires p + epsilon <= 2**31 (got p = 2147483648 and epsilon = 3.0)"),
        (lambda: RenderOptions(width_px=15), DomainError,
         "width_px must be >= 16 (got 15)"),
        (lambda: RenderOptions(curve_samples=1), DomainError,
         "curve_samples must be >= 2 (got 1)"),
        (lambda: RenderOptions(stroke_width_fraction=1.0), DomainError,
         "stroke_width_fraction must lie in (0, 1) (got 1.0)"),
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
    ],
)
def test_constructor_errors(build, exc_type, message):
    with pytest.raises(exc_type) as excinfo:
        build()
    assert type(excinfo.value) is exc_type
    assert str(excinfo.value) == message
