import json
import math
from dataclasses import replace

import numpy as np
import pytest

from cwspheres import killing, randers
from cwspheres.cli import main
from cwspheres.cosets import project_at, sp_algebra
from cwspheres.errors import InvalidInput, InvalidSpec
from cwspheres.killing import (OrbitParams, orbit_generator, orbit_length_report,
                               solve_metric)
from cwspheres.matrixcore import QuaternionMatrix, RngStream, StreamBlock, _ginibre
from cwspheres.randers import (RandersSpec, m1_norm_sq, randers_norm_array,
                               round_spec, spec_from_json, spec_to_json)

CW_SPEC = RandersSpec("u_sphere", n=1, a=16.0 / 9.0, b=4.0 / 3.0, c=-2.0 / 3.0)


def random_spec(rng):
    g = rng.gen
    b = g.uniform(0.3, 3.0)
    c = g.uniform(-1.0, 1.0)
    a = b + c * c + g.uniform(0.0, 1.0)
    return RandersSpec("u_sphere", n=int(g.integers(1, 4)), a=a, b=b, c=c)


def random_tangent(spec, rng):
    """m0 coordinates (1,) and complex m1 part (n,) of a random u_sphere
    tangent vector."""
    g = rng.gen
    q = g.normal()
    return np.array([q]), g.normal(size=spec.n) + 1j * g.normal(size=spec.n)


def norm(spec, m0, u):
    """F of the u_sphere tangent vector with m0 coordinates `m0` and m1
    part `u`."""
    return float(randers_norm_array(spec, m0, m1_norm_sq(spec.family, u)))


def axis_norm(spec, q):
    """F of q times the unit m0 axis vector."""
    return randers_norm_array(spec, np.array([q]), 0.0)


# ------------------------------------------------- validation at construction

def violations(*args, **fields):
    """The violations named when building RandersSpec(*args, **fields)."""
    with pytest.raises(InvalidSpec) as exc:
        RandersSpec(*args, **fields)
    assert str(exc.value) == "invalid Randers spec: " + "; ".join(exc.value.violations)
    return exc.value.violations


def test_validate_round_ok():
    assert round_spec() == RandersSpec("u_sphere", n=1, a=1.0, b=1.0, c=0.0)
    assert round_spec(3).n == 3


def test_validate_boundary_c_violation():
    assert violations("u_sphere", n=1, a=1.0, b=1.0, c=1.0) == ["|c| < sqrt(a)"]


def test_validate_solved_triple_ok():
    assert RandersSpec("u_sphere", n=1, a=16.0 / 9.0, b=4.0 / 3.0,
                       c=-2.0 / 3.0) == CW_SPEC


def test_validate_negative_coefficients():
    assert violations("u_sphere", n=1, a=-1.0, b=1.0, c=0.0) == ["a > 0"]
    assert violations("u_sphere", n=1, a=1.0, b=0.0, c=0.0) == ["b > 0"]


def test_validate_sp_family():
    RandersSpec("sp_sphere", n=1, a1=1.0, a2=1.5, b=1.0, c=0.3)
    assert violations("sp_sphere", n=1, a1=1.0, a2=1.0, b=1.0, c=0.3) == ["a2 != b"]
    assert violations("sp_sphere", n=1, a1=0.25, a2=1.5, b=1.0,
                      c=0.6) == ["|c| < sqrt(a1)"]


def test_validate_unknown_family():
    assert violations("torus") == ["unknown family 'torus'"]


def test_construction_names_every_violation():
    assert violations("u_sphere", n=0, a=-1.0, c=math.nan) == [
        "n >= 1", "a > 0", "b missing or non-finite", "c missing or non-finite"]
    assert violations("sp_sphere", n=1.5, a1=math.inf, a2=2.0, b=2.0, c=0.1) == [
        "n >= 1", "a1 missing or non-finite", "a2 != b"]
    assert issubclass(InvalidSpec, InvalidInput)


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1", None, 1 + 0j],
                         ids=["bool", "numpy-bool", "str", "None", "complex"])
def test_construction_names_non_integer_n(bad):
    assert violations("u_sphere", n=bad, a=1.0, b=1.0) == ["n >= 1"]
    assert violations("sp_sphere", n=bad, a1=1.0, a2=1.3, b=1.0) == ["n >= 1"]


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1", 1 + 0j, np.complex128(1.0)],
                         ids=["bool", "numpy-bool", "str", "complex", "numpy-complex"])
def test_construction_names_non_real_coefficients(bad):
    assert violations("u_sphere", a=bad, b=1.0) == ["a not a real number"]
    assert violations("u_sphere", a=1.0, b=1.0, c=bad) == ["c not a real number"]
    assert violations("sp_sphere", a1=1.0, a2=bad, b=bad, c=0.1) == [
        "a2 not a real number", "b not a real number"]
    # None reads as missing
    assert violations("u_sphere", a=None, b=1.0) == ["a missing or non-finite"]
    assert violations("u_sphere", a=1.0, b=1.0, c=None) == ["c missing or non-finite"]


def test_construction_takes_numpy_and_integer_coefficients():
    spec = RandersSpec("u_sphere", n=2, a=np.float32(2.0), b=3, c=np.int64(0))
    assert (spec.a, spec.b, spec.c) == (2.0, 3, 0)
    assert violations("u_sphere", a=10 ** 400, b=1.0) == ["a missing or non-finite"]


def test_replace_revalidates():
    assert replace(CW_SPEC, c=0.5).c == 0.5
    with pytest.raises(InvalidSpec, match=r"\|c\| < sqrt\(a\)"):
        replace(CW_SPEC, c=-4.0 / 3.0)
    with pytest.raises(InvalidSpec, match="n >= 1"):
        replace(CW_SPEC, n=0)


# -------------------------------------------------------- randers_norm_array

def test_norm_round_unit_axis():
    assert axis_norm(round_spec(), 1.0) == 1.0


def test_norm_solved_spec_positive_root():
    # sqrt(a)*1.5 + c*1.5 = (4/3 - 2/3) * 1.5 = 1
    assert abs(axis_norm(CW_SPEC, 1.5) - 1.0) <= 1e-14


def test_norm_solved_spec_negative_root():
    assert abs(axis_norm(CW_SPEC, -0.5) - 1.0) <= 1e-14


def test_norm_zero_vector_is_zero():
    assert axis_norm(CW_SPEC, 0.0) == 0.0


def test_norm_positive_off_zero():
    rng = RngStream(1)
    for k in range(50):
        spec = random_spec(rng.split(k))
        assert norm(spec, *random_tangent(spec, rng.split(1000 + k))) > 0.0


def test_norm_rejects_invalid_spec():
    # an invalid spec never exists, so no norm of one can be taken
    with pytest.raises(InvalidSpec):
        axis_norm(RandersSpec("u_sphere", n=1, a=1.0, b=1.0, c=2.0), 1.0)


def test_norm_rejects_family_mismatch():
    # evaluating the round u_sphere metric on an sp algebra element is
    # refused before any norm is taken
    sp_elem = sp_algebra(QuaternionMatrix(1j * np.eye(2), np.zeros((2, 2))), scalar=0.5)
    with pytest.raises(InvalidInput, match="family"):
        orbit_length_report(round_spec(), sp_elem, RngStream(5), trials=100)


def test_norm_rejects_m0_of_another_family():
    # one m0 coordinate for u_sphere, three (l1, l2, l3) for sp_sphere
    sp = RandersSpec("sp_sphere", n=1, a1=1.0, a2=1.3, b=1.0, c=0.2)
    for spec, m0 in ((round_spec(), np.array([1.0, 5.0, 5.0])),
                     (round_spec(), np.zeros((4, 3))),
                     (round_spec(), np.float64(1.0)),
                     (sp, np.array([[1.0]]))):
        with pytest.raises(InvalidInput, match="m0"):
            randers_norm_array(spec, m0, 0.0)


def test_sp_norm_formula():
    spec = RandersSpec("sp_sphere", n=1, a1=2.0, a2=0.5, b=1.5, c=0.4)
    usq = m1_norm_sq("sp_sphere", (np.array([1.0 + 1j]), np.array([0.5j])))
    expected = math.sqrt(2.0 + 0.5 * 5.0 + 1.5 * ((1.0 + 1.0) + 0.25)) + 0.4
    got = randers_norm_array(spec, np.array([1.0, 2.0, -1.0]), usq)
    assert abs(got - expected) <= 1e-14


# ------------------------------------------------------------ norm properties

def test_positive_homogeneity():
    rng = RngStream(2)
    for k in range(200):
        spec = random_spec(rng.split(k))
        m0, u = random_tangent(spec, rng.split(5000 + k))
        lam = rng.split(9000 + k).gen.uniform(0.01, 20.0)
        lhs = norm(spec, lam * m0, lam * u)
        rhs = lam * norm(spec, m0, u)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + rhs)


def test_triangle_inequality():
    rng = RngStream(3)
    for k in range(200):
        spec = random_spec(rng.split(k))
        m0_1, u1 = random_tangent(spec, rng.split(6000 + k))
        m0_2, u2 = random_tangent(spec, rng.split(7000 + k))
        lhs = norm(spec, m0_1 + m0_2, u1 + u2)
        assert lhs <= norm(spec, m0_1, u1) + norm(spec, m0_2, u2) + 1e-10


def test_non_reversibility_iff_c_nonzero():
    assert abs(axis_norm(CW_SPEC, 1.0) - axis_norm(CW_SPEC, -1.0)) > 0.1
    rng = RngStream(4)
    sym = round_spec()
    for k in range(50):
        m0, u = random_tangent(sym, rng.split(k))
        assert abs(norm(sym, m0, u) - norm(sym, -m0, -u)) <= 1e-12


def test_round_spec_reduces_to_reference_norm():
    rng = RngStream(5)
    sym = round_spec(2)
    for k in range(50):
        m0, u = random_tangent(sym, rng.split(k))
        reference = np.linalg.norm(np.concatenate([m0, u.real, u.imag]))
        assert abs(norm(sym, m0, u) - reference) <= 1e-12


# -------------------------------------- batched norm vs per-vector reference

def reference_norm(spec, m0, usq):
    """Reference: F of one tangent vector, given by its m0 coordinates and
    squared m1 norm, written out in plain floats."""
    usq = float(usq)
    if spec.family == "sp_sphere":
        l1, l2, l3 = (float(v) for v in m0)
        return (math.sqrt(spec.a1 * l1 ** 2 + spec.a2 * (l2 ** 2 + l3 ** 2)
                          + spec.b * usq) + spec.c * l1)
    q = float(m0[0])
    return math.sqrt(spec.a * q ** 2 + spec.b * usq) + spec.c * q


def random_tangents(spec, count, gen):
    """m0 rows (count, k) and squared m1 norms (count,) of random tangent
    vectors of the spec's family, cycling through zero, pure-m0, pure-m1
    and generic ones."""
    m0, usq = [], []
    for k in range(count):
        keep_q, keep_u = k % 4 in (1, 3), k % 4 in (2, 3)
        if spec.family == "sp_sphere":
            u = gen.normal(size=(2, spec.n)) + 1j * gen.normal(size=(2, spec.n))
            m0.append(gen.normal(size=3) * keep_q)
            usq.append(m1_norm_sq(spec.family, (u[0] * keep_u, u[1] * keep_u)))
        else:
            u = gen.normal(size=spec.n) + 1j * gen.normal(size=spec.n)
            m0.append([gen.normal() * keep_q])
            usq.append(m1_norm_sq(spec.family, u * keep_u))
    return np.array(m0, dtype=float), np.array(usq)


KERNEL_SPECS = [spec for c in (-0.6, 0.0, 0.6) for spec in (
    RandersSpec("u_sphere", n=1, a=1.2, b=0.9, c=c),
    RandersSpec("u_sphere", n=3, a=1.2, b=0.9, c=c),
    RandersSpec("sp_sphere", n=1, a1=1.2, a2=1.5, b=0.9, c=c),
    RandersSpec("sp_sphere", n=2, a1=1.2, a2=1.5, b=0.9, c=c))]


@pytest.mark.parametrize("spec", KERNEL_SPECS,
                         ids=lambda s: f"{s.family}-n{s.n}-c{s.c:+.1f}")
def test_batched_norm_matches_per_vector_reference(spec):
    m0, usq = random_tangents(spec, 400, RngStream(11).gen)
    batched = randers_norm_array(spec, m0, usq)
    reference = np.array([reference_norm(spec, row, sq) for row, sq in zip(m0, usq)])
    np.testing.assert_array_max_ulp(batched, reference, maxulp=1)
    zero = np.arange(len(usq)) % 4 == 0
    assert np.all(batched[zero] == 0.0) and np.all(batched[~zero] != 0.0)
    # extra leading axes broadcast, and one vector at a time is the same kernel
    grid = randers_norm_array(spec, m0.reshape(4, 100, -1), usq.reshape(4, 100))
    np.testing.assert_array_equal(grid.ravel(), batched)
    single = [randers_norm_array(spec, row, sq) for row, sq in zip(m0, usq)]
    assert single == batched.tolist()


def orbit_cases():
    dim = 3
    corner = np.zeros((dim, dim), dtype=complex)
    corner[0, 0] = 1j
    wide = OrbitParams(3, 5, 0.5, 1.0, 1.0)
    return {
        "u_sphere": (solve_metric(OrbitParams(1, 1, 0.5, 1.0, 1.0)),
                     orbit_generator(OrbitParams(1, 1, 0.5, 1.0, 1.0))),
        "u_sphere-l3m5": (solve_metric(wide), orbit_generator(wide)),
        "sp_sphere": (RandersSpec("sp_sphere", n=2, a1=1.2, a2=1.5, b=1.0, c=0.3),
                      sp_algebra(QuaternionMatrix(corner, 0.5 * corner), scalar=0.4)),
    }


def per_draw_orbit(spec, e, trials, rng):
    """Reference: per orbit point, one unit vector drawn from `rng.split(k)`
    and one projection of a stack of one, as (m0, usq) rows."""
    count = 1 if spec.family == "u_sphere" else 2
    rows = []
    for k in range(trials):
        w = _ginibre(StreamBlock(rng, [k]), 1, spec.n + 1, count)[0, :, 0]
        w = w / np.sqrt(np.sum(np.abs(w) ** 2))
        rows.append(project_at(spec.family, e.x, e.scalar, w if count == 1 else (w[:1], w[1:])))
    return rows


@pytest.mark.parametrize("case", sorted(orbit_cases()))
def test_orbit_report_matches_reference_on_same_draws(case):
    spec, e = orbit_cases()[case]
    values = orbit_length_report(spec, e, RngStream(21), 300)
    draws = per_draw_orbit(spec, e, 300, RngStream(21))
    reference = np.array([reference_norm(spec, m0[0], usq[0]) for m0, usq in draws])
    for got, want in ((values.min(), reference.min()), (values.max(), reference.max()),
                      (values.mean(), reference.mean())):
        assert abs(got - want) <= np.spacing(abs(want))


def validation_spy(monkeypatch):
    """Count the calls of the spec validity check from now on."""
    calls = []
    check = randers._validate_spec

    def spy(spec):
        calls.append(spec)
        return check(spec)
    monkeypatch.setattr(randers, "_validate_spec", spy)
    return calls


def test_orbit_report_validates_and_evaluates_once(monkeypatch):
    validations = validation_spy(monkeypatch)
    evaluations = []
    norm = killing.randers_norm_array
    monkeypatch.setattr(killing, "randers_norm_array",
                        lambda *args: evaluations.append(args) or norm(*args))
    params = OrbitParams(1, 1, 0.5, 1.0, 1.0)
    spec = solve_metric(params)
    orbit_length_report(spec, orbit_generator(params), RngStream(22), 500)
    # the spec is checked when it is built, and all 500 draws go through
    # one norm evaluation
    assert (validations, len(evaluations)) == ([spec], 1)


def test_displacement_run_validates_its_spec_once(monkeypatch, capsys):
    # the solved metric is checked when built; the graph's edge costs and
    # every one of the 50 distance queries evaluate norms without checking
    # it again
    solved = solve_metric(OrbitParams(1, 1, 0.5, 1.0, 1.0))
    validations = validation_spy(monkeypatch)
    assert main(["verify", "displacement", "--n-points", "600"]) in (0, 1)
    assert "summary" in capsys.readouterr().out
    assert validations == [solved]


# ---------------------------------------------------------------- JSON schema

def test_json_roundtrip_u_family():
    spec2 = spec_from_json(spec_to_json(CW_SPEC))
    assert spec2 == CW_SPEC


def test_json_roundtrip_sp_family():
    spec = RandersSpec("sp_sphere", n=2, a1=1.2, a2=1.5, b=1.0, c=0.3)
    assert spec_from_json(spec_to_json(spec)) == spec


def test_json_malformed_raises():
    with pytest.raises(InvalidInput):
        spec_from_json("{\"family\":")
    with pytest.raises(InvalidInput):
        spec_from_json("{\"family\": \"torus\"}")
    # S^3 = SU(2) is written as u_sphere with n = 1
    with pytest.raises(InvalidInput, match="u_sphere.*n = 1"):
        spec_from_json("{\"family\": \"su2\", \"a\": 1.0, \"b\": 1.0, \"c\": 0.0}")
    with pytest.raises(InvalidInput):
        spec_from_json("{\"family\": \"u_sphere\", \"n\": 1}")  # missing a, b
    # nesting too deep for the parser, and an integer literal past Python's
    # 4300-digit conversion limit, are malformed JSON too
    with pytest.raises(InvalidInput, match="malformed spec JSON"):
        spec_from_json("[" * 200000)
    with pytest.raises(InvalidInput, match="malformed spec JSON"):
        spec_from_json("{\"family\": \"u_sphere\", \"n\": 1" + "0" * 5000 + "}")


@pytest.mark.parametrize("n", ["true", "1.7", "2.0", "\"1\""])
def test_json_rejects_non_integer_n(n):
    for family, coeffs in (("u_sphere", "\"a\": 1.0"),
                           ("sp_sphere", "\"a1\": 1.0, \"a2\": 1.3")):
        with pytest.raises(InvalidInput):
            spec_from_json(f"{{\"family\": \"{family}\", \"n\": {n}, "
                           f"{coeffs}, \"b\": 1.0, \"c\": 0.0}}")


@pytest.mark.parametrize("value", ["true", "\"2\"", "null", "[1]"],
                         ids=["bool", "string", "null", "list"])
@pytest.mark.parametrize("family,name", [("u_sphere", "a"), ("u_sphere", "b"),
                                         ("u_sphere", "c"), ("sp_sphere", "a1"),
                                         ("sp_sphere", "a2"), ("sp_sphere", "b"),
                                         ("sp_sphere", "c")])
def test_json_coefficient_must_be_a_number(family, name, value):
    # a JSON bool, string, null or list reaches RandersSpec unconverted and
    # is refused with the violation a library caller would get
    fault = "missing or non-finite" if value == "null" else "not a real number"
    doc = {"u_sphere": {"a": 1.0, "b": 1.0, "c": 0.5},
           "sp_sphere": {"a1": 1.0, "a2": 1.3, "b": 1.0, "c": 0.5}}[family]
    doc = {"family": family, "n": 1, **doc, name: "VALUE"}
    text = json.dumps(doc).replace("\"VALUE\"", value)
    with pytest.raises(InvalidSpec) as exc:
        spec_from_json(text)
    assert exc.value.violations == [f"{name} {fault}"]


def test_json_integer_coefficients_become_floats():
    spec = spec_from_json('{"family": "u_sphere", "n": 1, "a": 2, "b": 1}')
    assert (type(spec.a), type(spec.b), spec.a, spec.c) == (float, float, 2.0, 0.0)
    with pytest.raises(InvalidSpec, match="a missing or non-finite"):
        spec_from_json('{"family": "u_sphere", "a": 1%s, "b": 1}' % ("0" * 400))
