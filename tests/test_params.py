"""Parameter sequences: derived quantities, admissibility clauses, IO."""

import hashlib
import json
import math

import pytest

from bakerlab.params import (
    DEGREE_EXPONENT_CAP,
    ParamSeq,
    derive,
    load_params,
    make_toy,
    params_digest,
    params_to_json,
    validate_1b,
)


def test_derived_quantities_doubling():
    d = derive(make_toy("doubling"))
    assert d.m == (0, 2, 6, 14)
    # s_k = r_k (1 + 1/n_k); for this profile n_k = r_k so s_k = r_k + 1
    assert d.s == (3.0, 5.0, 9.0, 17.0)
    assert d.logT[0] == 0.0  # empty product below the first ring
    # T_2 = (s_2/r_1)^{n_1} = (5/2)^2 = 6.25
    assert d.logT[1] == pytest.approx(math.log(6.25), abs=1e-12)
    # T_3 = (9/2)^2 (9/4)^4, T_4 = (17/2)^2 (17/4)^4 (17/8)^8
    assert d.logT[2] == pytest.approx(6.251875658418, abs=1e-9)
    assert d.logT[3] == pytest.approx(16.097982677749, abs=1e-9)


def test_degree_sum_m_is_cumulative():
    p = ParamSeq(r=(2.0, 4.0, 8.0), n=(3, 5, 7))
    d = derive(p)
    assert d.m == (0, 3, 8)
    assert d.s[1] == pytest.approx(4.0 * 1.2, abs=1e-15)


def test_validate_accepts_true_profile_and_rejects_toys():
    assert validate_1b(make_toy("paper2")).overall is True
    assert validate_1b(make_toy("doubling")).overall is False
    assert validate_1b(make_toy("steep")).overall is False


def test_validate_reports_each_clause():
    rep = validate_1b(make_toy("doubling"))
    names = [(c.k, c.name) for c in rep.clauses]
    assert (1, "base-radius") in names
    assert (2, "radius") in names and (2, "degree") in names
    first_fail = next(c for c in rep.clauses if not c.ok)
    assert first_fail.k == 2 and first_fail.name == "degree"
    assert first_fail.lhs == pytest.approx(math.log(4.0), abs=1e-12)
    assert first_fail.rhs == pytest.approx(
        math.log(20.0) + 2.0 * math.log(4.0) + 4.0 * 4.0 ** 2, abs=1e-9)


def test_degree_clause_knife_edge():
    # ln n2 >= ln 20 + 2 ln 4 + 4 r2^{m2} with m2 = n1 = 1:
    # threshold n2 = 320 e^16 = 2843555366.56..; one profile each side
    ok = ParamSeq(r=(2.0, 4.0), n=(1, 2_844_000_000))
    bad = ParamSeq(r=(2.0, 4.0), n=(1, 2_840_000_000))
    assert validate_1b(ok).overall is True
    assert validate_1b(bad).overall is False
    threshold = 320.0 * math.exp(16.0)
    assert bad.n[1] < threshold < ok.n[1]


def test_degree_clause_unrepresentable_exponent():
    # r3^{m3} = 8^3 = 512 < cap is fine, but here m3 = 1 + 2844000000
    # makes r^m astronomically large: the clause must flag, not overflow
    p = ParamSeq(r=(2.0, 4.0, 8.0), n=(1, 2_844_000_000, 3))
    rep = validate_1b(p)
    deg3 = next(c for c in rep.clauses if c.k == 3 and c.name == "degree")
    assert deg3.unrepresentable is True
    assert deg3.ok is False
    assert rep.overall is False
    assert DEGREE_EXPONENT_CAP == 700.0


def test_single_ring_is_trivially_admissible():
    rep = validate_1b(ParamSeq(r=(2.0,), n=(7,)))
    assert rep.overall is True
    assert len(rep.clauses) == 1
    assert rep.clauses[0].name == "base-radius"


def test_base_radius_clause_rejects_small_first_ring():
    rep = validate_1b(ParamSeq(r=(1.5,), n=(4,)))
    assert rep.overall is False


def test_radius_doubling_clause():
    rep = validate_1b(ParamSeq(r=(2.0, 3.9), n=(2, 4)))
    rad = next(c for c in rep.clauses if c.k == 2 and c.name == "radius")
    assert rad.ok is False and rad.lhs == 3.9 and rad.rhs == pytest.approx(4.0)


def test_paramseq_validation_errors():
    with pytest.raises(ValueError):
        ParamSeq(r=(2.0, 4.0), n=(2,))  # length mismatch
    with pytest.raises(ValueError):
        ParamSeq(r=(), n=())
    with pytest.raises(ValueError):
        ParamSeq(r=(2.0, 4.0), n=(2, 1))  # n_k >= k
    with pytest.raises(ValueError):
        ParamSeq(r=(-2.0,), n=(2,))
    with pytest.raises(ValueError):
        ParamSeq(r=(4.0, 2.0), n=(1, 2))  # radii must increase
    with pytest.raises(ValueError):
        ParamSeq(r=(2.0, 4.0), n=(True, 2))  # bool is not a degree


def test_paramseq_rejects_degrees_beyond_double_exactness():
    assert ParamSeq(r=(2.0, 4.0), n=(1, (1 << 53) - 1)).n[1] == (1 << 53) - 1
    with pytest.raises(ValueError):
        ParamSeq(r=(2.0, 4.0), n=(1, 1 << 53))


def test_paramseq_rejects_radii_whose_probe_radius_overflows():
    assert ParamSeq(r=(1e307, 1.7e308), n=(1, 1 << 52)).r[1] == 1.7e308
    for r, n in (((1e308, 1.7e308), (1, 2)), ((1.7e308,), (1,))):
        with pytest.raises(ValueError, match="probe radii"):
            ParamSeq(r=r, n=n)


def test_canonical_json_and_digest_are_stable():
    p = make_toy("doubling")
    canon = params_to_json(p)
    assert canon == '{"n":[2,4,8,16],"r":[2.0,4.0,8.0,16.0]}'
    assert params_digest(p) == hashlib.sha256(canon.encode()).digest()
    assert len(params_digest(p)) == 32


def test_load_params_roundtrip(tmp_path):
    p = make_toy("steep")
    path = tmp_path / "seq.json"
    path.write_text(params_to_json(p))
    assert load_params(path) == p


def test_load_params_accepts_unordered_keys(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps({"r": [2.0, 4.0], "n": [3, 9]}))
    q = load_params(path)
    assert q.r == (2.0, 4.0) and q.n == (3, 9)


@pytest.mark.parametrize("data", [
    {"r": "48", "n": [1, 2]},  # read one character at a time: r = (4, 8)
    {"r": [4.0, 8.0], "n": "12"},
    {"r": {"4": 1}, "n": [1]},
    {"r": 4.0, "n": [1]},
    [[4.0], [1]],
    {"r": [None, 4.0], "n": [1, 2]},
], ids=["r-string", "n-string", "r-object", "r-number", "not-an-object",
        "r-null"])
def test_load_params_requires_arrays(tmp_path, data):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed parameter file"):
        load_params(path)


@pytest.mark.parametrize("data, element", [
    ({"r": ["4", "8e0"], "n": [1, 2]}, "r_1='4'"),
    ({"r": [2.0, "8e0"], "n": [1, 2]}, "r_2='8e0'"),
    ({"r": [True, 8], "n": [1, 2]}, "r_1=True"),
], ids=["string", "second-string", "bool"])
def test_load_params_requires_number_radii(tmp_path, data, element):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="malformed parameter file") as info:
        load_params(path)
    assert f"radius {element} is not a number" in str(info.value)


def test_load_params_takes_int_and_float_radii(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"r": [2, 8.5e0], "n": [1, 2]}')
    q = load_params(path)
    assert q.r == (2.0, 8.5) and [type(x) for x in q.r] == [float, float]


def test_make_toy_profiles():
    assert make_toy("doubling").n == (2, 4, 8, 16)
    assert make_toy("steep").n == (2, 8, 64, 512)
    p2 = make_toy("paper2")
    assert p2.K == 2 and p2.n == (1, 2_844_000_000)
    with pytest.raises(ValueError):
        make_toy("nope")
