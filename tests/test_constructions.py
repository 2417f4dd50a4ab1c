"""Construction family tests: parameter derivation, side conditions,
point formulas, determinism, and the MDS floor every family promises."""

import itertools
import warnings

import pytest

from mdskit.codes import format_code
from mdskit.constructions import (
    BuildResult,
    ConstructionParams,
    build_general,
    build_k3_n3,
    build_k3_n4,
    build_k4,
    build_k5_weak,
    construct,
    greedy_sidon,
    is_sidon,
    six_sum_free,
)
from mdskit.errors import (
    BudgetExceededError,
    SizeConstraintError,
    WrongKindError,
)
from mdskit.fields import field_make
from mdskit.mdscheck import is_mds, is_mds3_rs_fast, is_mds_ell


# -- square-twist families -------------------------------------------------------------


def test_k3_n4_parameter_derivation():
    assert build_k3_n4(7).provenance["q"] == 7
    assert build_k3_n4(9).provenance["q"] == 9  # odd prime power, not 8
    assert build_k3_n4(2).provenance["q"] == 3
    assert build_k3_n4(10).provenance["q"] == 11


def test_k3_n4_point_formula():
    r = build_k3_n4(7)
    ext = r.code.field
    gamma = ext.gen()
    a = ext.from_int(2)
    assert r.code.generators[2] == a + gamma * a * a
    assert r.code.generators[0].is_zero()  # alpha = 0 twists to 0


def test_k3_n4_degenerate_sizes():
    r = build_k3_n4(1)
    assert r.code.n == 1 and r.code.k == 1
    assert is_mds(r.code).ok
    r2 = build_k3_n4(2)
    assert r2.code.k == 2


def test_k3_n3_parameters_and_slice():
    r = build_k3_n3(7)
    assert r.provenance["q"] == 49 and r.provenance["e"] == 2
    assert r.provenance["slice_size"] == 7
    base = field_make(7, [2])
    alphas = [base.from_int(a) for a in r.provenance["alpha"]]
    # the slice pins the top coordinate to 1, so any six sum to 6 there
    assert all(a.coeffs[-1] == 1 for a in alphas)
    for six in itertools.combinations(alphas, 6):
        total = six[0]
        for x in six[1:]:
            total = total + x
        assert total.coeffs[-1] == 6
    assert six_sum_free(alphas)


def test_k3_n3_cube_constraint():
    r = build_k3_n3(7)
    ext = r.code.field
    assert ext.gen() ** 3 == ext.element(2)


def test_k3_n3_exponent_skips_multiples_of_three():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_k3_n3(7)  # e=2, no gap warning
    with pytest.warns(UserWarning):
        r = build_k3_n3(10)
    assert r.provenance["e"] == 4 and r.provenance["q"] == 2401
    assert r.provenance["slice_size"] == 343


def test_k4_parameters_and_formula():
    r = build_k4(8)
    assert r.provenance["q"] == 11  # 8, 9 fail the characteristic floor
    assert r.provenance["extension_degree"] == 7
    ext = r.code.field
    gamma = ext.gen()
    a = ext.from_int(3)
    assert r.code.generators[3] == gamma * a - a * a
    r2 = build_k4(5, 3)
    assert r2.provenance["q"] == 5 and r2.provenance["extension_degree"] == 5


def test_k4_validation():
    with pytest.raises(SizeConstraintError):
        build_k4(3, 4)
    with pytest.raises(SizeConstraintError):
        build_k4(5, 1)


# -- Sidon-set family ------------------------------------------------------------------


def test_greedy_sidon_certified():
    F = field_make(41)
    got = greedy_sidon(F, 6)
    assert got is not None
    assert [x.to_int() for x in got] == [0, 1, 3, 7, 12, 20]
    assert is_sidon(got)
    assert not is_sidon([F.from_int(v) for v in (0, 1, 2)])


def test_greedy_sidon_rejects_characteristic_two():
    F4 = field_make(2, [2])
    assert greedy_sidon(F4, 2) is None


def test_k5_weak_build():
    r = build_k5_weak(8)
    assert r.provenance["q"] <= 2 * 64 + 2
    assert r.provenance["extension_degree"] == 25
    base_q = r.provenance["q"]
    assert r.code.field.order == base_q**25
    alphas = r.provenance["alpha"]
    assert len(alphas) == 8
    assert is_mds(r.code).ok


def test_k5_weak_formula():
    r = build_k5_weak(6, 5, extension_degree=4)
    ext = r.code.field
    x = ext.gen()
    a = ext.from_int(r.provenance["alpha"][3])
    assert r.code.generators[3] == a * x - a * a


def test_k5_weak_override_verdict_recorded():
    # exploratory degree override: the verdict is recorded, not promised
    r = build_k5_weak(6, 5, extension_degree=10)
    rep = is_mds3_rs_fast(r.code)
    assert rep.verdict in ("pass", "fail")


def test_k5_weak_char2_parity_points():
    r = build_k5_weak(8, 5, extension_degree=2, char2_bch=True)
    assert r.provenance["char2_bch"] is True and r.provenance["m"] == 4
    pts = r.code.generators
    assert len(pts) == 8
    assert is_mds(r.code).ok


def test_k5_weak_validation():
    with pytest.raises(SizeConstraintError):
        build_k5_weak(8, 6)
    with pytest.raises(SizeConstraintError):
        build_k5_weak(3, 5)


# -- tower family ----------------------------------------------------------------------


def test_general_small_tower():
    r = build_general(4, 2, 2, per_level_degree=5)
    assert r.provenance["q0"] == 11 and r.provenance["levels"] == 4
    assert is_mds(r.code).ok
    assert is_mds_ell(r.code, 2).ok


def test_general_acceptance_shape():
    r = build_general(6, 2, 2, per_level_degree=8)
    assert r.provenance["q0"] == 9
    assert r.provenance["per_level_degree"] == 8
    # anchor element has multiplicative order 8, certifying the chain
    base = field_make(3, [2])
    c = base.from_int(r.provenance["anchor"])
    assert c**4 != base.one and c**8 == base.one


def test_general_point_formula():
    # every point against sum_j b^(j-1) * g_j in dense tower arithmetic, on
    # the two general-ell members of the benchmark and a small tower
    for n, degree in ((4, 5), (4, None), (6, 8)):
        r = build_general(n, 2, 2, per_level_degree=degree)
        top = r.code.field
        levels = r.provenance["levels"]
        base_levels = len(top.dims) - levels
        gens = [top.gen(base_levels + j) for j in range(levels)]
        for i, bi in enumerate(r.provenance["b_points"]):
            b = top.from_int(bi)
            expect = top.zero
            power = top.one
            for g in gens:
                expect = expect + power * g
                power = power * b
            assert r.code.generators[i] == expect


def test_general_k1_trivial():
    r = build_general(3, 1, 2)
    assert r.code.k == 1
    assert is_mds_ell(r.code, 2).ok


def test_general_validation():
    with pytest.raises(SizeConstraintError):
        build_general(2, 3, 2)
    with pytest.raises(SizeConstraintError):
        build_general(4, 2, 1, per_level_degree=0)
    with pytest.raises(SizeConstraintError):
        build_general(4, 2, 2, per_level_degree=4)  # floor is 5
    with pytest.raises(BudgetExceededError):
        build_general(6, 3, 3)  # 27^9 coefficients


# -- shared behavior -------------------------------------------------------------------


def test_determinism():
    a = format_code(build_k5_weak(6).code)
    b = format_code(build_k5_weak(6).code)
    assert a == b
    c = format_code(build_general(4, 2, 2, per_level_degree=5).code)
    d = format_code(build_general(4, 2, 2, per_level_degree=5).code)
    assert c == d
    assert format_code(build_k3_n4(6).code) == format_code(build_k3_n4(6).code)


@pytest.mark.parametrize(
    "result",
    [
        lambda: build_k3_n4(6),
        lambda: build_k3_n3(4),
        lambda: build_k4(6),
        lambda: build_k5_weak(5),
        lambda: build_general(4, 2, 2, per_level_degree=5),
    ],
    ids=["k3-n4", "k3-n3", "k4", "k5", "general"],
)
def test_every_construction_is_mds(result):
    r = result()
    assert is_mds(r.code).ok


def test_dispatch():
    r = construct(ConstructionParams("k3-n4", 5))
    assert isinstance(r, BuildResult)
    assert r.provenance["construction"] == "k3-n4"
    r2 = construct(ConstructionParams("general-ell", 4, k=2, ell=2, per_level_degree=5))
    assert r2.provenance["levels"] == 4
    with pytest.raises(WrongKindError):
        ConstructionParams("k9", 5)
    with pytest.raises(SizeConstraintError):
        ConstructionParams("k3-n4", 0)


@pytest.mark.parametrize(
    "params, build",
    [
        (dict(name="k4-general", n=8, k=-1), lambda: build_k4(8, -1)),
        (dict(name="k4-general", n=8, k=0), lambda: build_k4(8, 0)),
        (dict(name="k4-general", n=3), lambda: build_k4(3)),
        (dict(name="k5-weak", n=5, k=6), lambda: build_k5_weak(5, 6)),
        (dict(name="k5-weak", n=5, extension_degree=0),
         lambda: build_k5_weak(5, extension_degree=0)),
        (dict(name="general-ell", n=4, k=2, ell=0), lambda: build_general(4, 2, 0)),
        (dict(name="general-ell", n=2, k=3), lambda: build_general(2, 3, 3)),
        (dict(name="general-ell", n=4, k=2, ell=2, per_level_degree=4),
         lambda: build_general(4, 2, 2, per_level_degree=4)),
    ],
    ids=["k4_k", "k4_k_zero", "k4_n", "k5_k", "k5_degree", "general_ell",
         "general_n", "general_degree"],
)
def test_out_of_range_parameters_refused_by_params_and_builder(params, build):
    # the params refuse the value before any work; the builder still does
    with pytest.raises(SizeConstraintError) as by_params:
        ConstructionParams(**params)
    with pytest.raises(SizeConstraintError) as by_builder:
        build()
    assert str(by_params.value) == str(by_builder.value)



def test_six_sum_free_detects_zero_sums():
    F = field_make(7)
    # 1+2+3+4+5+6 = 21 = 0 mod 7
    zero_sum = [F.from_int(v) for v in (1, 2, 3, 4, 5, 6)]
    assert not six_sum_free(zero_sum)
    assert six_sum_free([F.from_int(v) for v in (0, 1, 2)])


def test_six_sum_free_is_exhaustive_above_twenty_members():
    # over GF(127) six distinct members of 1..21 sum to 21..111, never 0;
    # 112 = -15 = -(1+2+3+4+5) closes one zero six-sum with 1..5
    F = field_make(127)
    small = [F.from_int(v) for v in range(1, 22)]
    assert six_sum_free(small)
    assert not six_sum_free(small[:20] + [F.from_int(112)])