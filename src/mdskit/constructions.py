"""Explicit code constructions over exactly built extension fields.

Five families, each deterministic: identical parameters rebuild the
identical code.  Derived parameters (field size, twist element, point
sets) are reported through a provenance dict so downstream tooling can
re-certify the side conditions.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .codes import CodeSpec, rs_code
from .errors import (
    BudgetExceededError,
    ReduciblePolynomialError,
    SidonSetNotFoundError,
    SizeConstraintError,
    WrongKindError,
)
from .fields import (
    FieldElement,
    FieldSpec,
    extend_binomial_chain,
    field_make,
    field_of_order,
    prime_power,
)

__all__ = [
    "ConstructionParams",
    "BuildResult",
    "CONSTRUCTION_NAMES",
    "construct",
    "build_k3_n4",
    "build_k3_n3",
    "build_k4",
    "build_k5_weak",
    "build_general",
    "six_sum_free",
    "is_sidon",
    "greedy_sidon",
]

CONSTRUCTION_NAMES = ("k3-n4", "k3-n3", "k4-general", "k5-weak", "general-ell")


@dataclass(frozen=True)
class ConstructionParams:
    name: str
    n: int
    k: Optional[int] = None  # None means the family default
    ell: int = 3
    extension_degree: Optional[int] = None
    per_level_degree: Optional[int] = None

    def __post_init__(self):
        if self.name not in CONSTRUCTION_NAMES:
            raise WrongKindError(f"unknown construction {self.name!r}")
        if self.n < 1:
            raise SizeConstraintError("need n >= 1")
        k = self.family_k
        if self.name == "k4-general":
            _check_k4(self.n, k)
        elif self.name == "k5-weak":
            _k5_degree(self.n, k, self.extension_degree)
        elif self.name == "general-ell":
            _general_degree(self.n, k, self.ell, self.per_level_degree)

    @property
    def family_k(self) -> Optional[int]:
        """k, or the family's default when k is None; the k3 families read
        no k, so theirs defaults to None."""
        return _DEFAULT_K.get(self.name) if self.k is None else self.k


_DEFAULT_K = {"k4-general": 4, "k5-weak": 5, "general-ell": 2}


@dataclass
class BuildResult:
    code: CodeSpec
    provenance: Dict[str, object] = dc_field(default_factory=dict)


# -- parameter ranges ------------------------------------------------------------------
#
# Each builder checks its own parameters.  ConstructionParams runs the same
# checks when it is built, so a bad value is refused before any work starts.


def _check_k4(n: int, k: int) -> None:
    if k < 2:
        raise SizeConstraintError("need k >= 2")
    if n < k:
        raise SizeConstraintError("need n >= k")


def _k5_degree(n: int, k: int, extension_degree: Optional[int]) -> int:
    """The extension degree of a k5-weak build, k^2 unless overridden."""
    if not 2 <= k <= 5:
        raise SizeConstraintError("need 2 <= k <= 5")
    if n < k:
        raise SizeConstraintError("need n >= k")
    deg = extension_degree if extension_degree is not None else k * k
    # the points a*x - a^2 need x outside the base field
    if deg < 2:
        raise SizeConstraintError("need an extension of degree at least 2")
    return deg


def _general_degree(n: int, k: int, ell: int, per_level_degree: Optional[int]) -> int:
    """The per-level degree of a general-ell build, ell*k^2 unless
    overridden, at least the safe floor ell*k*(k-1) + 1."""
    if not (n >= k >= 1):
        raise SizeConstraintError("need n >= k >= 1")
    if ell < 1:
        raise SizeConstraintError("need ell >= 1")
    floor = ell * k * (k - 1) + 1
    D = per_level_degree if per_level_degree is not None else ell * k * k
    if D < floor:
        raise SizeConstraintError(f"per-level degree {D} below the safe floor {floor}")
    return D


# -- small numeric helpers -------------------------------------------------------------


def _prime_powers_from(start: int) -> Iterator[Tuple[int, int, int]]:
    m = max(start, 2)
    while True:
        pp = prime_power(m)
        if pp:
            yield (m, pp[0], pp[1])
        m += 1


def _first_elements(field: FieldSpec, n: int) -> List[FieldElement]:
    if n > field.order:
        raise SizeConstraintError(
            f"need {n} distinct base elements, field has {field.order}"
        )
    return [field.from_int(i) for i in range(n)]


# -- side-condition certifiers ---------------------------------------------------------


def six_sum_free(elements: Sequence[FieldElement]) -> bool:
    """No six distinct members sum to zero, over every 6-subset."""
    for six in itertools.combinations(elements, 6):
        total = six[0]
        for x in six[1:]:
            total = total + x
        if total.is_zero():
            return False
    return True


def is_sidon(elements: Sequence[FieldElement]) -> bool:
    """All pairwise sums distinct as unordered pairs, repeats included."""
    seen = {}
    for i, a in enumerate(elements):
        for j in range(i, len(elements)):
            key = (a + elements[j]).coeffs
            if key in seen and seen[key] != (i, j):
                return False
            seen[key] = (i, j)
    return True


# distinct pairs only, unlike is_sidon: in characteristic 2 every a + a is 0
def _pair_sums_distinct(elements: Sequence[FieldElement]) -> bool:
    seen = set()
    for a, b in itertools.combinations(elements, 2):
        key = (a + b).coeffs
        if key in seen:
            return False
        seen.add(key)
    return True


def greedy_sidon(field: FieldSpec, size: int) -> Optional[List[FieldElement]]:
    """First-fit scan of the canonical enumeration; sums tracked with
    repeats, so characteristic 2 never gets past one element."""
    chosen: List[FieldElement] = []
    sums = set()
    for x in field.elements():
        fresh = [(x + a).coeffs for a in chosen] + [(x + x).coeffs]
        if len(set(fresh)) == len(fresh) and not any(f in sums for f in fresh):
            chosen.append(x)
            sums.update(fresh)
            if len(chosen) == size:
                return chosen
    return None


# -- the twisted three-row family ------------------------------------------------------


def build_k3_n4(n: int) -> BuildResult:
    """[n,3] code with a square twist over a degree-4 extension."""
    if n < 1:
        raise SizeConstraintError("need n >= 1")
    q, p, e = next(t for t in _prime_powers_from(max(n, 3)) if t[1] != 2)
    base = field_of_order(q)
    ext = base.extend(4)
    gamma = ext.gen()
    alphas = _first_elements(base, n)
    betas = []
    for a in alphas:
        av = ext.element(a)
        betas.append(av + gamma * av * av)
    k = min(3, n)
    code = rs_code(ext, betas, k)
    return BuildResult(
        code,
        {
            "construction": "k3-n4",
            "n": n,
            "k": k,
            "q": q,
            "extension_degree": 4,
            "alpha": [a.to_int() for a in alphas],
        },
    )


def build_k3_n3(n: int) -> BuildResult:
    """[n,3] code with a square twist whose cube-root extension keeps the
    field at cubic size; points come from a sum-free coordinate slice."""
    if n < 1:
        raise SizeConstraintError("need n >= 1")
    e = 1
    while 7**e < 7 * n:
        e += 1
    bumped = e % 3 == 0
    while e % 3 == 0:
        e += 1
    if bumped:
        warnings.warn(
            "extension exponent skipped a multiple of 3 so that the cube "
            "minimal polynomial x^3 - 2 stays irreducible",
            stacklevel=2,
        )
    q = 7**e
    base = field_of_order(q)
    # top coefficient 1: any six such elements sum to top coefficient 6
    S = [x for x in base.elements() if x.coeffs[-1] == 1]
    assert len(S) == q // 7 and len(S) >= n
    alphas = S[:n]
    ext = base.extend(3, [-2, 0, 0, 1])
    gamma = ext.gen()
    betas = []
    for a in alphas:
        av = ext.element(a)
        betas.append(av + gamma * av * av)
    k = min(3, n)
    code = rs_code(ext, betas, k)
    return BuildResult(
        code,
        {
            "construction": "k3-n3",
            "n": n,
            "k": k,
            "q": q,
            "e": e,
            "cube_of_gamma": 2,
            "slice_size": len(S),
            "alpha": [a.to_int() for a in alphas],
        },
    )


# -- the linear-twist families ---------------------------------------------------------


def build_k4(n: int, k: int = 4) -> BuildResult:
    """[n,k] code on points gamma*a - a^2 over a degree-(2k-1) extension;
    the base characteristic must be at least k."""
    _check_k4(n, k)
    q, p, e = next(t for t in _prime_powers_from(n) if t[1] >= k)
    assert p >= k
    base = field_of_order(q)
    ext = base.extend(2 * k - 1)
    gamma = ext.gen()
    alphas = _first_elements(base, n)
    betas = []
    for a in alphas:
        av = ext.element(a)
        betas.append(gamma * av - av * av)
    code = rs_code(ext, betas, k)
    return BuildResult(
        code,
        {
            "construction": "k4-general",
            "n": n,
            "k": k,
            "q": q,
            "extension_degree": 2 * k - 1,
            "alpha": [a.to_int() for a in alphas],
        },
    )


def build_k5_weak(
    n: int,
    k: int = 5,
    extension_degree: Optional[int] = None,
    char2_bch: bool = False,
) -> BuildResult:
    """[n,k] code on points a*x - a^2 where the a's form a Sidon set and
    x generates a degree-k^2 extension (degree overridable)."""
    deg = _k5_degree(n, k, extension_degree)
    prov: Dict[str, object] = {"construction": "k5-weak", "n": n, "k": k}
    if char2_bch:
        # columns (a, a^3) of a distance-5 parity check, packed into the
        # quadratic extension; distinct pairs have distinct sums
        m = 1
        while 2**m - 1 < n:
            m += 1
        sub = field_make(2, [m])
        base = sub.extend(2)
        w = base.gen()
        alphas = []
        for x in sub.elements():
            if x.is_zero():
                continue
            xv = base.element(x)
            alphas.append(xv + w * xv**3)
            if len(alphas) == n:
                break
        if len(alphas) < n or not _pair_sums_distinct(alphas):
            raise SidonSetNotFoundError(
                f"parity-check point set of size {n} unavailable at m={m}"
            )
        prov.update({"q": 4**m, "char2_bch": True, "m": m})
    else:
        found = None
        for q, p, e in _prime_powers_from(2):
            if q > 2 * n * n + 2:
                break
            base_try = field_of_order(q)
            got = greedy_sidon(base_try, n)
            if got is not None:
                found = (base_try, got, q)
                break
        if found is None:
            raise SidonSetNotFoundError(
                f"greedy scan found no Sidon set of size {n} up to 2n^2"
            )
        base, alphas, q = found
        assert is_sidon(alphas)
        prov.update({"q": q, "alpha": [a.to_int() for a in alphas]})
    ext = base.extend(deg)
    x = ext.gen()
    betas = []
    for a in alphas:
        av = ext.element(a)
        betas.append(av * x - av * av)
    code = rs_code(ext, betas, k)
    prov["extension_degree"] = deg
    return BuildResult(code, prov)


# -- the tower construction for every order --------------------------------------------


def build_general(
    n: int,
    k: int,
    ell: int,
    per_level_degree: Optional[int] = None,
    coeff_budget: int = 10**7,
) -> BuildResult:
    """[n,k] code whose points are tower-generator combinations
    sum_j b_i^(j-1) * g_j over an ell*k-level binomial chain."""
    D = _general_degree(n, k, ell, per_level_degree)
    levels = ell * k
    if D**levels > coeff_budget:
        raise BudgetExceededError(
            f"tower dimension {D}^{levels} exceeds the coefficient budget"
        )
    top = None
    for q0, p, e in _prime_powers_from(n + k - 1):
        base = field_of_order(q0)
        for ci in range(1, q0):
            c = base.from_int(ci)
            try:
                top = extend_binomial_chain(base, c, D, levels)
            except ReduciblePolynomialError:
                continue
            break
        if top is not None:
            break
    assert top is not None  # a admissible anchor always exists nearby
    # b^(j-1) * g_j is the base element b^(j-1) moved to the offset of the
    # generator g_j, so each point is its blocks written into one dense list
    base_levels = len(base.dims)
    offsets = [top.strides[base_levels + j] for j in range(levels)]
    b_points = _first_elements(base, n)
    points = []
    for b in b_points:
        coeffs = [0] * top.D
        power = base.one
        for off in offsets:
            coeffs[off : off + base.D] = power.coeffs
            power = power * b
        points.append(FieldElement(top, tuple(coeffs)))
    code = rs_code(top, points, k)
    return BuildResult(
        code,
        {
            "construction": "general-ell",
            "n": n,
            "k": k,
            "ell": ell,
            "q0": q0,
            "anchor": ci,
            "per_level_degree": D,
            "levels": levels,
            "b_points": [b.to_int() for b in b_points],
        },
    )


def construct(params: ConstructionParams) -> BuildResult:
    """Dispatch on the family name; k=None selects the family default."""
    name, n, k = params.name, params.n, params.family_k
    if name == "k3-n4":
        return build_k3_n4(n)
    if name == "k3-n3":
        return build_k3_n3(n)
    if name == "k4-general":
        return build_k4(n, k)
    if name == "k5-weak":
        return build_k5_weak(n, k, params.extension_degree)
    return build_general(n, k, params.ell, params.per_level_degree)
