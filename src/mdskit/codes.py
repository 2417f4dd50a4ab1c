"""Code objects and the combinatorial side of higher-order MDS checks.

Holds Reed-Solomon and explicit linear codes, dualization and puncturing,
the generically-zero-intersection predicate on tuples of column index sets
with its randomized generic oracle, and the code file format.  Index sets
are 0-based everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    DegreeMismatchError,
    RankLossError,
    SizeConstraintError,
    WrongKindError,
)
from .fields import (
    FieldElement,
    FieldSpec,
    _key_values,
    field_make,
    format_element,
    format_field,
    parse_element,
    parse_field,
)
from .linalg import MatrixF, field_ops, intersection_dim, kernel, rank

__all__ = [
    "CodeSpec",
    "SetTuple",
    "rs_code",
    "explicit_code",
    "rs_generator_matrix",
    "generator_matrix",
    "dual_code",
    "puncture",
    "generically_zero",
    "set_partitions",
    "generic_intersection_dim",
    "GENERIC_ORACLE_PRIME",
    "GENERIC_ORACLE_FIELD",
    "format_code",
    "parse_code",
]

# smallest prime above 2^31; the sampling field for the generic-matrix oracle
GENERIC_ORACLE_PRIME = 2147483659
GENERIC_ORACLE_FIELD = field_make(GENERIC_ORACLE_PRIME)


@dataclass(frozen=True)
class CodeSpec:
    """An [n, k] linear code: Reed-Solomon generators or an explicit matrix."""

    field: FieldSpec
    n: int
    k: int
    kind: str  # "rs" | "explicit"
    generators: Optional[Tuple[FieldElement, ...]] = None
    matrix: Optional[MatrixF] = None

    def __post_init__(self):
        if self.kind not in ("rs", "explicit"):
            raise WrongKindError(f"unknown code kind {self.kind!r}")


def rs_code(field: FieldSpec, generators: Sequence, k: int) -> CodeSpec:
    gens = tuple(field.element(g) for g in generators)
    if len(set(g.coeffs for g in gens)) != len(gens):
        raise SizeConstraintError("Reed-Solomon generators must be distinct")
    if not 0 <= k <= len(gens):
        raise SizeConstraintError(f"need 0 <= k <= n, got k={k}, n={len(gens)}")
    return CodeSpec(field, len(gens), k, "rs", generators=gens)


def explicit_code(field: FieldSpec, rows: Sequence[Sequence]) -> CodeSpec:
    m = rows if isinstance(rows, MatrixF) else MatrixF(field, rows)
    if rank(m) != m.nrows:
        raise RankLossError("explicit generator matrix must have full row rank")
    return CodeSpec(field, m.ncols, m.nrows, "explicit", matrix=m)


def rs_generator_matrix(code: CodeSpec) -> MatrixF:
    """The k x n Vandermonde matrix whose columns are powers of the generators."""
    if code.kind != "rs":
        raise WrongKindError("rs_generator_matrix requires a Reed-Solomon code")
    assert code.generators is not None
    return MatrixF(
        code.field,
        [[g**i for g in code.generators] for i in range(code.k)],
    )


def generator_matrix(code: CodeSpec) -> MatrixF:
    if code.kind == "rs":
        return rs_generator_matrix(code)
    assert code.matrix is not None
    return code.matrix


def dual_code(code: CodeSpec) -> CodeSpec:
    """The dual as an explicit code; rows are the canonical kernel basis,
    the n identity rows for a zero-dimensional code (whose generator matrix
    has no rows, and so no columns)."""
    g = generator_matrix(code)
    basis = kernel(g) if code.k else MatrixF.identity(code.field, code.n).rows
    m = MatrixF(code.field, [list(v) for v in basis])
    return CodeSpec(code.field, code.n, len(basis), "explicit", matrix=m)


def puncture(code: CodeSpec, keep: Sequence[int]) -> CodeSpec:
    """Restrict the code to the kept column positions."""
    keep = sorted(set(keep))
    if any(i < 0 or i >= code.n for i in keep):
        raise SizeConstraintError("keep positions out of range")
    if code.kind == "rs":
        if len(keep) < code.k:
            raise RankLossError(
                f"keeping {len(keep)} positions drops rank below k={code.k}"
            )
        assert code.generators is not None
        return CodeSpec(
            code.field,
            len(keep),
            code.k,
            "rs",
            generators=tuple(code.generators[i] for i in keep),
        )
    assert code.matrix is not None
    sub = code.matrix.submatrix(range(code.k), keep)
    if rank(sub) != code.k:
        raise RankLossError("puncturing dropped the rank below k")
    return CodeSpec(code.field, len(keep), code.k, "explicit", matrix=sub)


# -- set tuples and the generic-dimension predicate -----------------------------


@dataclass(frozen=True)
class SetTuple:
    """An ordered tuple of column index subsets with its (n, k) context."""

    sets: Tuple[Tuple[int, ...], ...]
    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(
            self, "sets", tuple(tuple(sorted(set(a))) for a in self.sets)
        )

    @property
    def ell(self) -> int:
        return len(self.sets)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(a) for a in self.sets)

    def format(self) -> str:
        return ";".join(",".join(str(i) for i in a) for a in self.sets)


def set_partitions(items: Sequence[int]) -> Iterator[List[List[int]]]:
    """All partitions of items into nonempty blocks (restricted growth order)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def _check_tuple_sizes(tup: SetTuple) -> None:
    sizes = tup.sizes()
    if any(s > tup.k for s in sizes):
        raise SizeConstraintError(
            f"set sizes {sizes} exceed k={tup.k}"
        )
    want = (tup.ell - 1) * tup.k
    if sum(sizes) != want:
        raise SizeConstraintError(
            f"sizes {sizes} sum to {sum(sizes)}, need (l-1)k = {want}"
        )
    for a in tup.sets:
        if any(i < 0 or i >= tup.n for i in a):
            raise SizeConstraintError("column index out of range")


def generically_zero(tup: SetTuple) -> bool:
    """Whether generic subspaces in the tuple's position intersect trivially.

    True iff every partition of the tuple positions into blocks P_1..P_s
    satisfies sum_i |intersection over P_i| <= (s-1)k.  For three sets this
    reduces to the test ``mdscheck._mds3_triples`` runs: the triple
    intersection is empty, and for each pair |A_i & A_j| + |A_m| <= k.
    """
    _check_tuple_sizes(tup)
    return _generically_zero(tup.sets, tup.k)


def _generically_zero(sets: Sequence[Sequence[int]], k: int) -> bool:
    """generically_zero on index sets already known to fit (n, k)."""
    sets = [set(a) for a in sets]
    for part in set_partitions(range(len(sets))):
        s = len(part)
        total = 0
        for block in part:
            inter = set(sets[block[0]])
            for j in block[1:]:
                inter &= sets[j]
            total += len(inter)
        if total > (s - 1) * k:
            return False
    return True


def generic_intersection_dim(
    tup: SetTuple, trials: int = 5, seed: int = 0
) -> int:
    """Randomized generic oracle: intersection dimension of random subspaces.

    Samples k x n matrices over a fixed prime field of size above 2^31 and
    takes the majority verdict across trials (ties resolved toward the
    smaller dimension, which is the generic one).
    """
    p = GENERIC_ORACLE_PRIME
    ops = field_ops(GENERIC_ORACLE_FIELD)
    rng = random.Random((seed, tup.sets, tup.n, tup.k).__repr__())
    outcomes: Dict[int, int] = {}
    for _ in range(trials):
        m = [[rng.randrange(p) for _ in range(tup.n)] for _ in range(tup.k)]
        spans = [[[row[j] for row in m] for j in a] for a in tup.sets]
        d = intersection_dim(spans, tup.k, ops)
        outcomes[d] = outcomes.get(d, 0) + 1
    best = max(outcomes.items(), key=lambda kv: (kv[1], -kv[0]))
    return best[0]


# -- code file format -----------------------------------------------------------


def format_code(code: CodeSpec, provenance: Optional[Dict[str, object]] = None) -> str:
    """Text form: optional `# key=value` comments, field block, code block."""
    lines: List[str] = []
    if provenance:
        for key, val in provenance.items():
            lines.append(f"# {key}={val}")
    lines.append(format_field(code.field).rstrip("\n"))
    lines.append(f"code n={code.n} k={code.k} kind={code.kind}")
    if code.kind == "rs":
        assert code.generators is not None
        for g in code.generators:
            lines.append(f"gen {format_element(g)}")
    else:
        assert code.matrix is not None
        for row in code.matrix.rows:
            lines.append("row " + " ".join(format_element(e) for e in row))
    return "\n".join(lines) + "\n"


def parse_code(text: str) -> Tuple[CodeSpec, Dict[str, str]]:
    """Inverse of format_code; returns the code and its provenance comments.
    What format_code never writes is refused, not skipped: a stray line, a
    missing, repeated or unknown header key, or a second `code` header."""
    provenance: Dict[str, str] = {}
    field_lines: List[str] = []
    header = None
    body: List[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            item = line[1:].strip()
            if "=" in item:
                key, val = item.split("=", 1)
                provenance[key.strip()] = val.strip()
            continue
        if line.split()[0] == "code":
            if header is not None:
                raise ValueError("a second `code` header line")
            header = line
            continue
        if header is None:
            field_lines.append(line)
        else:
            body.append(line)
    if header is None:
        raise ValueError("missing `code` header line")
    f = parse_field("\n".join(field_lines))
    parts = _key_values(header, ("n", "k", "kind"))
    n, k, kind = int(parts["n"]), int(parts["k"]), parts["kind"]
    if n < 0 or k < 0:
        raise SizeConstraintError(f"need n >= 0 and k >= 0, got n={n} k={k}")
    word = {"rs": "gen", "explicit": "row"}.get(kind)
    if word is None:
        raise WrongKindError(f"unknown code kind {kind!r}")
    for line in body:
        if line.split()[0] != word:
            raise ValueError(f"unexpected line in a kind={kind} code: {line!r}")
    if kind == "rs":
        gens = [parse_element(f, line[len("gen ") :]) for line in body]
        if len(gens) != n:
            raise DegreeMismatchError(f"expected {n} gen lines, got {len(gens)}")
        return rs_code(f, gens, k), provenance
    rows = [[parse_element(f, tok) for tok in line.split()[1:]] for line in body]
    if len(rows) != k:
        raise DegreeMismatchError(f"expected {k} row lines, got {len(rows)}")
    for row in rows:
        if len(row) != n:
            raise DegreeMismatchError(
                f"header says n={n}, but a row has {len(row)} entries"
            )
    if k == 0:
        m = MatrixF(f, [])
        return CodeSpec(f, n, 0, "explicit", matrix=m), provenance
    return explicit_code(f, rows), provenance
