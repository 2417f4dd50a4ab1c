"""Command line front end.

Subcommands cover the whole toolkit: construct code files, check MDS
properties of parsed codes, search tiny parameter spaces, run tensor and
list-decoding checks, verify the polynomial certificates, and drive
acceptance suites.  Each computation has one subcommand, and an option that
the chosen family or mode does not read is a usage error, never ignored.

Exit codes: 0 pass, 1 fail (or construction failure), 2 usage, parse or
file error, 3 budget exceeded / inconclusive.  Report lines never include
wall clock times, so identical inputs and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Dict, List, Optional, Sequence

from .acceptance import BUDGET_SECONDS, SUITES, run_criterion
from .applications import (
    TensorCodeSpec,
    ld_mds_check,
    mr_check,
    parse_pattern,
    single_parity_code,
    tensor_parity,
    worst_case_ld_check,
)
from .codes import format_code, parse_code
from .constructions import CONSTRUCTION_NAMES, ConstructionParams, construct
from .errors import BudgetExceededError, MdskitError, SizeConstraintError
from .linalg import rank
from .mdscheck import CheckReport, exhaustive_code_search, is_mds, is_mds3_rs_fast, is_mds_ell
from .multipoly import (
    SparsePoly,
    pairing_ideal,
    verify_char2_membership,
    verify_claim_q_identity,
    verify_groebner_claim,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class UsageError(MdskitError):
    pass


def _emit(obj: Dict[str, object], fmt: str) -> None:
    """One report line; jsonl keys are sorted so output is reproducible."""
    if fmt == "jsonl":
        print(json.dumps(obj, sort_keys=True))
    else:
        print(" ".join(f"{key}={val}" for key, val in obj.items()))


def _emit_report(rep: CheckReport, fmt: str) -> None:
    obj: Dict[str, object] = {
        "property": rep.prop,
        "verdict": rep.verdict,
        "tuples": rep.tuples,
    }
    if rep.witness is not None:
        obj["witness"] = rep.witness.format()
    if rep.detail:
        obj["detail"] = rep.detail
    _emit(obj, fmt)


def _load_code(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        return parse_code(text)
    except (ValueError, KeyError, IndexError, MdskitError) as exc:
        raise UsageError(f"cannot parse {path}: {exc}")


# -- subcommands -----------------------------------------------------------------

# the construct options each family reads; any other one is refused
_FAMILY_OPTIONS = {
    "k3-n4": (),
    "k3-n3": (),
    "k4-general": ("k",),
    "k5-weak": ("k", "degree"),
    "general-ell": ("k", "ell", "degree"),
}


def _cmd_construct(args) -> int:
    for opt in ("k", "ell", "degree"):
        if getattr(args, opt) is not None and opt not in _FAMILY_OPTIONS[args.name]:
            raise UsageError(f"--{opt} does not apply to {args.name}")
    # parameter validation errors are usage errors; search failures inside
    # the builders (no Sidon set, no suitable prime) are construction failures
    try:
        params = ConstructionParams(
            name=args.name,
            n=args.n,
            k=args.k,
            ell=3 if args.ell is None else args.ell,
            extension_degree=args.degree if args.name == "k5-weak" else None,
            per_level_degree=args.degree if args.name == "general-ell" else None,
        )
    except MdskitError as exc:
        print(f"mdskit construct: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with warnings.catch_warnings():
        # one line per warning, without the source path of the warn call
        warnings.showwarning = lambda message, *_: print(
            f"mdskit construct: warning: {message}", file=sys.stderr
        )
        try:
            built = construct(params)
        except MdskitError as exc:
            print(f"mdskit construct: construction failed: {exc}", file=sys.stderr)
            return EXIT_FAIL
    text = format_code(built.code, built.provenance)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.out}: {exc}")
        _emit(
            {
                "event": "construct",
                "name": args.name,
                "n": built.code.n,
                "k": built.code.k,
                "q": built.provenance.get("q", built.provenance.get("q0")),
                "out": args.out,
            },
            args.format,
        )
    else:
        sys.stdout.write(text)
    return EXIT_PASS


def _cmd_check(args) -> int:
    if args.ell is not None and args.property != "mdsell":
        raise UsageError("--ell applies only with --property mdsell")
    code, _ = _load_code(args.file)
    if args.property == "mds":
        rep = is_mds(code)
    elif args.property == "mds3":
        # product-matrix path for evaluation codes, block path otherwise
        rep = is_mds3_rs_fast(code) if code.kind == "rs" else is_mds_ell(code, 3)
    else:  # mdsell
        rep = is_mds_ell(code, 3 if args.ell is None else args.ell)
    _emit_report(rep, args.format)
    return EXIT_PASS if rep.ok else EXIT_FAIL


def _cmd_search(args) -> int:
    res = exhaustive_code_search(args.n, args.k, args.q, budget=args.budget)
    _emit(
        {
            "event": "search",
            "n": args.n,
            "k": args.k,
            "q": args.q,
            "property": "mds3",
            "candidates": res.candidates,
            "count": res.count,
            "exemplars": len(res.exemplars),
        },
        args.format,
    )
    if args.format == "text":
        for i, code in enumerate(res.exemplars):
            sys.stdout.write(f"exemplar {i}:\n")
            sys.stdout.write(format_code(code))
    return EXIT_PASS


def _cmd_tensor_check(args) -> int:
    # the sweep's options, where given; mr_check holds their defaults
    sweep = {
        opt: getattr(args, opt)
        for opt in ("budget", "trials", "seed")
        if getattr(args, opt) is not None
    }
    if args.pattern is not None and sweep:
        raise UsageError(f"--{next(iter(sweep))} applies only without --pattern")
    code, _ = _load_code(args.file)
    col = single_parity_code(code.field, args.m)
    spec = TensorCodeSpec(col, code)
    if args.pattern is not None:
        pattern = parse_pattern(args.pattern, spec.m, spec.n)
        h = tensor_parity(spec)
        cols = pattern.indices()
        ok = rank(h.submatrix(range(h.nrows), cols)) == len(cols)
        _emit(
            {
                "property": "tensor-correctable",
                "verdict": "pass" if ok else "fail",
                "pattern": pattern.format(),
            },
            args.format,
        )
        return EXIT_PASS if ok else EXIT_FAIL
    rep = mr_check(spec, **sweep)
    _emit_report(rep, args.format)
    return EXIT_PASS if rep.ok else EXIT_FAIL


def _parse_radius(text: str):
    try:
        num, den = text.split("/")
        num, den = int(num), int(den)
    except ValueError:
        raise UsageError(f"radius must look like 2/3, got {text!r}")
    if den <= 0 or num < 0:
        raise UsageError("radius needs numerator >= 0 and denominator > 0")
    return num, den


def _cmd_ld_check(args) -> int:
    if args.radius is not None and not args.worst_case:
        raise UsageError("--radius applies only with --worst-case")
    if args.single and args.worst_case:
        raise UsageError("--single applies only without --worst-case")
    code, _ = _load_code(args.file)
    if args.worst_case:
        if args.radius is None:
            raise UsageError("--worst-case needs --radius NUM/DEN")
        num, den = _parse_radius(args.radius)
        rep = worst_case_ld_check(code, args.list_size, num, den, budget=args.budget)
    else:
        rep = ld_mds_check(
            code, args.list_size, up_to=not args.single, budget=args.budget
        )
    _emit_report(rep, args.format)
    return EXIT_PASS if rep.ok else EXIT_FAIL


def _cmd_verify_certificates(args) -> int:
    lines: List[Dict[str, object]] = []

    p0, p1, _, _ = pairing_ideal(7, power=2)
    e1 = SparsePoly.zero(7, 6)
    for i in range(6):
        e1 = e1 + SparsePoly.variable(7, 6, i)
    lines.append(
        {"certificate": "pairing-checksum", "verdict": "pass" if p1 == p0 * e1 else "fail"}
    )
    for p in (7, 11):
        ok = verify_claim_q_identity(p)
        lines.append(
            {"certificate": f"identity-char{p}", "verdict": "pass" if ok else "fail"}
        )
    verdict = verify_groebner_claim(budget=args.budget)
    lines.append({"certificate": "ideal-membership", "verdict": verdict})
    if args.char2:
        try:
            ok = verify_char2_membership(budget=args.budget)
            verdict2 = "pass" if ok else "fail"
        except BudgetExceededError:
            verdict2 = "inconclusive"
        lines.append({"certificate": "char2-membership", "verdict": verdict2})

    for obj in lines:
        _emit(obj, args.format)
    verdicts = [obj["verdict"] for obj in lines]
    if "fail" in verdicts:
        return EXIT_FAIL
    if "inconclusive" in verdicts:
        return EXIT_BUDGET
    return EXIT_PASS


def _cmd_acceptance(args) -> int:
    failed: Optional[int] = None
    for number in SUITES[args.suite]:
        res = run_criterion(number)
        _emit(
            {
                "criterion": res.number,
                "name": res.name,
                "verdict": res.verdict,
                "detail": res.detail,
            },
            args.format,
        )
        over = res.seconds > BUDGET_SECONDS[res.number]
        if over:
            print(
                f"mdskit acceptance: criterion {res.number} exceeded its "
                f"{BUDGET_SECONDS[res.number]}s budget ({res.seconds:.1f}s)",
                file=sys.stderr,
            )
        if failed is None and (not res.ok or over):
            failed = res.number
    if failed is not None:
        print(f"mdskit acceptance: first failing criterion: {failed}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "jsonl"), default="text", help="report format"
    )

    top = argparse.ArgumentParser(
        prog="mdskit",
        description="Construct and verify higher-order MDS codes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build a code family member")
    p.add_argument("--name", required=True, choices=CONSTRUCTION_NAMES)
    p.add_argument("--n", type=int, required=True, help="code length")
    p.add_argument("--k", type=int, default=None, help="dimension")
    p.add_argument("--ell", type=int, default=None, help="intersection order (default 3)")
    p.add_argument(
        "--degree",
        type=int,
        default=None,
        help="extension degree (k5-weak) or per-level degree (general-ell)",
    )
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", parents=[common], help="check a property of a code file")
    p.add_argument("file")
    p.add_argument("--property", required=True, choices=("mds", "mds3", "mdsell"))
    p.add_argument(
        "--ell", type=int, default=None, help="order for --property mdsell (default 3)"
    )
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("search", parents=[common], help="exhaustive tiny-space search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**7)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser(
        "tensor-check",
        parents=[common],
        help="maximal recoverability of a parity-column tensor code",
    )
    p.add_argument("file", help="row code file")
    p.add_argument("--m", type=int, required=True, help="column code length (a = 1)")
    p.add_argument(
        "--pattern",
        default=None,
        help="single erasure pattern r,c;r,c;... instead of the full sweep",
    )
    p.add_argument("--budget", type=int, default=None, help="patterns (default 10^6)")
    p.add_argument("--trials", type=int, default=None, help="generic-oracle trials (default 5)")
    p.add_argument("--seed", type=int, default=None, help="oracle and sample seed (default 0)")
    p.set_defaults(func=_cmd_tensor_check)

    p = sub.add_parser(
        "ld-check", parents=[common], help="list-decoding Singleton checks"
    )
    p.add_argument("file")
    p.add_argument("--list-size", type=int, required=True, help="list size L")
    p.add_argument(
        "--single",
        action="store_true",
        help="check exactly list size L, not every size up to L",
    )
    p.add_argument(
        "--worst-case",
        action="store_true",
        help="worst-case decodability at --radius instead of average-radius",
    )
    p.add_argument("--radius", default=None, help="worst-case radius NUM/DEN")
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_ld_check)

    p = sub.add_parser(
        "verify-certificates",
        parents=[common],
        help="verify the transcribed polynomial certificates",
    )
    p.add_argument(
        "--char2",
        action="store_true",
        help="also run the characteristic-2 ideal membership",
    )
    p.add_argument("--budget", type=int, default=10**6)
    p.set_defaults(func=_cmd_verify_certificates)

    p = sub.add_parser("acceptance", parents=[common], help="run an acceptance suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.set_defaults(func=_cmd_acceptance)

    return top


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = getattr(args, "budget", None)
        if budget is not None and budget < 0:
            raise UsageError(f"--budget must be at least 0, got {budget}")
        return args.func(args)
    except (UsageError, SizeConstraintError) as exc:
        # a size constraint broken by an argument is a usage error, not a
        # fail verdict
        print(f"mdskit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"mdskit: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MdskitError as exc:
        print(f"mdskit: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
