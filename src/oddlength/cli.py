"""Command line front end.

Four subcommands: ``roots`` prints a positive system, ``stats`` evaluates
every window statistic on one signed permutation, ``gf`` computes a signed
generating function, ``verify`` runs identity checks and reports pass/fail
per identity.

Exit codes: 0 all good, 1 at least one verification mismatch, 2 usage
error, 3 budget/range/checkpoint trouble or a repeatedly failing part;
every package error names its own code (see errors.py).  Diagnostics go to
stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cartan import CartanType, build_root_system
from .engine import run_partitioned
from .errors import InvalidRank, NoPrediction, OddLengthError, OutOfStatedRange
from .gf import RESTRICTIONS, predicted_display, verification_suite, verify_univariate
from .stats import (
    SignedPermutation,
    StatisticId,
    check_window,
    classify,
    compute_statistic,
)


def _add_type_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--type", help="Cartan type, e.g. B5 or E8")
    sub.add_argument("--family", help="family letter A..G (with --rank)")
    sub.add_argument("--rank", type=int, help="rank (with --family)")


def _type_spec(args, parser: argparse.ArgumentParser) -> str:
    """Upper-case text of --type, or of --family followed by --rank when one
    is given; empty when neither flag is."""
    if args.family or args.rank is not None:
        if args.type:
            parser.error("give either --type or --family/--rank, not both")
        if not args.family:
            parser.error("--rank needs --family")
        return args.family.strip().upper() + ("" if args.rank is None else str(args.rank))
    return (args.type or "").strip().upper()


def _resolve_type(args, parser: argparse.ArgumentParser) -> CartanType:
    spec = _type_spec(args, parser)
    if not spec or (args.family and args.rank is None):
        parser.error("missing type: use --type B5 or --family B --rank 5")
    return CartanType.parse(spec)


def _cmd_roots(args, parser) -> int:
    ct = _resolve_type(args, parser)
    rs = build_root_system(ct)
    if args.json:
        payload = {"type": str(ct), "count": rs.size, "positive_roots": [
            {"coords": list(r), "height": rs.heights[k], "odd": bool(rs.odd_mask[k])}
            for k, r in enumerate(rs.positive_roots)
        ]}
        json.dump(payload, sys.stdout, separators=(",", ":"))
        print()
        return 0
    print(f"{ct}: {rs.size} positive roots, {sum(rs.odd_mask)} of odd height")
    width = max(len(str(list(r))) for r in rs.positive_roots)
    for k, r in enumerate(rs.positive_roots):
        odd = "odd " if rs.odd_mask[k] else "even"
        print(f"{k:4d}  {str(list(r)):<{width}}  height {rs.heights[k]:3d}  {odd}")
    return 0


def _cmd_stats(args, parser) -> int:
    ct = _resolve_type(args, parser)
    if ct.family not in "ABCD":
        parser.error("stats works on window notation, so classical types only")
    sigma = check_window(ct, SignedPermutation.parse(args.window))
    values = {stat.value: compute_statistic(stat, sigma) for stat in StatisticId}
    cls = classify(sigma)
    if args.json:
        payload = {
            "type": str(ct), "window": list(sigma.window), "stats": values,
            "unimodal": cls.unimodal, "chessboard": cls.chessboard,
            "good_chessboard": cls.good_chessboard,
        }
        json.dump(payload, sys.stdout, separators=(",", ":"))
        print()
        return 0
    print(f"window {sigma}  ({ct})")
    for stat in StatisticId:
        print(f"  {stat.value:<8} {values[stat.value]}")
    flags = [f"unimodal={cls.unimodal}", f"chessboard={cls.chessboard}"]
    if cls.good_chessboard is not None:
        flags.append(f"good_chessboard={cls.good_chessboard}")
    print("  " + "  ".join(flags))
    return 0


def _parse_parts(text: str | None) -> list[int] | None:
    if text is None:
        return None
    try:
        parts = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        parts = []
    if not parts:
        raise InvalidRank(f"bad --parts list {text!r}: expected part indices")
    return parts


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _cmd_gf(args, parser) -> int:
    ct = _resolve_type(args, parser)
    if args.resume and args.checkpoint is None:
        parser.error("--resume needs --checkpoint")
    res = run_partitioned(
        ct,
        args.profile,
        args.restrict,
        workers=args.threads,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        parts=_parse_parts(args.parts),
        allow_large=args.allow_large,
        progress=args.progress,
    )
    if args.json:
        print(res.poly.dumps())
        return 0
    print(f"type {ct}  profile {args.profile}  restriction {args.restrict}")
    done = len(res.parts_done)
    print(f"{res.elements} elements, {done}/{res.n_parts} parts  {res.elapsed:.2f}s")
    whole = done == res.n_parts
    if args.profile == "odd-length" and args.restrict == "full" and whole:
        try:
            print(f"predicted product: {predicted_display(ct)}")
            if ct.family == "C":
                # the short product on record for type C disagrees with the
                # enumerated series; the derived form is shown here and
                # verify --type C3 --printed-form exhibits the distinction
                print("note: derived product form, not the shorter printed product")
        except NoPrediction:
            pass
    print(f"expansion: {res.poly}")
    return 0


def _suite_for(args, parser):
    t = _type_spec(args, parser)
    families = None
    if t:
        if len(t) != 1:
            ct = CartanType.parse(t)
            reports = [verify_univariate(ct)]
            if args.printed_form and ct.family == "C":
                reports.append(verify_univariate(ct, printed_form=True))
            return reports
        if t not in "ABCD":
            parser.error("family-wide verify supports A, B, C, D; exceptional "
                         "types are verified one at a time, e.g. --type F4")
        families = (t,)
    return verification_suite(
        max_n=args.max_n, include_printed_form=args.printed_form, families=families
    )


def _cmd_verify(args, parser) -> int:
    reports = _suite_for(args, parser)
    if not reports:
        raise OutOfStatedRange(f"no identity is stated up to --max-n {args.max_n}")
    failed = 0
    for rep in reports:
        print(rep.line())
        if not rep.ok:
            failed += 1
            print(f"      difference: {rep.diff}")
    print(f"{len(reports) - failed}/{len(reports)} identities hold")
    return 1 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oddlength",
        description="odd length statistics on Weyl groups: roots, windows, "
        "signed generating functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        # usage errors found after parsing are reported by the subcommand's
        # own parser, so the usage line shows its flags
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=lambda args: func(args, p))
        _add_type_flags(p)
        return p

    p_roots = command("roots", _cmd_roots, "print a positive root system")
    p_roots.add_argument("--json", action="store_true")

    p_stats = command("stats", _cmd_stats, "evaluate statistics on one window")
    p_stats.add_argument("--window", required=True,
                         help='comma separated, e.g. "3,-1,-4,-2,5"')
    p_stats.add_argument("--json", action="store_true")

    p_gf = command("gf", _cmd_gf, "compute a signed generating function")
    p_gf.add_argument("--profile", default="odd-length")
    p_gf.add_argument("--restrict", default="full", choices=tuple(RESTRICTIONS))
    p_gf.add_argument("--threads", type=_positive_int, default=1,
                      help="accepted for compatibility and changes nothing: every run"
                      " computes its parts one after another in one thread")
    p_gf.add_argument("--checkpoint", help="checkpoint file path")
    p_gf.add_argument("--resume", action="store_true",
                      help="pick up completed parts from --checkpoint")
    p_gf.add_argument("--parts", help="comma separated part indices (partial run)")
    p_gf.add_argument("--allow-large", action="store_true",
                      help="opt in to domains past the element budget (E8)")
    p_gf.add_argument("--progress", action="store_true",
                      help="per-part progress, parts/s and ETA on stderr")
    p_gf.add_argument("--json", action="store_true")

    p_verify = command("verify", _cmd_verify, "check identities against brute force")
    p_verify.add_argument("--max-n", type=int, default=8)
    p_verify.add_argument("--printed-form", action="store_true",
                          help="also check the shorter printed type C product, "
                          "which is expected to fail")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    except OddLengthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
