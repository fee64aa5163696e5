"""Command-line interface: compute, classify, export, and verify."""
from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .genfun import gmdn_fake_degree, stanley
from .mutations import build_poset
from .qpolys import QPoly, expand
from .deformed import deformed_multinomial
from .shapes import parse_blocks, parse_partition
from .tableaux import enumerate_tableaux
from .zeros import support_gmdn, support_type_A, verify_support


def _json_out(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit_poly(p: QPoly, fmt: str) -> None:
    print(p.to_json_str() if fmt == "json" else str(p))


def _shape_args(parser: argparse.ArgumentParser, need_md: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--shape", help='partition, e.g. "4,2"')
    group.add_argument("--blocks", help='block shape, e.g. "2|3,1" (empty token = empty block)')
    if need_md:
        parser.add_argument("--m", type=int, help="number of blocks (with --blocks)")
        parser.add_argument("--d", type=int, default=1, help="rotation order dividing m")


def _resolve_md(parser: argparse.ArgumentParser, args) -> tuple | None:
    """(blocks, m, d) for --blocks; None for --shape, which takes no --m and
    no --d other than 1."""
    if args.shape is not None:
        if args.m is not None or args.d != 1:
            parser.error("--m and --d apply to --blocks only")
        return None
    blocks = parse_blocks(args.blocks)
    m = args.m if args.m is not None else blocks.m
    if m != blocks.m:
        parser.error(f"--m {m} does not match {blocks.m} blocks")
    return blocks, m, args.d


def cmd_fakedeg(parser, args) -> int:
    md = _resolve_md(parser, args)
    if md is None:
        poly = expand(stanley(parse_partition(args.shape)))
    else:
        poly = gmdn_fake_degree(*md)
    _emit_poly(poly, args.format)
    return 0


def cmd_support(parser, args) -> int:
    md = _resolve_md(parser, args)
    if md is None:
        p = parse_partition(args.shape)
        pred = support_type_A(p)
        actual = verify_mod.maj_gf_oracle(p) if args.verify else None
        shape_str = args.shape
    else:
        pred = support_gmdn(*md)
        actual = verify_mod.gmdn_gf_oracle(*md) if args.verify else None
        shape_str = str(md[0])
    if actual is None:
        print(_json_out({"degrees": sorted(pred.degrees)}))
        return 0
    report = verify_support(pred, actual, shape_str)
    print(report.to_json_str())
    return 0 if report.equal else 1


def cmd_enumerate(parser, args) -> int:
    shape = parse_partition(args.shape) if args.shape is not None else parse_blocks(args.blocks)
    stats = [s.strip() for s in args.stats.split(",") if s.strip()]
    known = {"maj": lambda t: t.maj(), "des": lambda t: t.des()}
    for s in stats:
        if s not in known:
            parser.error(f"unknown statistic {s!r} (choose from {sorted(known)})")
    for t in enumerate_tableaux(shape, limit=args.limit):
        cols = [t.to_text()] + [f"{s}={known[s](t)}" for s in stats]
        print(" ".join(cols))
    return 0


def cmd_poset(parser, args) -> int:
    p = parse_partition(args.shape)
    poset = build_poset(p, args.order)
    if args.format == "dot":
        sys.stdout.write(poset.to_dot())
    else:
        print(_json_out(poset.to_json_adjacency()))
    return 0


def cmd_deformed(parser, args) -> int:
    alpha = tuple(int(x) for x in args.alpha.split(","))
    if any(a < 0 for a in alpha):
        parser.error("alpha entries must be nonnegative")
    _emit_poly(deformed_multinomial(alpha, args.d), args.format)
    return 0


def cmd_verify(parser, args) -> int:
    if args.threads < 1:
        parser.error(f"--threads {args.threads} must be at least 1")
    if args.max_n is not None and args.max_n < 0:
        parser.error(f"--max-n {args.max_n} must be at least 0")
    names = list(verify_mod.SUITES) if args.suite == "all" else [args.suite]
    results, ok = verify_mod.run_suites(names, max_n=args.max_n, threads=args.threads)
    for r in results:
        print(r.line())
    print(("PASS" if ok else "FAIL") + f" ({len(results)} results)")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sytmaj",
        description="Exact major-index generating functions, fake degrees, and tableau posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fd = sub.add_parser("fakedeg", help="fake-degree / major-index polynomial")
    _shape_args(p_fd)
    p_fd.add_argument("--format", choices=("json", "text"), default="json")

    p_sup = sub.add_parser("support", help="predicted nonzero degrees")
    _shape_args(p_sup)
    p_sup.add_argument("--verify", action="store_true", help="compare with the enumeration oracle")

    p_enum = sub.add_parser("enumerate", help="stream standard tableaux")
    _shape_args(p_enum, need_md=False)
    p_enum.add_argument("--stats", default="maj", help="comma list from: maj,des")
    p_enum.add_argument("--limit", type=int, default=20, help="cell-count bound")

    p_pos = sub.add_parser("poset", help="export a tableau poset")
    p_pos.add_argument("--shape", required=True)
    p_pos.add_argument("--order", choices=("strong", "weak"), default="weak")
    p_pos.add_argument("--format", choices=("dot", "json"), default="dot")

    p_def = sub.add_parser("deformed", help="deformed Gaussian multinomial")
    p_def.add_argument("--alpha", required=True, help='composition, e.g. "2,1,1,1"')
    p_def.add_argument("--d", type=int, required=True)
    p_def.add_argument("--format", choices=("json", "text"), default="json")

    p_ver = sub.add_parser("verify", help="run oracle verification suites")
    p_ver.add_argument("--suite", default="all", choices=["all"] + sorted(verify_mod.SUITES))
    p_ver.add_argument("--max-n", type=int, default=None, help="cap the size bounds")
    p_ver.add_argument(
        "--threads", type=int, default=os.cpu_count() or 1,
        help="worker processes for batch verification (results are independent of this)",
    )

    args = parser.parse_args(argv)
    handlers = {
        "fakedeg": cmd_fakedeg,
        "support": cmd_support,
        "enumerate": cmd_enumerate,
        "poset": cmd_poset,
        "deformed": cmd_deformed,
        "verify": cmd_verify,
    }
    subparser = sub.choices[args.command]
    try:
        return handlers[args.command](subparser, args)
    except ValueError as exc:  # bad input, BoundExceeded and DNotDividingM included
        subparser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
