"""Command-line frontend.

Commands: enumerate, verify, graph, curve, scan-counterexamples, kn-witness.
All numeric output is exact (integers, or reduced fractions where a
quotient need not be whole), and reports are deterministically sorted, so
repeated runs are byte-identical.

Exit codes: 0 all checks pass, 1 verification mismatch, 2 usage/parse error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from . import feasibility, swrg
from .curve import CurveQuery, search_report
from .errors import CodesError, GuardExceeded, InvalidArgument, ParseError
from .matrixio import parse_matrix_file
from .transform import dual_numerators


def emit_report(rows: list[dict], fmt: str) -> str:
    """Render report rows deterministically (rows must be pre-sorted)."""
    if fmt == "json":
        return json.dumps(rows, indent=1, sort_keys=True) + "\n"
    if fmt == "csv":
        if not rows:
            return ""
        buf = io.StringIO()
        fields = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            flat = dict(row)
            if "reasons" in flat:
                flat["reasons"] = ";".join(flat["reasons"])
            writer.writerow(flat)
        return buf.getvalue()
    if fmt == "text":
        lines = []
        for row in rows:
            head = " ".join(f"{k}={row[k]}" for k in row if k != "reasons")
            reasons = row.get("reasons") or []
            tail = ("  [" + "; ".join(reasons) + "]") if reasons else ""
            lines.append(head + tail)
        return "\n".join(lines) + ("\n" if lines else "")
    raise InvalidArgument(f"unknown format {fmt!r}")


def _cmd_enumerate(args: argparse.Namespace) -> int:
    rows = [
        c.row()
        for c in feasibility.feasibility_report(
            args.q, args.n_min, args.n_max, include_unlisted=args.include_unlisted
        )
    ]
    sys.stdout.write(emit_report(rows, args.format))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    rows = []
    for c in feasibility.counterexample_scan(args.n_max):
        row = c.row()
        row["y"] = c.y
        rows.append(row)
    sys.stdout.write(emit_report(rows, args.format))
    return 0


def _parse_triple(text: str) -> tuple[int, int, int]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        parts = ()  # refused below, like a wrong count
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated integers")
    return parts


def _cmd_verify(args: argparse.Namespace) -> int:
    code = parse_matrix_file(args.file)
    q, n, k = code.params()
    dist = code.weight_distribution()
    weights = dist.nonzero_weights()
    freqs = tuple(dist.frequency(w) for w in weights)
    projective, mult = code.is_projective()
    print(f"[{n},{k}]_{q} code: weights {weights} frequencies {freqs}")
    print(f"projective: {projective} (multiplicity type {mult.as_dict()}, "
          f"{mult.zero_positions} zero positions)")
    failures = []
    target = Fraction(3 * n * (q - 1), q)
    sum_ok = sum(weights) == target
    print(f"weight sum {sum(weights)} (3n(q-1)/q = {target}): "
          f"{'ok' if sum_ok else 'MISMATCH'}")
    if not sum_ok:
        failures.append(f"weight sum {sum(weights)} != {target}")
    if len(weights) == 3:
        mid_ok = weights[1] * q == n * (q - 1)
        print(f"w2 = n(q-1)/q: {'ok' if mid_ok else 'MISMATCH'}")
        if not mid_ok:
            failures.append(f"w2 = {weights[1]} != n(q-1)/q")
    size = q**k
    b = dual_numerators(dist.as_dict(), n, q)  # q^k B_i
    b_int = all(v >= 0 and v % size == 0 for v in b)
    b1, b2, b3 = (Fraction(b[i], size) if i <= n else 0 for i in (1, 2, 3))  # B_i = 0 for i > n
    print(f"dual distribution integral/nonnegative: {b_int}; B1=B2=0: {b1 == 0 and b2 == 0}")
    print(f"B3 = {b3}")
    if not projective:
        failures.append("not projective")
    if args.expect_weights and tuple(args.expect_weights) != weights:
        failures.append(f"expected weights {args.expect_weights}, got {weights}")
    if args.expect_freqs and tuple(args.expect_freqs) != freqs:
        failures.append(f"expected frequencies {args.expect_freqs}, got {freqs}")
    if (args.graph or args.tss) and not projective:
        print("coset graph: skipped (the code is not projective)")
    elif args.graph or args.tss:
        graph = swrg.coset_graph(code)
        if args.graph:
            eigenvalues = swrg.verify_spectrum(graph)  # raises unless the trace identities hold
            walk = swrg.is_s_swrg(graph, 3)
            print(f"coset graph: {graph.nvertices} vertices, {graph.degree}-regular; "
                  f"spectrum {eigenvalues} verified: True; "
                  f"3-walk-regular: {walk.is_swrg} {walk.constants or ''}")
            if len(weights) == 3 and sum_ok and not walk.is_swrg:
                failures.append("expected a 3-walk-regular coset graph")
        if args.tss:
            inst = swrg.tss_check(graph)
            print(f"triple sum set: consistent={inst.consistent} "
                  f"sigma0={inst.sigma0} sigma1={inst.sigma1}")
            if len(weights) == 3 and sum_ok and not inst.consistent:
                failures.append("triple-sum counts inconsistent")
    if failures:
        for f in failures:
            print(f"FAIL: {f}")
        return 1
    print("PASS")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    code = parse_matrix_file(args.file)
    if args.adjacency:  # the listing's guard, decided before any enumeration
        excess = swrg.vertex_guard_excess(code.q, code.k)
        if excess and code.is_projective()[0]:
            raise GuardExceeded(excess)
    graph = swrg.coset_graph(code)
    result = swrg.is_s_swrg(graph, args.s)  # refuses a bad --s before any listing
    if args.adjacency:
        for line in graph.adjacency_lines():
            sys.stdout.write(line + "\n")
    else:
        payload = graph.summary()
        payload["s"] = args.s
        payload["is_s_swrg"] = result.is_swrg
        payload["walk_constants"] = list(result.constants) if result.constants else None
        sys.stdout.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


def _cmd_curve(args: argparse.Namespace) -> int:
    payload = search_report(CurveQuery(args.d, args.bound))
    sys.stdout.write(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return 0


def _cmd_kn_witness(args: argparse.Namespace) -> int:
    w = feasibility.kn_witness(args.a)
    dist = w.witness.weight_distribution()
    weights = dist.nonzero_weights()
    print(f"a={w.a}: K={w.k_value} (bounds {w.k_bounds}), "
          f"N={w.n_value} (bounds {w.n_bounds})")
    print(f"witness: [{w.witness.n},{w.witness.k}]_2 code, weights {weights}, "
          f"frequencies {tuple(dist.frequency(x) for x in weights)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threeweight",
        description="Exact tools for projective three-weight codes, their coset "
        "graphs, triple sum sets, and the associated curve searches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="feasible parameter catalog for a length range")
    p.add_argument("--q", type=int, choices=(2, 3), required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--include-unlisted", action="store_true",
                   help="also show admissible rows the published catalog omits")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check a generator-matrix file")
    p.add_argument("file")
    p.add_argument("--expect-weights", type=_parse_triple)
    p.add_argument("--expect-freqs", type=_parse_triple)
    p.add_argument("--graph", action="store_true", help="also verify the coset graph")
    p.add_argument("--tss", action="store_true", help="also verify triple-sum constants")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("graph", help="coset graph summary / adjacency export")
    p.add_argument("file")
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--adjacency", action="store_true")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("curve", help="bounded integral point search on the monomial curve")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("scan-counterexamples", help="midpoint-conjecture counterexample scan")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("kn-witness", help="extremal non-divisible witness codes")
    p.add_argument("--a", type=int, choices=(1, 2, 3), required=True)
    p.set_defaults(func=_cmd_kn_witness)

    parser.commands = sub.choices  # name -> subparser, for `main`'s dispatch
    return parser


# Built on the first `main` call and reused: `prog` is fixed, every default
# is immutable, `parse_args` leaves the parser as it was, and help text is
# formatted when printed.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one command.  When argv starts with a command name, only that
    command's parser reads the rest, as the nested pass of the full parser
    would, and leftovers get the full parser's own error; any other argv
    (empty, help, an option first, an unknown command) goes to the full
    parser."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = argv and _parser.commands.get(argv[0])
    if not command:
        args = _parser.parse_args(argv)
    else:
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            _parser.error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except CodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
