"""Command-line front end.

Subcommands build design matrices, reproduce the published tables and
hyperplane blocks against the embedded fixtures, run the verification
suite, and export Hilbert bases and Markov-degree reports. Exit codes:
0 success, 1 usage error (bad input, unwritable output), 2 verification
failure, a broken internal invariant or any other internal error. Each
error is one stderr line, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Sequence

from . import fixtures, hilbert, markov, polyhedra, verify
from .design import Model, build_design_matrix, format_row_label

_USAGE_ERROR = 1
_VERIFY_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage errors, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo_i, hi_i = int(lo), int(hi)
        if hi_i < lo_i:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return [int(text)]


def _map_jobs(fn: Callable[[Any], Any], items: Sequence[Any], jobs: int) -> list[Any]:
    """fn over items; in a process pool, which forks all its workers at once, only if two or more get an item."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(items))
    if workers <= 1:
        return list(map(fn, items))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def cmd_design(args: argparse.Namespace) -> int:
    model = Model.parse(args.model)
    if args.check_fixture:  # the fixture comparison builds its own matrix, after the size is checked
        fixture = fixtures.load_design_fixture(model)
        if (fixture.S, fixture.T) != (args.S, args.T):
            print(f"no embedded fixture for model {model.value} at S={args.S}, T={args.T}", file=sys.stderr)
            return _USAGE_ERROR
        cmp = fixtures.compare_design_fixture(model)
        verdict = ", ".join(f"{name} FAIL" for name in cmp.failed) or f"{cmp.column_check} PASS"
        if cmp.column_check == "multiset":
            order = "matches the lex order" if cmp.strict_entrywise else "columns are a permutation of the lex-ordered build"
            verdict += f" (printed data {order})"
        print(f"fixture check model {model.value}: {verdict}")
        return 0 if cmp.ok else _VERIFY_ERROR
    matrix = build_design_matrix(model, args.S, args.T)
    if args.format == "csv":
        payload = matrix.to_csv()
    elif args.format == "json":
        payload = matrix.to_json() + "\n"
    else:
        widths = [max(len(str(row[i])) for row in matrix.as_rows()) for i in range(len(matrix.columns))]
        lines = []
        for label, row in zip(matrix.rows, matrix.as_rows()):
            lines.append(format_row_label(label).rjust(4) + " " + " ".join(str(x).rjust(w) for x, w in zip(row, widths)))
        payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    model = Model.parse(args.model)
    if model not in (Model.C, Model.D):
        print("tables exist for models c and d", file=sys.stderr)
        return _USAGE_ERROR
    table = fixtures.load_tables()[model.value]
    T_values = _parse_range(args.T) if args.T else sorted(table)
    for T in T_values:  # every row is refused before the first is computed
        hilbert.check_T_cap(model, 3, T)
    rows = _map_jobs(partial(verify.table_row, model.value), T_values, args.jobs)
    failed = False
    records = []
    for row in rows:
        T, hb_count, fv, normal = row
        if T in table:
            ok = verify.row_matches(row, table[T])
            failed |= not ok
            status = "PASS" if ok else "FAIL"
        else:
            status = "NO-FIXTURE"
        records.append({"T": T, "hb": hb_count, "f": list(fv), "normal": normal, "status": status})
        if args.format == "text":
            print(f"T={T:2d}  #HB={hb_count:4d}  f={' '.join(str(x) for x in fv)}  {status}")
    if args.format == "json":
        print(json.dumps({"model": model.value, "rows": records}, indent=1))
    return _VERIFY_ERROR if failed else 0


def cmd_hyperplanes(args: argparse.Namespace) -> int:
    model = Model.parse(args.model)
    if model not in (Model.C, Model.D):
        print("hyperplane fixtures exist for models c and d", file=sys.stderr)
        return _USAGE_ERROR
    blocks = fixtures.load_hyperplane_blocks(model)
    T_values = _parse_range(args.T) if args.T else sorted(blocks)
    missing = [T for T in T_values if T not in blocks]
    if args.check_fixture and missing:  # refused before the first T is computed
        print(f"no fixture block for T={', '.join(map(str, missing))}", file=sys.stderr)
        return _USAGE_ERROR
    facets_of = {T: fv[-1] for T, (_, fv) in fixtures.load_tables()[model.value].items()} if args.check_fixture else {}
    failed = False
    for T in T_values:
        nontrivial, hrep = verify.computed_nontrivial_facets(model, T)
        if args.check_fixture:
            cmp = fixtures.compare_hyperplanes(model, T, blocks[T], facets_of.get(T), nontrivial, len(hrep.inequalities))
            failed |= not cmp.ok
            print(f"T={T:2d}: {len(nontrivial)} nontrivial facets, fixture match {'PASS' if cmp.ok else 'FAIL'}")
            for h in cmp.fixture_only:
                print(f"    fixture-only: {h}")
            for h in cmp.computed_only:
                print(f"    computed-only: {h}")
        else:
            print(f"T={T}")
            sys.stdout.write(polyhedra.normals_to_block_text(list(nontrivial)))
    return _VERIFY_ERROR if failed else 0


def cmd_verify(args: argparse.Namespace) -> int:
    names = verify.criterion_names(args.only.split(",") if args.only is not None else None)  # refused before any runs
    runs = _map_jobs(partial(verify.run_suite, seed=args.seed), [[name] for name in names], args.jobs)
    results = [result for [result] in runs]
    failed = [r for r in results if not r.passed]
    if args.format == "json":
        print(json.dumps({"results": [r.__dict__ for r in results], "passed": not failed}, indent=1))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'}  {r.name:24s} {r.seconds:7.2f}s  {r.details}")
        print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return _VERIFY_ERROR if failed else 0


def cmd_hilbert(args: argparse.Namespace) -> int:
    result = hilbert.hilbert_basis(args.model, args.S, args.T, max_T=args.max_T)
    if args.format == "csv":
        sys.stdout.write(result.to_csv())
    else:
        print(json.dumps(result.summary()))
    return 0


def cmd_markov(args: argparse.Namespace) -> int:
    if args.moves_out:  # the basis checks the probe's caps at the same D before its own work
        moves = markov.moves_up_to_degree(args.model, args.S, args.T, args.D)
        with open(args.moves_out, "w") as fh:
            fh.write(markov.moves_to_text(moves))
    print(markov.minimal_connecting_degree(args.model, args.S, args.T, args.D).to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("design", help="build a design matrix or check it against the embedded fixture")
    p.add_argument("--model", required=True)
    p.add_argument("--S", type=int, required=True)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json", "text"), default="text")
    p.add_argument("--check-fixture", action="store_true")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("tables", help="recompute Hilbert basis sizes and f-vectors against the fixture tables")
    p.add_argument("--model", required=True)
    p.add_argument("--T", help="single T or inclusive range a..b (default: fixture rows)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_tables)

    p = sub.add_parser("hyperplanes", help="print or fixture-check the cone facet normals")
    p.add_argument("--model", required=True)
    p.add_argument("--T", help="single T or inclusive range a..b (default: fixture blocks)")
    p.add_argument("--check-fixture", action="store_true")
    p.set_defaults(fn=cmd_hyperplanes)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--only", help="comma-separated criterion names")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hilbert", help="compute a Hilbert basis and export it")
    p.add_argument("--model", required=True)
    p.add_argument("--S", type=int, default=3)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--max-T", type=int, dest="max_T")
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("markov", help="degree-capped fiber connectivity probe")
    p.add_argument("--model", required=True)
    p.add_argument("--S", type=int, default=3)
    p.add_argument("--T", type=int, required=True)
    p.add_argument("--D", type=int, default=3)
    p.add_argument("--moves-out")
    p.set_defaults(fn=cmd_markov)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # bad input or an unusable file
        print(f"thmc: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except AssertionError as exc:  # a broken internal invariant, not bad input
        print(f"thmc: internal check failed: {exc}", file=sys.stderr)
        return _VERIFY_ERROR
    except Exception as exc:  # any other error is a fault of the program, never bad input
        print(f"thmc: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _VERIFY_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
