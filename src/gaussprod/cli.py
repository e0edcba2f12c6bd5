"""Command-line front end: sweep ranges, compute single values, self-test.

Exit codes: 0 everything passed, 1 at least one theorem check failed,
2 usage or argument error, or a query too large for the memory at hand,
3 internal consistency error (a bug, not a refuted identity).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

from .arith import primes_matching
from .classnum import (class_number_dirichlet, class_number_forms,
                       class_number_lemma1, hahn_lee_representation,
                       square_subgroup)
from .errors import InternalCheckError
from .products import block_counts, generalized_partial_products, partial_products
from .scan import ScanConfig, stream_report
from .selftest import run_selftest
from .theorems import THEOREM_IDS, verify

EXIT_OK = 0
EXIT_THEOREM_FAILURE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

ENV_WORKERS = "GAUSSPROD_WORKERS"

_COMPUTE_CHOICES = ("products", "counts", "classnumber", "representation",
                    "squares", "verdict")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaussprod",
        description="Block products of consecutive integers mod p and the "
                    "quadratic-residue identities they satisfy.")
    sub = ap.add_subparsers(dest="command", required=True)

    sc = sub.add_parser("scan", help="verify theorems over all applicable (p, q)")
    sc.add_argument("--p-max", type=int, required=True,
                    help="scan primes p below this bound")
    sc.add_argument("--q", type=int, action="append", dest="q_list", metavar="Q",
                    help="auxiliary prime; repeatable; default depends on theorem")
    sc.add_argument("--q-max", type=int,
                    help="use all odd primes up to this bound instead of --q")
    sc.add_argument("--theorems", default="all",
                    help="comma-separated ids or 'all'; ids: " + ", ".join(THEOREM_IDS))
    sc.add_argument("--workers", type=int, default=None,
                    help=f"parallel workers (default ${ENV_WORKERS} or 1)")
    sc.add_argument("--format", choices=("human", "json", "csv"), default="human")
    sc.add_argument("--output", help="write the report here instead of stdout")
    sc.add_argument("--progress", action="store_true",
                    help="after each unit, print units done, primes per second "
                         "and an ETA to stderr")

    cp = sub.add_parser("compute", help="print one quantity for a single (p, q)")
    cp.add_argument("--what", required=True, choices=_COMPUTE_CHOICES)
    cp.add_argument("--p", type=int, required=True)
    cp.add_argument("--q", type=int)
    cp.add_argument("--generalized", action="store_true",
                    help="floor-cut blocks instead of equal blocks")
    cp.add_argument("--theorem", help="theorem id, required for --what verdict")
    cp.add_argument("--format", choices=("human", "json"), default="human")

    st = sub.add_parser("selftest", help="run the built-in fixture checks")
    st.add_argument("--quiet", action="store_true", help="suppress per-module lines")
    return ap


def _parse_theorems(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return THEOREM_IDS
    ids = tuple(t.strip() for t in text.split(",") if t.strip())
    if not ids:
        raise ValueError("empty --theorems")
    return ids


def _resolve_workers(flag: int | None) -> int:
    if flag is not None:
        return flag
    env = os.environ.get(ENV_WORKERS, "").strip()
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"bad {ENV_WORKERS}={env!r}") from exc
    return 1


def _cmd_scan(args: argparse.Namespace) -> int:
    if args.q_list and args.q_max is not None:
        raise ValueError("--q and --q-max are mutually exclusive")
    q_values = None
    if args.q_list:
        q_values = tuple(sorted(set(args.q_list)))
    elif args.q_max is not None:
        if args.q_max < 3:
            raise ValueError(f"--q-max must be >= 3, got {args.q_max}")
        if args.q_max >= args.p_max:
            raise ValueError(f"--q-max must be below --p-max, got --q-max {args.q_max} "
                             f"and --p-max {args.p_max}")
        q_values = tuple(primes_matching(args.q_max + 1)[1:])
    config = ScanConfig(p_max=args.p_max, theorems=_parse_theorems(args.theorems),
                        q_values=q_values, workers=_resolve_workers(args.workers))
    start = time.monotonic()

    def progress(done: int, total: int, primes: int) -> None:
        # units cost about the same, so the units left estimate the time left
        elapsed = time.monotonic() - start
        print(f"scan: {done}/{total} units, {primes / elapsed:.0f} primes/s, "
              f"ETA {elapsed * (total - done) / done:.0f} s", file=sys.stderr, flush=True)

    with (open(args.output, "w", encoding="utf-8") if args.output
          else contextlib.nullcontext(sys.stdout)) as out:
        report = stream_report(config, args.format, out,
                               progress if args.progress else None)
    return EXIT_OK if not report.failures else EXIT_THEOREM_FAILURE


def _compute_payload(args: argparse.Namespace) -> tuple[dict, str, int]:
    """Returns (json payload, human text, exit code)."""
    p, q = args.p, args.q
    what = args.what
    if what == "products":
        if q is None:
            raise ValueError("--what products needs --q")
        table = (generalized_partial_products(p, q) if args.generalized
                 else partial_products(p, q))
        return ({"p": p, "q": q, "generalized": args.generalized,
                 "values": list(table.values)},
                str(list(table.values)), EXIT_OK)
    if what == "counts":
        if q is None:
            raise ValueError("--what counts needs --q")
        c = block_counts(p, q, generalized=args.generalized)
        human = (f"residues={list(c.residues)} nonresidues={list(c.nonresidues)}")
        return ({"p": p, "q": q, "generalized": args.generalized,
                 "residues": list(c.residues), "nonresidues": list(c.nonresidues)},
                human, EXIT_OK)
    if what == "classnumber":
        aux = q if q is not None else (3 if p % 3 else 5)
        results = {
            "dirichlet": class_number_dirichlet(p).h,
            f"lemma1(q={aux})": class_number_lemma1(p, aux).h,
            "forms": class_number_forms(p).h,
        }
        human = " ".join(f"{k}={v}" for k, v in results.items())
        return ({"p": p, **results}, human, EXIT_OK)
    if what == "representation":
        if q is None:
            raise ValueError("--what representation needs --q")
        rep = hahn_lee_representation(p, q)
        return ({"p": p, "q": q, "h": rep.h, "a": rep.a, "b": rep.b},
                f"a={rep.a} b={rep.b}", EXIT_OK)
    if what == "squares":
        # here the prime of interest is the small modulus itself
        data = square_subgroup(p)
        return ({"q": p, "squares": sorted(data.squares),
                 "neg_square_indices": list(data.neg_square_indices),
                 "beta": str(data.beta)},
                f"squares={sorted(data.squares)} "
                f"neg={list(data.neg_square_indices)} beta={data.beta}",
                EXIT_OK)
    if what == "verdict":
        if not args.theorem:
            raise ValueError("--what verdict needs --theorem")
        v = verify(args.theorem, p, q)
        code = EXIT_OK if v.passed else EXIT_THEOREM_FAILURE
        human = (f"{v.theorem_id} p={v.p} q={v.q} "
                 f"{'PASS' if v.passed else 'FAIL'} predicted={v.predicted} "
                 f"computed={v.computed} [{v.detail}]")
        return ({"theorem_id": v.theorem_id, "p": v.p, "q": v.q,
                 "predicted": v.predicted, "computed": v.computed,
                 "passed": v.passed, "detail": v.detail}, human, code)
    raise ValueError(f"unknown --what {what!r}")


def _cmd_compute(args: argparse.Namespace) -> int:
    payload, human, code = _compute_payload(args)
    if args.format == "json":
        import json
        sys.stdout.write(json.dumps(payload, sort_keys=True, default=list) + "\n")
    else:
        sys.stdout.write(human + "\n")
    return code


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "compute":
            return _cmd_compute(args)
        return run_selftest(quiet=args.quiet)
    except (InternalCheckError, ArithmeticError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
