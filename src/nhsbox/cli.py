"""Command-line front end.

Subcommands: field, spectrum, boomerang, charsum, constants, sweep, verify.
--q names the field of each one-field command; spectrum and boomerang read
F_{r,u} by its row reduction.  sweep and verify run the claims of
verifier.CLAIMS, witness-set censuses included; a claim id given twice
runs once, and a claim that raises is an error line, not a traceback.
Machine-readable results go to stdout, diagnostics to stderr.  Exit codes:
0 all pass, 1 at least one exception, error or failed check, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .characters import boomerang_constants, theorem2_constants, theorem6_constants
from .gf import CODE_LIMIT, FieldConstructionError, build_field, cached_field, factorize
from .nh_family import NHParams
from .spectra import FunctionTable, boomerang_spectrum, differential_spectrum
from .verifier import U_MODES, SweepConfig, _sweep_worker, check_request, sweep


class UsageError(ValueError):
    pass


def _prime_power(q):
    """(p, n) with q = p^n; UsageError when q is not a prime power or above
    CODE_LIMIT.  q = 0 and q = -1 pass as (q, 1) for build_field to reject
    p = q as not prime."""
    if q > CODE_LIMIT:
        raise UsageError(f"q = {q} exceeds the element-code limit {CODE_LIMIT}")
    if q in (0, -1):
        return q, 1
    fac = factorize(q) if q > 0 else {}
    if len(fac) != 1:
        raise UsageError(f"q = {q} is not a prime power")
    ((p, n),) = fac.items()
    return p, n


def parse_u_token(field, token):
    """Element codes, or small rationals like '1/3', '-1', resolved in-field."""
    token = token.strip()
    if "/" in token:
        num_s, den_s = token.split("/", 1)
        try:
            num, den = int(num_s), int(den_s)
        except ValueError as exc:
            raise UsageError(f"bad u token {token!r}") from exc
        if den == 0:
            raise UsageError(f"u = {token} divides by zero")
        den_code = field.embed(den)
        if den_code == 0:
            raise UsageError(
                f"u = {token} is undefined in characteristic {field.p} "
                f"(the denominator vanishes); such claims assume p does not divide {den}"
            )
        return field.mul(field.embed(num), field.inv(den_code))
    try:
        val = int(token)
    except ValueError as exc:
        raise UsageError(f"bad u token {token!r}") from exc
    if token.startswith(("+", "-")):
        return field.embed(val)
    try:
        return field.check_code(val, "u")
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_field(args):
    field = build_field(*_prime_power(args.q))
    info = {
        "p": field.p,
        "n": field.n,
        "q": field.q,
        "modulus": list(field.modulus) if field.modulus else None,
        "generator": field.generator,
    }
    if field.q % 4 == 3 and field.eta_table is not None:  # q <= TABLE_LIMIT
        info["cij_counts"] = field.cij_partition().counts
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _spectrum_payload(args, boomerang):
    field = build_field(*_prime_power(args.q))
    u = parse_u_token(field, args.u)
    try:
        params = NHParams(args.r, u)
    except ValueError as exc:  # r < 1
        raise UsageError(str(exc)) from exc
    table = FunctionTable.from_nh(field, params)
    spectrum = boomerang_spectrum if boomerang else differential_spectrum
    spec = spectrum(table, reduction=params)  # the table is F_{r,u}, so its rows reduce
    payload = {"q": field.q, "u": params.u, "r": params.r, "spectrum": spec.to_json_dict()}
    if boomerang:
        payload["beta"] = spec.uniformity
    else:
        payload.update(delta=spec.uniformity, locally_apn=spec.locally_apn)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_charsum_selftest(args):
    """The CHARSUM claim at every odd q <= qmax, one job; prints a q/result
    table, a check that raises being a FAIL with its error on stderr."""
    if args.qmax < 3:
        raise UsageError(f"no odd prime power q <= qmax = {args.qmax}")
    try:
        report = sweep(SweepConfig(("CHARSUM",), 3, args.qmax + 1))
    except ValueError as exc:  # a range past CODE_LIMIT, rejected before the sieve
        raise UsageError(str(exc)) from exc
    results = {r.q: "pass" if r.status == "pass" else "FAIL" for r in report.rows}
    for q, claim_id, msg in report.errors:
        results[q] = "FAIL"
        print(f"Error: q={q}, claim={claim_id}: {msg}", file=sys.stderr)
    width = len(str(max(results)))
    print(f"{'q':>{width}}  result")
    for q in sorted(results):
        print(f"{q:>{width}}  {results[q]}")
    return 0 if report.ok else 1


def _cmd_constants(args):
    which = {
        "thm2": theorem2_constants,
        "thm6": theorem6_constants,
        "boomerang": boomerang_constants,
    }
    m1, m2 = which[args.which]()
    print(f"m1={m1} m2={m2}")
    return 0


def _cmd_sweep(args):
    config = SweepConfig(
        claims=tuple(args.claims),
        min_q=args.min,
        max_q=args.max,
        jobs=args.jobs,
        u_mode=args.u_mode,
    )
    start, progress = time.monotonic(), None
    if sys.stderr.isatty():  # logs and pipes get no progress line

        def progress(done, total, q):  # one line, redrawn: tasks done, the q just done, time
            line = f"\r{done}/{total} tasks, q={q}, {time.monotonic() - start:.1f}s elapsed"
            print(line, end="\n" if done == total else "", file=sys.stderr, flush=True)

    try:
        report = sweep(config, progress=progress)
    except ValueError as exc:  # sweep validates its config before any work
        raise UsageError(str(exc)) from exc
    rendered = {
        "csv": lambda: report.to_csv(with_timing=args.timing),
        "json": lambda: report.to_json(with_timing=args.timing),
        "text": report.to_text,
    }[args.format]()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    summary = report.summary
    print(
        f"pass={summary['pass']} exception={summary['exception']} skipped={summary['skipped']}",
        file=sys.stderr,
    )
    return 0 if report.ok else 1


def _cmd_verify(args):
    p, n = _prime_power(args.q)
    cached_field(p, n)  # q = 0, -1 or 2 is no field: exit 2 before any row
    try:
        check_request(args.claims, args.u_mode)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    bad = 0
    for claim in dict.fromkeys(args.claims):  # distinct ids, in the order given
        rows, errors = _sweep_worker((claim, p, n), args.u_mode)
        for row in rows:
            shown = {k: v for k, v in row.__dict__.items() if k != "elapsed_ms"}
            print(json.dumps(shown, sort_keys=True))
            bad += row.status == "exception"
        for q, claim_id, msg in errors:
            print(f"Error: q={q}, claim={claim_id}: {msg}", file=sys.stderr)
        bad += len(errors)
    return 1 if bad else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="nhsbox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_q(sp):
        sp.add_argument("--q", type=int, required=True, help="the field size, an odd prime power")

    sp = sub.add_parser("field", help="print field construction data")
    add_q(sp)
    sp.set_defaults(fn=_cmd_field)

    for name, boom in (("spectrum", False), ("boomerang", True)):
        sp = sub.add_parser(name, help=f"{'boomerang' if boom else 'differential'} spectrum (JSON)")
        add_q(sp)
        sp.add_argument("--r", type=int, default=2)
        sp.add_argument("--u", required=True, help="element code or rational token like 1/3")
        sp.set_defaults(fn=lambda a, boom=boom: _spectrum_payload(a, boom))

    sp = sub.add_parser("charsum", help="character-sum self tests")
    sub2 = sp.add_subparsers(dest="charsum_command", required=True)
    st = sub2.add_parser("selftest", help="closed forms vs brute oracles")
    st.add_argument("--qmax", type=int, default=81)
    st.set_defaults(fn=_cmd_charsum_selftest)

    sp = sub.add_parser("constants", help="reproduce bound constants")
    sp.add_argument("--which", choices=("thm2", "thm6", "boomerang"), required=True)
    sp.set_defaults(fn=_cmd_constants)

    sp = sub.add_parser("sweep", help="verify claims over a q range")
    sp.add_argument("--min", type=int, required=True)
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--claims", nargs="+", required=True)
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--u-mode", default="default", help=U_MODES)
    sp.add_argument("--out", help="write the report to a file instead of stdout")
    sp.add_argument("--format", choices=("csv", "json", "text"), default="csv")
    sp.add_argument("--timing", action="store_true", help="include measured elapsed_ms")
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("verify", help="run claims at a single q")
    add_q(sp)
    sp.add_argument("--claims", nargs="+", required=True)
    sp.add_argument("--u-mode", default="default", help=U_MODES)
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, FieldConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
