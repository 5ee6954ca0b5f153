"""Command-line front end.

Subcommands::

    diagres verify --example {affine-line | nodal-conic | cycle} [--n N]
                   [--chart I,J] [--field q|fp:P] [--report text|json]
    diagres verify --job PATH [--field ...] [--report ...]
    diagres gb --job PATH [--report ...]
    diagres witness --example ... | --job PATH

Exit codes: 0 verification passed, 1 verification failed, 2 input or parse
error, or an internal error (one "internal error:" line on stderr, never a
traceback, so that exit 1 always means a failed verification).  JSON
reports are deterministic byte for byte except for the timing field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .complexes import InputDataError, exact_everywhere, verify_diagonal_qiso
from .groebner import Submodule, buchberger
from .jobio import JobFileError, load_job
from .polyring import ParseError
from .report import VerificationReport, report_from_qiso
from .scalars import field_from_spec, field_spec_str
from .witness import verify_witness

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _field(args):
    try:
        return field_from_spec(args.field or "q")
    except ValueError as exc:
        raise JobFileError(str(exc))


def _emit(report: VerificationReport, args) -> int:
    if args.report == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    if report.verdict == "pass":
        return EXIT_PASS
    if report.verdict == "error":
        return EXIT_INPUT
    return EXIT_FAIL


def _witness_report(witness, name, field_used):
    wrep = verify_witness(witness)
    return VerificationReport(
        name=name,
        verdict="pass" if wrep.passed else "fail",
        field_used=field_used,
        conditions=[{"condition": "witness", "degree": None,
                     "passed": wrep.passed,
                     "detail": "; ".join(wrep.problems)}],
        messages=list(wrep.messages),
    )


def _verify_example(args) -> int:
    from . import catalog

    fld = _field(args)
    fname = field_spec_str(fld)
    t0 = time.time()
    if args.example == "affine-line":
        entry = catalog.build_affine_line(fld)
        top = VerificationReport("affine-line", "pass", fname)
        top.subreports.append(catalog.verify_entry(entry))
        top.subreports.append(_witness_report(entry.witness, "affine-line:witness", fname))
    elif args.example == "nodal-conic":
        entry = catalog.build_nodal_conic(fld)
        product = catalog.build_nodal_conic_product(fld)
        top = VerificationReport("nodal-conic", "pass", fname)
        top.subreports.append(catalog.verify_entry(entry))
        top.subreports.append(catalog.verify_entry(product))
        top.subreports.append(_witness_report(entry.witness, "nodal-conic:witness", fname))
    elif args.example == "cycle":
        n = args.n
        cat = catalog.build_cycle(n, fld)
        jobs = cat.chart_jobs
        if args.chart:
            try:
                ci, cj = (int(t) for t in args.chart.split(","))
            except ValueError:
                raise JobFileError(f"bad --chart {args.chart!r}, expected I,J")
            jobs = [j for j in jobs if j.chart == (ci, cj)]
            if not jobs:
                raise JobFileError(f"no chart ({ci},{cj}) for n={n}")
        top = VerificationReport(f"cycle(n={n})", "pass", fname,
                                 notes=list(cat.notes))
        top.subreports.extend(catalog.verify_chart_jobs(jobs))
        if not args.chart:
            top.subreports.append(_witness_report(cat.witness, f"cycle(n={n}):witness",
                                                  fname))
    else:
        raise JobFileError(f"unknown example {args.example!r}")
    if any(s.verdict == "error" for s in top.subreports):
        top.verdict = "error"
    elif any(s.verdict != "pass" for s in top.subreports):
        top.verdict = "fail"
    top.timing_seconds = time.time() - t0
    return _emit(top, args)


def _verify_job(args) -> int:
    job = load_job(args.job, args.field)
    t0 = time.time()
    fname = field_spec_str(job.ring.field)
    if not job.complexes:
        raise JobFileError("job has no complexes to verify")
    if job.expectation == "exact_everywhere":
        name, cx = next(iter(job.complexes.items()))
        result = exact_everywhere(cx, window=job.diagonal.window if job.diagonal else None)
        rep = report_from_qiso(f"{job.name}:{name}", fname, result,
                               timing=time.time() - t0)
    else:
        if job.diagonal is None:
            raise JobFileError("job needs a diagonal block")
        name = job.diagonal_complex or next(iter(job.complexes))
        if name not in job.complexes:
            raise JobFileError(f"diagonal references unknown complex {name!r}")
        result = verify_diagonal_qiso(job.complexes[name], job.diagonal)
        rep = report_from_qiso(f"{job.name}:{name}", fname, result,
                               timing=time.time() - t0)
        if result.truncated:
            rep.notes.append(
                f"truncated model: verdict claimed in window {tuple(result.window)}")
    return _emit(rep, args)


def _run_gb(args) -> int:
    job = load_job(args.job, args.field)
    if job.gb_module is None:
        raise JobFileError("gb subcommand needs a module block in the job file")
    sub = Submodule(job.ring, job.gb_module["rank"], job.gb_module["generators"])
    zero = str(job.ring.zero())
    basis = []
    for col in buchberger(sub).columns():
        strs = [zero] * sub.rank
        for i, p in col.items():
            strs[i] = str(p)
        basis.append(strs)
    doc = {
        "schema": 1,
        "name": job.name,
        "field": field_spec_str(job.ring.field),
        "rank": sub.rank,
        "basis": basis,
    }
    if args.report == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"{job.name}: reduced basis, {len(basis)} vectors")
        for strs in basis:
            print("  (" + ", ".join(strs) + ")")
    return EXIT_PASS


def _run_witness(args) -> int:
    from . import catalog

    if args.job:
        job = load_job(args.job, args.field)
        if job.witness is None:
            raise JobFileError("job has no witness block")
        return _emit(_witness_report(job.witness, f"{job.name}:witness",
                                     field_spec_str(job.ring.field)), args)
    fld = _field(args)
    fname = field_spec_str(fld)
    if args.example == "cycle":
        witness, name = catalog.build_cycle(args.n, fld).witness, f"cycle(n={args.n})"
    else:
        build = {"affine-line": catalog.build_affine_line,
                 "nodal-conic": catalog.build_nodal_conic}[args.example]
        witness, name = build(fld).witness, args.example
    return _emit(_witness_report(witness, f"{name}:witness", fname), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagres",
        description="verify diagonal resolutions over quotient polynomial rings")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--field", default=None,
                       help="coefficient field: q (rationals) or fp:P "
                            "(default q; for --job runs the job file's field "
                            "unless given explicitly)")
        p.add_argument("--report", choices=("text", "json"), default="text")

    pv = sub.add_parser("verify", help="verify a catalog example or a job file")
    pv.add_argument("--example", choices=("affine-line", "nodal-conic", "cycle"))
    pv.add_argument("--job")
    pv.add_argument("--n", type=int, default=3, help="cycle length (default 3)")
    pv.add_argument("--chart", help="restrict the cycle run to one chart: I,J")
    common(pv)

    pg = sub.add_parser("gb", help="reduced Gröbner basis of a job-file module")
    pg.add_argument("--job", required=True)
    common(pg)

    pw = sub.add_parser("witness", help="check a generation-time witness")
    pw.add_argument("--example", choices=("affine-line", "nodal-conic", "cycle"))
    pw.add_argument("--job")
    pw.add_argument("--n", type=int, default=3)
    common(pw)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            if bool(args.example) == bool(args.job):
                parser.error("verify needs exactly one of --example or --job")
            return _verify_example(args) if args.example else _verify_job(args)
        if args.command == "gb":
            return _run_gb(args)
        if args.command == "witness":
            if bool(args.example) == bool(args.job):
                parser.error("witness needs exactly one of --example or --job")
            return _run_witness(args)
    except (JobFileError, InputDataError, ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001  (exit 1 is reserved for a failed verification)
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INPUT
    parser.error("no command")


if __name__ == "__main__":
    sys.exit(main())
