"""Command-line front end.

Subcommands::

    diagres verify --example {affine-line | nodal-conic | cycle} [--n N]
                   [--chart I,J] [--field q|fp:P] [--report text|json]
    diagres verify --job PATH [--field ...] [--report ...]
    diagres gb --job PATH [--report ...]
    diagres witness --example ... | --job PATH

Both ``--example`` subcommands read one table, ``catalog.EXAMPLES``;
``--n`` (default 3) and ``--chart`` apply to the cycle alone, and never to
``--job``.  Every report is built in ``report``; this module dispatches and
emits.  One driver, ``report.verdict_report``, makes the verdict report of
every catalog entry, cycle chart and job file; ``catalog.verify_chart_jobs``
runs it on the entries of every example.

Start-up: this module imports the verdict code and no catalog build code.
``catalog`` is imported by the ``--example`` paths and ``jobio`` by the
three ``--job`` paths, each inside the function that needs it, so that a
run pays only for what it reads; ``JobFileError`` lives in ``_terms`` so
that every path can catch it.

Exit codes: 0 verification passed, 1 verification failed, 2 input or parse
error, or an internal error (one "internal error:" line on stderr, never a
traceback, so that exit 1 always means a failed verification).  JSON
reports are deterministic byte for byte except for the timing field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from ._terms import InputDataError, JobFileError
from .groebner import Submodule, buchberger
from .polyring import ParseError
from .report import (VerificationEntry, VerificationReport, combined_report, verdict_report,
                     witness_report)
from .scalars import field_from_spec, field_spec_str

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _emit(report: VerificationReport, args) -> int:
    if args.report == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return EXIT_PASS if report.passed else EXIT_FAIL


def _example(args):
    """(the catalog example args name, over args' field; the field's spec)."""
    from . import catalog

    build, default_n = catalog.EXAMPLES[args.example]
    if default_n is None and (args.n is not None or getattr(args, "chart", None)):
        raise JobFileError(f"--n and --chart do not apply to {args.example}")
    try:
        fld = field_from_spec(args.field or "q")
    except ValueError as exc:
        raise JobFileError(str(exc))
    return build(fld, default_n if args.n is None else args.n), field_spec_str(fld)


def _verify_example(args) -> int:
    from . import catalog

    t0 = time.time()
    ex, fname = _example(args)
    entries = ex.entries()
    if args.chart:
        try:
            ci, cj = (int(t) for t in args.chart.split(","))
        except ValueError:
            raise JobFileError(f"bad --chart {args.chart!r}, expected I,J")
        entries = [e for e in entries if e.chart == (ci, cj)]
        if not entries:
            raise JobFileError(f"no chart ({ci},{cj}) in {ex.title}")
    subreports = catalog.verify_chart_jobs(entries)
    if not args.chart:
        subreports.append(witness_report(ex.witness, f"{ex.title}:witness", fname))
    top = combined_report(ex.title, fname, subreports, ex.notes)
    top.timing_seconds = time.time() - t0
    return _emit(top, args)


def _verify_job(args) -> int:
    """The diagonal's complex against the diagonal, or under exact_everywhere
    every complex; several complexes report as one job whose verdict fails
    if one of theirs does."""
    from .jobio import load_job

    t0 = time.time()
    job = load_job(args.job, args.field)
    if not job.complexes:
        raise JobFileError("no complex to verify at complexes")
    names = list(job.complexes)
    if job.expectation != "exact_everywhere":
        # A gb or witness job may omit the diagonal; verify may not.
        if job.diagonal is None:
            raise JobFileError("verify needs a diagonal block: missing key 'diagonal' at $")
        names = [job.diagonal_complex or names[0]]
    reports = [verdict_report(VerificationEntry(
        f"{job.name}:{name}", job.ring, job.complexes[name], job.diagonal,
        expectation=job.expectation, window=job.diagonal.window if job.diagonal else None,
        truncation_note="truncated model: verdict claimed in window {}")) for name in names]
    if len(reports) == 1:
        return _emit(reports[0], args)
    top = combined_report(job.name, field_spec_str(job.ring.field), reports)
    top.timing_seconds = time.time() - t0
    return _emit(top, args)


def _run_gb(args) -> int:
    from .jobio import load_job

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
    if args.example:
        ex, fname = _example(args)
        return _emit(witness_report(ex.witness, f"{ex.title}:witness", fname), args)
    from .jobio import load_job

    job = load_job(args.job, args.field)
    if job.witness is None:
        raise JobFileError("job has no witness block")
    if job.diagonal is None:
        raise JobFileError("witness needs a diagonal block: missing key 'diagonal' at $")
    return _emit(witness_report(job.witness, f"{job.name}:witness",
                                 field_spec_str(job.ring.field)), args)


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
    pv.add_argument("--n", type=int, help="cycle length (default 3)")
    pv.add_argument("--chart", help="restrict the cycle run to one chart: I,J")
    common(pv)

    pg = sub.add_parser("gb", help="reduced Gröbner basis of a job-file module")
    pg.add_argument("--job", required=True)
    common(pg)

    pw = sub.add_parser("witness", help="check a generation-time witness")
    pw.add_argument("--example", choices=("affine-line", "nodal-conic", "cycle"))
    pw.add_argument("--job")
    pw.add_argument("--n", type=int, help="cycle length (default 3)")
    common(pw)
    return parser


# The parser, built on first call and kept for the process: parsing does not
# change it, and each parse_args call returns a fresh Namespace.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gb":
            return _run_gb(args)
        if bool(args.example) == bool(args.job):
            parser.error(f"{args.command} needs exactly one of --example or --job")
        if args.job and (args.n is not None or getattr(args, "chart", None)):
            raise JobFileError("--n and --chart apply only to --example")
        if args.command == "witness":
            return _run_witness(args)
        return _verify_example(args) if args.example else _verify_job(args)
    except (JobFileError, InputDataError, ParseError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001  (exit 1 is reserved for a failed verification)
        msg = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
