"""One benchmark worker process; ``run.py`` starts it and reads its last
stdout line, a JSON object.

Modes:
  catalog --n N          one catalog-cold operation: three CLI calls
  gen-jobs --seed S      write the job-stream inputs into --dir
  jobs                   closed loop over the job files listed in --dir
  gen-gb --seed S        write the gb-suite inputs into --dir
  gb                     closed loop over the Gröbner instances in --dir

Set-up timing: the worker reports ``ready``, the CLOCK_MONOTONIC reading at
which its set-up ended, and the parent subtracts its own reading taken just
before it started the process.  ``--probe`` stops a mode right after
set-up.  ``--spans PATH`` installs the tracer and writes the spans to PATH
at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import time
import traceback


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _strip(node):
    """Drop the fields outside the report's determinism guarantee."""
    if isinstance(node, dict):
        return {k: _strip(v) for k, v in node.items()
                if k not in ("timing_seconds", "stats")}
    if isinstance(node, list):
        return [_strip(v) for v in node]
    return node


def report_digest(text: str):
    """(verdict, digest of the timing-stripped report) of a JSON report, or
    (None, None) if there is no report to read."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None, None
    if not isinstance(doc, dict):
        return None, None
    canon = json.dumps(_strip(doc), sort_keys=True)
    return doc.get("verdict"), hashlib.sha256(canon.encode()).hexdigest()


def _call_cli(argv):
    """(exit code, stdout, stderr) of diagres.cli.main, looked up per call so
    that a traced run sees the wrapper.  A crash is an operation's outcome,
    to be counted as failed, so it is recorded rather than raised."""
    import diagres.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = diagres.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001
            code = None
            traceback.print_exc()
    return code, out.getvalue(), err.getvalue()


def _tracer(args):
    if not args.spans:
        return None
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    return tracer


def _op_span(tracer):
    """The root span of one operation in a traced run."""
    return tracer.span("op") if tracer else contextlib.nullcontext()


def _sampler(tracer):
    """Calibration samples for an untraced run; a traced run reports raw
    times and keeps the samples out of its spans."""
    import calib

    return contextlib.nullcontext() if tracer else calib.Sampler()


def _timed(sampler, tracer, operation):
    """(result, seconds without calibration samples, speed factor)."""
    t0 = time.perf_counter()
    with _op_span(tracer):
        result = operation()
    t1 = time.perf_counter()
    if sampler is None:
        return result, t1 - t0, 1.0
    speed, cost = sampler.stretch(t0, t1)
    return result, t1 - t0 - cost, speed


def _finish(args, tracer, result):
    if tracer is not None:
        tracer.dump(args.spans)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))


def _probe(args, ready):
    """End a set-up probe: report when set-up ended and the machine speed."""
    import calib

    _finish(args, None, {"ready": ready, "factor": calib.factor(calib.calibrate())})


def _chart_reuse_ratio(doc) -> float:
    charts = [s for s in doc.get("subreports", []) if s["name"].startswith("chart(")]
    shared = [s for s in charts
              if any(n.startswith("verdict shared with") for n in s.get("notes", []))]
    return len(shared) / len(charts) if charts else 0.0


def run_catalog(args):
    import diagres.cli  # noqa: F401  (set-up: the import a CLI user pays)

    tracer = _tracer(args)
    ready = time.monotonic()
    if args.probe:
        return _probe(args, ready)
    calls = [("affine-line", ["verify", "--example", "affine-line"]),
             ("nodal-conic", ["verify", "--example", "nodal-conic"]),
             (f"cycle-{args.n}", ["verify", "--example", "cycle", "--n", str(args.n)])]
    with _sampler(tracer) as sampler:
        outputs, _, speed = _timed(sampler, tracer, lambda: [
            (name,) + _call_cli(argv + ["--report", "json"]) for name, argv in calls])
    result = {"ready": ready, "examples": [], "factor": speed,
              "calib_s": sum(sampler.costs) if sampler else 0.0}
    for name, code, out, _ in outputs:
        verdict, digest = report_digest(out)
        entry = {"name": name, "exit": code, "verdict": verdict, "digest": digest}
        if name.startswith("cycle"):
            entry["rdim_line"] = f"Rdim(D^bCoh(I_{args.n})) <= 1" in out
            entry["chart_reuse_ratio"] = _chart_reuse_ratio(json.loads(out)) if digest else 0.0
        result["examples"].append(entry)
    _finish(args, tracer, result)


def run_gen_jobs(args):
    import inputs

    t0 = time.monotonic()
    manifest = inputs.write_jobs(args.seed, args.dir)
    print(json.dumps({"digest": manifest["digest"], "files": len(manifest["jobs"]),
                      "gen_s": time.monotonic() - t0}))


def run_jobs(args):
    import diagres.cli  # noqa: F401

    with open(os.path.join(args.dir, "manifest.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)["jobs"]
    argvs = [["verify", "--job", os.path.join(args.dir, j["file"]), "--report", "json"]
             for j in jobs]
    tracer = _tracer(args)
    ready = time.monotonic()
    if args.probe:
        return _probe(args, ready)
    latencies, factors, records = [], [], []
    deadline = ready + args.seconds
    k = 0
    with _sampler(tracer) as sampler:
        # Stop only after a whole round of files, so that every run times
        # the same mix of sources and outcomes, whatever its speed.
        while time.monotonic() < deadline or k % len(jobs):
            job = jobs[k % len(jobs)]
            (code, out, err), seconds, speed = _timed(
                sampler, tracer, lambda: _call_cli(argvs[k % len(jobs)]))
            latencies.append(seconds)
            factors.append(speed)
            verdict, digest = report_digest(out)
            records.append([job["file"], code, verdict, digest, "input error" in err])
            k += 1
        loop_s = time.monotonic() - ready
    _finish(args, tracer, {"ready": ready, "latencies": latencies, "factors": factors,
                           "records": records, "loop_s": loop_s,
                           "calib_s": sum(sampler.costs) if sampler else 0.0})


def _poly(rng, terms):
    p = rng.zero()
    for c, exps in terms:
        p = p + rng.const(c).shift(tuple(exps))
    return p


def _gb_instances(path):
    """Endless stream of instances from the JSON-lines file."""
    while True:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                yield json.loads(line)


def run_gen_gb(args):
    import inputs

    print(json.dumps({"digest": inputs.write_gb(args.seed, os.path.join(args.dir, "gb.jsonl"))}))


def run_gb(args):
    import inputs

    rings = inputs.gb_rings()
    stream = _gb_instances(os.path.join(args.dir, "gb.jsonl"))
    tracer = _tracer(args)
    ready = time.monotonic()
    if args.probe:
        return _probe(args, ready)
    latencies, factors, fields, failures = [], [], [], []
    deadline = ready + args.seconds
    k = 0
    with _sampler(tracer) as sampler:
        while time.monotonic() < deadline:
            which, gens, mults = next(stream)
            rng = rings[which]
            polys = [_poly(rng, g) for g in gens]
            polys = [p for p in polys if not p.is_zero()] or [rng.one()]
            comb = rng.zero()
            for p, (c, exps) in zip(polys, mults):
                comb = comb + rng.const(c).shift(tuple(exps)) * p
            ok, seconds, speed = _timed(sampler, tracer, lambda: _gb_op(rng, polys, comb))
            latencies.append(seconds)
            factors.append(speed)
            fields.append(inputs.GB_RINGS[which][0])
            if not ok:
                failures.append(k)
            k += 1
        loop_s = time.monotonic() - ready
    _finish(args, tracer, {"ready": ready, "latencies": latencies, "factors": factors,
                           "fields": fields, "failures": failures, "loop_s": loop_s,
                           "calib_s": sum(sampler.costs) if sampler else 0.0})


def _gb_op(rng, polys, comb) -> bool:
    """Basis of the submodule, then its membership checks; False if a check
    fails or the program raises.  Functions are looked up per call, so a
    traced run sees the wrappers."""
    from diagres import groebner

    try:
        sub = groebner.Submodule(rng, 1, [(p,) for p in polys])
        gb = sub.groebner()
        if not all(groebner.normal_form((p,), gb)[0].is_zero() for p in polys):
            return False
        return groebner.member((comb,), sub)
    except Exception:  # noqa: BLE001  (a crash is a failed operation)
        traceback.print_exc()
        return False


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("catalog", "gen-jobs", "jobs", "gen-gb", "gb"))
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--dir", default=".")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    {"catalog": run_catalog, "gen-jobs": run_gen_jobs, "jobs": run_jobs,
     "gen-gb": run_gen_gb, "gb": run_gb}[args.mode](args)


if __name__ == "__main__":
    main()
