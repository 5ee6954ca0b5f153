"""diagres benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload catalog-cold --seed 1 --seconds 30 --trace 0

Workloads (one client, closed loop, no threads; worker processes run one
at a time):

  catalog-cold  one operation is a fresh process running the CLI for
                ``verify --example affine-line``, ``nodal-conic`` and
                ``cycle --n N`` (N in 3..6 from the seed), all ``--report
                json``.  Every call pays the catalog build and the witness.
  job-stream    one operation is ``verify --job FILE --report json`` on a
                seeded, conjugated (and in a fixed share, mutated) export of
                a catalog entry: parsing, the d*d check and the verdict.
  gb-suite      one operation is ``buchberger`` on a seeded rank-1
                submodule followed by its membership checks, over Q and
                F_32003: the Gröbner engine and the term layer.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced phases of the same workload and prints the per-layer
metrics (per operation), the tracing overhead and the reconciliation of
layer self times against wall time.  Every output is checked; the last
stdout line is one JSON object, and the exit code is 1 if any check failed.
The seed fixes the inputs and PYTHONHASHSEED of every worker.  See
METRICS.md for the layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_PARENT = os.path.join(ROOT, ".bench_build")
RUN_BUDGET_S = 170.0       # every run ends within 180 s
SETUP_PROBES = 8           # extra set-ups per run, for a steadier median
TRACE_ALTERNATIONS = 2     # untraced/traced phase pairs in a traced run

sys.path.insert(0, HERE)
import tracer  # noqa: E402  (stdlib only; the program is imported by workers)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, seed: int, seconds: float, work: str):
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed % 2**32))
        self.layer_names: list = []  # per-layer metrics BENCHMARK.json declares
        self.problems: list = []   # descriptions of failed output checks
        self.notes: list = []      # lines printed before the result

    def worker(self, mode: str, *argv: str) -> tuple:
        """Run one worker; return (its result, start, end) on the monotonic clock."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, *argv]
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {mode} exceeded the run budget") from exc
        end = time.monotonic()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {mode} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        try:
            return json.loads(lines[-1]), start, end
        except json.JSONDecodeError as exc:
            raise BenchError(f"worker {mode} printed no result: {lines[-1][:200]}") from exc

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok


def p90(values) -> float:
    """90th percentile, interpolated linearly between samples."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def timing_metrics(run: Run, ops, setups, busy_s: float, rss: float) -> dict:
    """End-to-end metrics in reference seconds (see calib.py).

    `ops` and `setups` are (measured seconds, speed factor) pairs; `busy_s`
    is the measured time of the loop without its calibrations.  The
    unscaled figures are printed as a note.
    """
    def figures(scaled: bool) -> dict:
        lat = [t * f if scaled else t for t, f in ops]
        mean_factor = sum(lat) / sum(t for t, _ in ops)
        return {
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": p90(lat),
            "throughput_ops_per_s": len(lat) / (busy_s * mean_factor),
            "setup_s": statistics.median([s * f if scaled else s for s, f in setups]),
            "peak_rss_mb": rss,
        }

    raw, scaled = figures(False), figures(True)
    run.notes.append("unscaled wall time: " + ", ".join(
        f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb")
        + f"; speed factor {scaled['latency_p50_s'] / raw['latency_p50_s']:.3f}")
    return scaled


# ---------------------------------------------------------------------------
# catalog-cold


def _expected_digests() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)["report_sha256"]


def catalog_samples(run: Run, n: int, trace: bool) -> dict:
    """Fresh-process samples, one at a time, for run.seconds and at least
    three; in a traced run they alternate untraced and traced, at least two
    of each, so that both kinds see the same machine drift.  An untraced
    sample reports its speed factor and the time its calibration samples
    took, which is left out of its latency."""
    expected = _expected_digests()
    keys = ("ops", "setups", "rss", "reuse")
    phases = {flag: {k: [] for k in keys} for flag in (False, True)}
    spans = []
    failed = 0
    t0 = time.monotonic()
    calib_s = 0.0
    k = 0
    while time.monotonic() - t0 < run.seconds or k < (4 if trace else 3):
        traced = trace and k % 2 == 1
        argv = ["--n", str(n)]
        if traced:
            spans.append(os.path.join(run.work, f"catalog-{k}.spans"))
            argv += ["--spans", spans[-1]]
        res, start, end = run.worker("catalog", *argv)
        calib_s += res["calib_s"]
        phase = phases[traced]
        phase["ops"].append((end - start - res["calib_s"], res["factor"]))
        phase["setups"].append((res["ready"] - start, res["factor"]))
        phase["rss"].append(res["peak_rss_mb"])
        ok = True
        for ex in res["examples"]:
            name = ex["name"]
            ok &= run.check(ex["exit"] == 0, f"{name}: exit {ex['exit']}")
            ok &= run.check(ex["verdict"] == "pass", f"{name}: verdict {ex['verdict']}")
            ok &= run.check(ex["digest"] == expected.get(name),
                            f"{name}: report digest {ex['digest']} differs from "
                            f"the recorded {expected.get(name)}")
            if name.startswith("cycle"):
                ok &= run.check(ex["rdim_line"], f"{name}: no Rdim(D^bCoh(I_{n})) <= 1 line")
                phase["reuse"].append(ex["chart_reuse_ratio"])
        failed += not ok
        k += 1
    return {"base": phases[False], "traced": phases[True], "spans": spans,
            "failed": failed, "busy_s": time.monotonic() - t0 - calib_s, "ops": k}


def run_catalog_cold(run: Run, trace: bool):
    n = random.Random(run.seed).randint(3, 6)
    run.notes.append(f"catalog-cold: cycle n={n}")
    got = catalog_samples(run, n, trace)
    base, traced = got["base"], got["traced"]
    if not trace:
        setups = probe_setups(run, "catalog", ["--n", str(n)]) + base["setups"]
        metrics = timing_metrics(run, base["ops"], setups, got["busy_s"],
                                 statistics.median(base["rss"]))
        return metrics, got["ops"], got["failed"]
    layers = layer_metrics(run, got["spans"], sum(t for t, _ in traced["ops"]),
                           len(traced["ops"]), statistics.median(t for t, _ in base["ops"]),
                           statistics.median(t for t, _ in traced["ops"]),
                           {"catalog.chart_reuse_ratio": statistics.median(traced["reuse"])})
    return layers, got["ops"], got["failed"]


# ---------------------------------------------------------------------------
# job-stream


def _job_failures(run: Run, manifest: dict, records) -> int:
    expect = {j["file"]: j["expect"] for j in manifest["jobs"]}
    first_digest: dict = {}
    failed = 0
    for name, code, verdict, digest, input_error in records:
        want = expect[name]
        ok = run.check(code == want, f"{name}: exit {code}, expected {want}")
        if want == 2:
            ok &= run.check(verdict is None and input_error,
                            f"{name}: expected an input error and no report")
        else:
            want_verdict = "pass" if want == 0 else "fail"
            ok &= run.check(verdict == want_verdict, f"{name}: verdict {verdict}")
            first = first_digest.setdefault(name, digest)
            ok &= run.check(digest == first, f"{name}: report changed between repeats")
        failed += not ok
    return failed


def loop_phase(run: Run, mode: str, argv, seconds: float, spans=None) -> dict:
    """One closed-loop worker; traced if `spans` names a file for its spans."""
    args = list(argv) + ["--seconds", repr(seconds)]
    if spans:
        args += ["--spans", spans]
    res, start, _ = run.worker(mode, *args)
    res["setup"] = res["ready"] - start
    return res


def probe_setups(run: Run, mode: str, argv) -> list:
    """(set-up seconds, speed factor) of SETUP_PROBES fresh workers."""
    out = []
    for _ in range(SETUP_PROBES):
        res, start, _ = run.worker(mode, *argv, "--probe")
        out.append((res["ready"] - start, res["factor"]))
    return out


def run_job_stream(run: Run, trace: bool):
    jobs_dir = os.path.join(run.work, "jobs")
    os.makedirs(jobs_dir)
    gen, _, _ = run.worker("gen-jobs", "--seed", str(run.seed), "--dir", jobs_dir)
    with open(os.path.join(jobs_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    run.notes.append(f"job-stream: {gen['files']} files, input sha256 {gen['digest']}, "
                     f"generated in {gen['gen_s']:.2f} s")
    return _loop_workload(run, "jobs", ["--dir", jobs_dir], trace,
                          lambda res: _job_failures(run, manifest, res["records"]))


# ---------------------------------------------------------------------------
# gb-suite


def _gb_failures(run: Run, res) -> int:
    for k in res["failures"]:
        run.check(False, f"gb instance {k}: a generator or the combination is not a member")
    return len(res["failures"])


def _field_p50(res, field: str) -> float:
    values = [t * k for t, k, f in zip(res["latencies"], res["factors"], res["fields"])
              if f == field]
    return statistics.median(values) if values else 0.0


def run_gb_suite(run: Run, trace: bool):
    gen, _, _ = run.worker("gen-gb", "--seed", str(run.seed), "--dir", run.work)
    run.notes.append(f"gb-suite: input sha256 {gen['digest']}")
    return _loop_workload(run, "gb", ["--dir", run.work], trace,
                          lambda res: _gb_failures(run, res),
                          lambda res: {"gb.q.latency_p50_s": _field_p50(res, "q"),
                                       "gb.fp.latency_p50_s": _field_p50(res, "fp")})


def _merge(results) -> dict:
    """Concatenate the per-operation lists of several loop phases."""
    out = {"latencies": [], "factors": [], "records": [], "fields": [], "failures": []}
    for res in results:
        for key in out:
            out[key].extend(res.get(key, []))
    return out


def _loop_workload(run: Run, mode: str, argv, trace: bool, failures,
                   extra=lambda res: {}):
    """One closed-loop worker for run.seconds, or alternating phases if traced."""
    if not trace:
        setups = probe_setups(run, mode, argv)
        res = loop_phase(run, mode, argv, run.seconds)
        setups.append((res["setup"], res["factors"][0]))
        metrics = timing_metrics(run, list(zip(res["latencies"], res["factors"])), setups,
                                 res["loop_s"] - res["calib_s"], res["peak_rss_mb"])
        return metrics, len(res["latencies"]), failures(res)
    # Untraced and traced phases alternate, each from the start of the
    # inputs, so that both see the same inputs and the same machine drift.
    phases = {False: [], True: []}
    spans = []
    for i in range(TRACE_ALTERNATIONS):
        spans.append(os.path.join(run.work, f"{mode}-{i}.spans"))
        for path in (None, spans[-1]):
            res = loop_phase(run, mode, argv, run.seconds / (2 * TRACE_ALTERNATIONS), path)
            phases[path is not None].append(res)
    base, traced = _merge(phases[False]), _merge(phases[True])
    # Phase i of both kinds runs the same inputs in the same order; compare
    # the operations both reached.
    paired = {False: [], True: []}
    for u, t in zip(phases[False], phases[True]):
        m = min(len(u["latencies"]), len(t["latencies"]))
        paired[False] += u["latencies"][:m]
        paired[True] += t["latencies"][:m]
    layers = layer_metrics(run, spans, sum(traced["latencies"]), len(traced["latencies"]),
                           statistics.median(paired[False]),
                           statistics.median(paired[True]), extra(base))
    ops = len(base["latencies"]) + len(traced["latencies"])
    return layers, ops, failures(base) + failures(traced)


# ---------------------------------------------------------------------------
# per-layer metrics

BUILDS = ["catalog.build_affine_line", "catalog.build_nodal_conic",
          "catalog.build_nodal_conic_product", "catalog.build_cycle"]
VERIFIES = ["catalog.verify_entry", "catalog.verify_chart_jobs"]


def layer_metrics(run: Run, span_files, wall: float, ops: int, base_p50: float,
                  traced_p50: float, extra=None) -> dict:
    """Per-layer metrics of a traced phase, for every name BENCHMARK.json
    declares.  A name <span>.<calls|busy_s|self_s> is read from the spans,
    per operation; the others are derived below or given in `extra`, and
    are 0 on a workload that does not exercise them."""
    agg = tracer.Aggregate()
    for path in span_files:
        agg.add(path)
    unattributed, ok = agg.reconcile(wall)
    run.check(ok, f"trace reconciliation failed: layers {agg.layer_self_time():.6f} s, "
                  f"wall {wall:.6f} s, {agg.nesting_errors} nesting errors")
    run.notes.append(
        f"reconciliation {'ok' if ok else 'FAILED'}: layer self {agg.layer_self_time():.3f} s "
        f"+ unattributed {unattributed:.3f} s = wall {wall:.3f} s over {ops} traced ops "
        f"(unattributed share {unattributed / wall:.3f})")
    if agg.missing:
        run.notes.append("trace targets missing: " + ", ".join(sorted(agg.missing)))
    build = sum(agg.busy.get(n, 0.0) for n in BUILDS)
    verify = sum(agg.busy.get(n, 0.0) for n in VERIFIES)
    derived = {
        "catalog.build.calls": sum(agg.calls.get(n, 0) for n in BUILDS) / ops,
        "catalog.build.busy_s": build / ops,
        "catalog.build_to_verify_ratio": build / verify if verify else 0.0,
        "catalog.chart_reuse_ratio": 0.0,
        "groebner.buchberger.basis_size_p50": agg.observed_median("groebner.buchberger.basis_size"),
        "complexes.minimize.rank_in": agg.observed_mean("complexes.minimize.rank_in"),
        "complexes.minimize.rank_out": agg.observed_mean("complexes.minimize.rank_out"),
        "gb.q.latency_p50_s": 0.0,
        "gb.fp.latency_p50_s": 0.0,
        "trace.overhead_ratio": traced_p50 / base_p50,
        "trace.unattributed_share": unattributed / wall,
        "trace.reconciled": 1.0 if ok else 0.0,
        "trace.missing_targets": float(len(agg.missing)),
    }
    derived.update(extra or {})
    stats = {"calls": agg.calls, "busy_s": agg.busy, "self_s": agg.self_time}
    out = {}
    for name in run.layer_names:
        if name in derived:
            out[name] = derived[name]
        else:
            span, _, stat = name.rpartition(".")
            out[name] = stats[stat].get(span, 0) / ops
    return out


# ---------------------------------------------------------------------------

WORKLOADS = {
    "catalog-cold": run_catalog_cold,
    "job-stream": run_job_stream,
    "gb-suite": run_gb_suite,
}


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def warm_bytecode(run: Run):
    """Compile the program once, as an installed package would be, so that
    no timed process pays for writing bytecode."""
    code = "import diagres.cli, diagres.catalog, inputs, tracer"
    subprocess.run([sys.executable, "-c", code], cwd=HERE, env=run.env, check=True,
                   capture_output=True, timeout=120)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diagres", "__init__.py")):
        print(f"error: no diagres sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    os.makedirs(WORK_PARENT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_PARENT)
    run = Run(args.seed, args.seconds, work)
    run.layer_names = list(units) if args.trace else []
    try:
        warm_bytecode(run)
        metrics, attempted, failed = WORKLOADS[args.workload](run, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 2
    for note in run.notes:
        print(note)
    for problem in run.problems[:50]:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload}: {attempted} operations, failed_ratio "
          f"{failed / attempted:.4f} ratio")
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = not run.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
