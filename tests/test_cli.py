"""CLI surface: subcommands, exit codes, job files, report determinism."""

import ast
import copy
import functools
import hashlib
import importlib.util
import inspect
import json
import operator
import re
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diagres.cli import main
from diagres.complexes import ChainComplex
from diagres.jobio import (MAX_DEGREE, MAX_RANK, JobFileError, emit_job, job_document, parse_complex,
                           parse_job, ring_to_dict)
from diagres.matrices import Matrix
from diagres.polyring import MAX_EXPONENT, ring
from diagres.scalars import field_from_spec

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_affine_line(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "affine-line")
    assert code == 0
    assert "affine-line: PASS" in out
    assert "Rouquier dimension <= 1" in out


def test_verify_affine_line_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "affine-line",
                           "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_json_report_determinism(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--example", "affine-line",
                         "--report", "json")
    _, out2, _ = run_cli(capsys, "verify", "--example", "affine-line",
                         "--report", "json")
    assert _strip_unpinned(json.loads(out1)) == _strip_unpinned(json.loads(out2))


def test_verify_cycle_chart_filter(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "cycle", "--n", "3",
                           "--chart", "1,2")
    assert code == 0
    assert "chart(1,2):adjacent: PASS" in out
    assert "chart(1,1)" not in out


def test_verify_cycle_n4_has_sixteen_chart_reports(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "cycle", "--n", "4",
                           "--report", "json")
    assert code == 0
    doc = json.loads(out)
    charts = [s for s in doc["subreports"] if s["name"].startswith("chart(")]
    assert len(charts) == 16
    assert all(s["verdict"] == "pass" for s in doc["subreports"])
    kinds = [s["name"].split(":")[1] for s in charts]
    assert kinds.count("diagonal") == 4
    assert kinds.count("adjacent") == 8
    assert kinds.count("distant") == 4


def test_verify_cycle_bad_chart(capsys):
    # --n and --chart name a cycle's length and chart; no other example has one.
    for argv in (("cycle", "--n", "3", "--chart", "9,9"),
                 ("cycle", "--chart", "1,2,3"),
                 ("affine-line", "--chart", "1,2"),
                 ("nodal-conic", "--chart", "1,1"),
                 ("affine-line", "--n", "3"),
                 ("nodal-conic", "--n", "4")):
        code, out, err = run_cli(capsys, "verify", "--example", *argv)
        assert (code, out) == (2, "") and "input error" in err, argv
    code, out, err = run_cli(capsys, "witness", "--example", "nodal-conic", "--n", "3")
    assert (code, out) == (2, "") and "input error" in err


def test_verify_cycle_above_max_length_is_input_error(capsys):
    from diagres.catalog.entries import MAX_CYCLE_N
    code, out, err = run_cli(capsys, "verify", "--example", "cycle",
                             "--n", str(MAX_CYCLE_N + 1))
    assert (code, out) == (2, "") and f"above the maximum {MAX_CYCLE_N}" in err


def test_field_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--example", "affine-line",
                           "--field", "fp:32003")
    assert code == 0
    assert "[fp:32003]" in out


def test_field_flag_overrides_job_field(tmp_path, capsys):
    doc = {
        "schema": 1,
        "ring": {"variables": ["x1", "x2"], "field": "q"},
        "complexes": [{"name": "total", "ranks": {"0": 1, "1": 1},
                       "differentials": {"1": [["x1-x2"]]}}],
        "diagonal": {"ideal": ["x1-x2"], "degree": 0, "augmentation": ["1"]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--job", str(path),
                           "--field", "fp:32003")
    assert code == 0 and "fp:32003" in out
    code, out, _ = run_cli(capsys, "verify", "--job", str(path))
    assert code == 0 and "[q]" in out


def test_field_above_word_size_gives_q_verdicts(capsys):
    def verdicts(field):
        code, out, _ = run_cli(capsys, "verify", "--example", "affine-line",
                               "--field", field, "--report", "json")
        assert code == 0
        subs = json.loads(out)["subreports"]
        return [(s["verdict"], [(c["condition"], c["degree"], c["passed"])
                                for c in s["conditions"]]) for s in subs]

    assert verdicts("fp:18446744073709551557") == verdicts("q")


def test_verify_job_file_pass(tmp_path, capsys):
    doc = {
        "schema": 1,
        "name": "hand-diagonal",
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{
            "name": "total",
            "ranks": {"0": 1, "1": 1},
            "differentials": {"1": [["x1-x2"]]},
        }],
        "diagonal": {"complex": "total", "ideal": ["x1-x2"], "degree": 0,
                     "augmentation": ["1"]},
        "expectation": "qiso_to_diagonal",
    }
    path = tmp_path / "job.json"
    path.write_text(emit_job(doc))
    code, out, _ = run_cli(capsys, "verify", "--job", str(path))
    assert code == 0 and "PASS" in out


def test_verify_job_file_fail(tmp_path, capsys):
    doc = {
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{
            "name": "total",
            "ranks": {"0": 1, "1": 1},
            "differentials": {"1": [["x1-x2"]]},
        }],
        "diagonal": {"ideal": ["x1+x2"], "degree": 0, "augmentation": ["1"]},
    }
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--job", str(path))
    assert code == 1 and "FAIL" in out


def test_corrupt_job_is_input_error(tmp_path, capsys):
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "t", "ranks": {"0": 1, "1": 1},
                       "differentials": {"1": [["x1 **"]]}}],
        "diagonal": {"ideal": ["x1-x2"], "degree": 0, "augmentation": ["1"]},
    }))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and "input error" in err
    path2 = tmp_path / "notjson.json"
    path2.write_text("{")
    code, _, err = run_cli(capsys, "verify", "--job", str(path2))
    assert code == 2


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")],
                         ids=["arrays", "objects"])
def test_deeply_nested_job_is_input_error(tmp_path, capsys, opening, closing):
    """The JSON decoder gives up on deep nesting with a RecursionError: the
    job is an input error at $, not an internal error."""
    depth = 100_000
    path = tmp_path / "nested.json"
    path.write_text(opening * depth + "0" + closing * depth)
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and out == ""
    assert "input error:" in err and "internal error" not in err
    assert "nested too deeply at $" in err


def test_job_with_broken_differential_is_input_error(tmp_path, capsys):
    path = tmp_path / "badsq.json"
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "t", "ranks": {"0": 1, "1": 2, "2": 1},
                       "differentials": {"1": [["x1", "x2"]],
                                         "2": [["x2"], ["x1"]]}}],
        "diagonal": {"ideal": ["x1-x2"], "degree": 0, "augmentation": ["1"]},
    }))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2


def test_verify_job_exact_everywhere(tmp_path, capsys):
    doc = {
        "schema": 1,
        "name": "koszul-tail",
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{
            "name": "total",
            "ranks": {"1": 2, "2": 1},
            "differentials": {"2": [["x2"], ["-x1"]]},
        }],
        "expectation": "exact_everywhere",
    }
    path = tmp_path / "exact.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--job", str(path))
    assert code == 1  # kernel of the top map is nonzero in degree 1... checked
    doc["complexes"][0] = {"name": "total", "ranks": {"0": 1, "1": 1},
                           "differentials": {"1": [["1"]]}}
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--job", str(path))
    assert code == 0 and "PASS" in out


def _unit_job(window):
    """k in degree 0 over k[x], with no differential, under exact_everywhere
    in the given diagonal window: H_0 = k is not zero."""
    return {"schema": 1, "ring": {"variables": ["x"]},
            "complexes": [{"name": "c", "ranks": {"0": 1}}],
            "diagonal": {"ideal": ["x"], "degree": 0, "augmentation": ["1"],
                         "window": window},
            "expectation": "exact_everywhere"}


def test_inverted_window_is_input_error(tmp_path, capsys):
    """A window [lo, hi] with lo > hi holds no degree, so exactness in it
    would pass with no condition checked."""
    path = tmp_path / "window.json"
    path.write_text(json.dumps(_unit_job([0, 0])))
    assert run_cli(capsys, "verify", "--job", str(path))[0] == 1
    path.write_text(json.dumps(_unit_job([3, -1])))
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert (code, out) == (2, "")
    assert "expected lo <= hi at diagonal.window, got [3, -1]" in err


@pytest.mark.parametrize("names, where", [(["c", "c"], "complexes[1].name"),
                                          (["complex1", None], "complexes[1]")],
                         ids=["named", "default"])
def test_repeated_complex_name_is_input_error(tmp_path, capsys, names, where):
    """A second complex of one name would replace the first unchecked: here
    the first alone fails exact_everywhere and the second passes."""
    complexes = [{"ranks": {"0": 1}},
                 {"ranks": {"0": 1, "1": 1}, "differentials": {"1": [["1"]]}}]
    for cd, name in zip(complexes, names):
        if name is not None:
            cd["name"] = name
    path = tmp_path / "names.json"
    path.write_text(json.dumps({"schema": 1, "ring": {"variables": ["x"]},
                                "complexes": complexes, "expectation": "exact_everywhere"}))
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert (code, out) == (2, "")
    assert err.strip().endswith(f"repeated complex name {names[0]!r} at {where}")


def _good_and_bad_job():
    """Two complexes over k[x]/(x^2): d_1 = 1 is exact, d_1 = x is not."""
    return {"schema": 1, "name": "job",
            "ring": {"variables": ["x"], "relations": ["x^2"]},
            "complexes": [
                {"name": "good", "ranks": {"0": 1, "1": 1}, "differentials": {"1": [["1"]]}},
                {"name": "bad", "ranks": {"0": 1, "1": 1}, "differentials": {"1": [["x"]]}}],
            "expectation": "exact_everywhere"}


def test_exact_everywhere_job_verifies_every_complex(tmp_path, capsys):
    """The job fails if any complex fails, and the report names each one; a
    single-complex job still reports that complex alone."""
    path = tmp_path / "two.json"
    path.write_text(json.dumps(_good_and_bad_job()))
    code, out, _ = run_cli(capsys, "verify", "--job", str(path), "--report", "json")
    assert code == 1
    doc = json.loads(out)
    assert (doc["name"], doc["verdict"]) == ("job", "fail")
    assert [(s["name"], s["verdict"]) for s in doc["subreports"]] == [
        ("job:good", "pass"), ("job:bad", "fail")]
    code, out, _ = run_cli(capsys, "verify", "--job", str(path))
    assert code == 1 and "job:bad: FAIL" in out
    for keep in ("good", "bad"):
        single = _good_and_bad_job()
        single["complexes"] = [c for c in single["complexes"] if c["name"] == keep]
        path.write_text(json.dumps(single))
        code, out, _ = run_cli(capsys, "verify", "--job", str(path), "--report", "json")
        doc = json.loads(out)
        assert (code, doc["name"], "subreports" in doc) == (int(keep == "bad"), f"job:{keep}",
                                                            False)


def test_a_reused_parser_gives_a_fresh_namespace_and_exit_2(capsys):
    from diagres.cli import _parser
    assert _parser() is _parser()
    first = _parser().parse_args(["verify", "--example", "cycle", "--n", "5"])
    second = _parser().parse_args(["verify", "--example", "affine-line"])
    assert first is not second and (first.n, second.n) == (5, None)
    for argv in (["verify"], ["verify", "--example", "affine-line", "--job", "x"], ["gb"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert run_cli(capsys, "verify", "--example", "affine-line")[0] == 0


def _wide_term(nvars: int) -> str:
    """A monomial of degree nvars * MAX_EXPONENT, every exponent at the bound."""
    return "*".join(f"v{i}^{MAX_EXPONENT}" for i in range(nvars))


@pytest.mark.parametrize("diffs", [
    {"1": [["m"]], "2": [["m"]]},               # d*d = m^2, checked when parsed
    {"1": [["1", "m"], ["m", "0"]]},            # minimize's Schur update forms m^2
])
def test_job_whose_product_passes_the_packed_field_exits_2(tmp_path, capsys, diffs):
    """64 exponents at MAX_EXPONENT make a term of degree (FIELD_MAX + 1) / 2;
    its square does not fit a packed term, and the job is an input error
    rather than a verdict on a wrapped term."""
    from diagres._terms import FIELD_MAX
    nvars = (FIELD_MAX + 1) // 2 // MAX_EXPONENT
    m = _wide_term(nvars)
    ranks = {"0": 2, "1": 2} if "2" not in diffs else {"0": 1, "1": 1, "2": 1}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "schema": 1, "ring": {"variables": [f"v{i}" for i in range(nvars)]},
        "complexes": [{"name": "c", "ranks": ranks, "differentials": {
            k: [[m if e == "m" else e for e in row] for row in rows]
            for k, rows in diffs.items()}}],
        "expectation": "exact_everywhere"}))
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert (code, out) == (2, "") and "above the largest degree" in err


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_conic_job_under_a_permuted_lex_order_verifies_and_its_mutations_fail(
        tmp_path, capsys, spec):
    """The exported nodal-conic job, re-declared under lex with a permuted
    priority, still passes, and each documented mutation still fails.  The
    constant monomial packs to 0 under lex and not under grevlex, so the
    unit tests of minimize run both ways."""
    from diagres.catalog import build_nodal_conic
    from diagres.catalog.mutations import apply_mutation, documented_mutations
    entry = build_nodal_conic(field_from_spec(spec))
    lex = {"kind": "lex", "priority": [2, 0, 3, 1]}

    def run(cx, dspec):
        doc = job_document(entry.name, entry.ring, cx, dspec)
        doc["ring"]["order"] = lex
        path = tmp_path / "conic.json"
        path.write_text(emit_job(doc))
        return run_cli(capsys, "verify", "--job", str(path), "--report", "json")[0]

    assert entry.ring.one_key != 0
    assert parse_job(json.loads(emit_job({**job_document(
        entry.name, entry.ring, entry.complex, entry.diagonal),
        "ring": {**ring_to_dict(entry.ring), "order": lex}}))).ring.one_key == 0
    assert run(entry.complex, entry.diagonal) == 0
    for mutation in documented_mutations("nodal-conic"):
        cx, dspec = apply_mutation(entry.complex, entry.diagonal, mutation)
        assert run(cx, dspec) == (2 if mutation.kind == "differential" else 1), mutation.name


def test_exact_everywhere_job_with_zero_blocks_is_fast(tmp_path, capsys):
    """Missing differentials are zero blocks: homology builds no dense zero
    matrix, so large declared ranks answer quickly with the same verdicts."""
    n = 1600
    doc = {
        "schema": 1,
        "name": "zero-blocks",
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "total", "ranks": {"0": n, "1": n, "2": n}}],
        "expectation": "exact_everywhere",
    }
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--job", str(path), "--report", "json")
    elapsed = time.perf_counter() - t0
    assert code == 1
    verdicts = [(c["degree"], c["passed"]) for c in json.loads(out)["conditions"]]
    assert verdicts == [(-1, True), (0, False), (1, False), (2, False), (3, True)]
    assert elapsed < 2.0


def _ranks_job(path, n):
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"], "relations": ["x1*x2", "x1^2", "x2^2"]},
        "complexes": [{"name": "total", "ranks": {"0": n, "1": n}}],
        "expectation": "exact_everywhere",
    }))
    return str(path)


def test_declared_rank_at_the_bound_is_accepted(tmp_path, capsys):
    """Ranks-only at the bound, over a ring with relations: the relation
    generators j*e_i are built as term dicts, never as dense vectors."""
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--job", _ranks_job(tmp_path / "at.json", MAX_RANK),
                           "--report", "json")
    assert code == 1
    assert [c["passed"] for c in json.loads(out)["conditions"]] == [True, False, False, True]
    assert time.perf_counter() - t0 < 5.0


def test_ranks_only_job_at_both_bounds_is_answered_directly(tmp_path, capsys):
    """MAX_RANK in every degree from -MAX_DEGREE to MAX_DEGREE and no
    differential: each homology is (R/J)^MAX_RANK, nonzero since J is not the
    unit ideal, and is answered without a rank-MAX_RANK basis."""
    path = tmp_path / "both.json"
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"], "relations": ["x1*x2", "x1^2", "x2^2"]},
        "complexes": [{"name": "total", "ranks": {str(k): MAX_RANK for k in
                                                  range(-MAX_DEGREE, MAX_DEGREE + 1)}}],
        "expectation": "exact_everywhere",
    }))
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--job", str(path), "--report", "json")
    assert code == 1
    assert ([c["passed"] for c in json.loads(out)["conditions"]]
            == [True] + [False] * (2 * MAX_DEGREE + 1) + [True])
    assert time.perf_counter() - t0 < 2.0


def test_declared_rank_above_the_bound_is_input_error(tmp_path, capsys):
    path = _ranks_job(tmp_path / "above.json", MAX_RANK + 1)
    code, out, err = run_cli(capsys, "verify", "--job", path)
    assert code == 2 and out == ""
    assert f"rank {MAX_RANK + 1} above the maximum {MAX_RANK} at complexes[0].ranks.0" in err


def _degree_job(where, k):
    """The diagonal job of x1 - x2 with k written as a degree at `where`;
    returns the document and the JSON path that names k."""
    doc = {
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "total", "ranks": {"0": 1, "1": 1},
                       "differentials": {"1": [["x1-x2"]]}}],
        "diagonal": {"complex": "total", "ideal": ["x1-x2"], "degree": 0,
                     "augmentation": ["1"]},
    }
    cx, diag = doc["complexes"][0], doc["diagonal"]
    if where == "ranks":
        cx["ranks"][str(k)] = 1
        return doc, f"complexes[0].ranks.{k}"
    if where == "differentials":
        cx["differentials"][str(k)] = []
        return doc, f"complexes[0].differentials.{k}"
    if where == "window":
        diag["window"] = [k, 3] if k < 0 else [-1, k]
        return doc, f"diagonal.window[{int(k > 0)}]"
    step = {"target": "total", "summands": [{"label": "I", "shift": k, "model": "total"}]}
    doc["witness"] = {"claimed_time": 0, "steps": [step],
                      "generators": [{"label": "I", "kind": "product"}]}
    return doc, "witness.steps[0].summands[0].shift"


@pytest.mark.parametrize("where", ["ranks", "differentials", "window", "shift"])
@pytest.mark.parametrize("sign", [1, -1])
def test_degree_at_the_bound_is_accepted_and_beyond_it_is_input_error(tmp_path, capsys,
                                                                       where, sign):
    doc, _ = _degree_job(where, sign * MAX_DEGREE)
    (tmp_path / "at.json").write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(tmp_path / "at.json"))
    assert code in (0, 1), err
    doc, kpath = _degree_job(where, sign * (MAX_DEGREE + 1))
    (tmp_path / "beyond.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--job", str(tmp_path / "beyond.json"))
    assert code == 2 and out == ""
    assert f"degree {sign * (MAX_DEGREE + 1)} outside [-{MAX_DEGREE}, {MAX_DEGREE}] " \
           f"at {kpath}" in err


@pytest.mark.parametrize("mults,bad", [([MAX_RANK], None), ([MAX_RANK + 1], 0),
                                        ([MAX_RANK // 2, MAX_RANK // 2 + 1], 1)])
def test_witness_declared_sum_is_bounded_by_max_rank(tmp_path, capsys, mults, bad):
    """The witness builds each step's declared sum, so a multiplicity may not
    ask for more than a declared rank could (the model has rank 1)."""
    doc, _ = _degree_job("shift", 0)
    doc["witness"]["steps"][0]["summands"] = [
        {"label": "I", "model": "total", "multiplicity": m} for m in mults]
    (tmp_path / "w.json").write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(tmp_path / "w.json"))
    if bad is None:
        assert code == 1 and "does not match the declared sum" in out
    else:
        assert code == 2
        assert (f"declared sum above the maximum rank {MAX_RANK} at "
                f"witness.steps[0].summands[{bad}].multiplicity") in err


def test_gb_subcommand(tmp_path, capsys):
    path = tmp_path / "gb.json"
    path.write_text(json.dumps({
        "schema": 1,
        "name": "demo",
        "ring": {"variables": ["x", "y"], "order": {"kind": "lex"}},
        "module": {"rank": 1, "generators": [["x*y"], ["x-y"]]},
    }))
    code, out, _ = run_cli(capsys, "gb", "--job", str(path), "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == [["x - y"], ["y^2"]]


def test_gb_subcommand_module_rank_two(tmp_path, capsys):
    path = tmp_path / "gbmod.json"
    path.write_text(json.dumps({
        "schema": 1,
        "name": "module-demo",
        "ring": {"variables": ["x", "y"]},
        "module": {"rank": 2, "generators": [["x", "y"], ["y", "x"]]},
    }))
    code, out, _ = run_cli(capsys, "gb", "--job", str(path), "--report", "json")
    assert code == 0
    doc = json.loads(out)
    assert ["0", "x^2 - y^2"] in doc["basis"]  # the essential module syzygy

    code, text, _ = run_cli(capsys, "gb", "--job", str(path))
    assert code == 0
    assert text.splitlines() == ["module-demo: reduced basis, 3 vectors"] + [
        "  (" + ", ".join(v) + ")" for v in doc["basis"]]


def _gb_rank_job(path, n):
    path.write_text(json.dumps({"schema": 1, "ring": {"variables": ["x"], "relations": ["x^2"]},
                                "module": {"rank": n}}))
    return str(path)


def test_gb_module_rank_at_the_bound_is_accepted(tmp_path, capsys):
    """The zero submodule of (k[x]/(x^2))^MAX_RANK: its basis is x^2*e_i for
    every i, printed from the sparse basis."""
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "gb", "--job", _gb_rank_job(tmp_path / "at.json", MAX_RANK))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"job: reduced basis, {MAX_RANK} vectors" and len(lines) == MAX_RANK + 1
    assert lines[1] == "  (" + ", ".join(["x^2"] + ["0"] * (MAX_RANK - 1)) + ")"
    assert lines[-1] == "  (" + ", ".join(["0"] * (MAX_RANK - 1) + ["x^2"]) + ")"
    assert time.perf_counter() - t0 < 5.0


def test_gb_module_rank_above_the_bound_is_input_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gb", "--job",
                             _gb_rank_job(tmp_path / "above.json", MAX_RANK + 1))
    assert code == 2 and out == ""
    assert f"rank {MAX_RANK + 1} above the maximum {MAX_RANK} at module.rank" in err


def test_witness_subcommand(capsys):
    code, out, _ = run_cli(capsys, "witness", "--example", "nodal-conic")
    assert code == 0 and "Rouquier dimension <= 1" in out


@pytest.mark.parametrize("key, value", [("label_level", True),
                                        ("final", {"complex": "total"}),
                                        ("auxiliary_products", ["A"])])
def test_witness_job_removed_key_is_input_error(tmp_path, capsys, key, value):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "total", "ranks": {"0": 1}}],
        "witness": {"claimed_time": 0, "generators": [], "steps": [], key: value},
    }))
    code, _, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and f"witness.{key}" in err


@pytest.mark.parametrize("claimed, where", [(0, "witness.steps"),
                                            (-1, "witness.claimed_time")])
def test_witness_job_bad_step_count_names_its_path(tmp_path, capsys, claimed, where):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "total", "ranks": {"0": 1}}],
        "witness": {"claimed_time": claimed, "generators": [], "steps": []},
    }))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert (code, out) == (2, "") and f"at {where}" in err


def _affine_witness_job():
    """The affine line's witness as a job: R_0, S_1[-1], R_1, models and psi_1."""
    from diagres.catalog import build_affine_line
    from diagres.jobio import complex_to_dict, diagonal_to_dict, ring_to_dict
    from diagres.matrices import mat_to_strings
    entry = build_affine_line()
    step0, step1 = entry.witness.steps
    psi = step1.step_map
    named = {"R0": step0.target, "S1": psi.src, "R1": step1.target,
             "plane": step1.summands[0].model, "origin": step1.summands[1].model}
    return {
        "schema": 1,
        "name": "affine",
        "ring": ring_to_dict(entry.ring),
        "complexes": [complex_to_dict(cx, name) for name, cx in named.items()],
        "diagonal": diagonal_to_dict(entry.diagonal, "R1"),
        "witness": {
            "claimed_time": 1,
            "generators": [
                {"label": "O_plane", "kind": "product"},
                {"label": "O_origin", "kind": "product"},
                {"label": "ideal_origin", "kind": "weakly_product",
                 "certificate": {"source": "O_plane", "target": "O_origin"}}],
            "steps": [
                {"target": "R0",
                 "summands": [{"label": "ideal_origin", "model": "R0"}]},
                {"target": "R1",
                 "map": {"source": "S1", "target": "R0",
                         "matrices": {str(i): mat_to_strings(m)
                                      for i, m in sorted(psi.mats.items())}},
                 "summands": [{"label": "O_plane", "shift": 1, "model": "plane"},
                              {"label": "O_origin", "shift": 0, "model": "origin"}]}],
        },
    }


def test_witness_job_structural_affine_line(tmp_path, capsys):
    doc = _affine_witness_job()
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "witness", "--job", str(path))
    assert code == 0 and "Rouquier dimension <= 1" in out
    entry = doc["witness"]["steps"][1]["map"]["matrices"]["0"]
    assert entry[0][0] == "x1 - x2"
    entry[0][0] = "x1 + x2"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "witness", "--job", str(path))
    assert code == 1 and "target is not the cone of the attaching map" in out


@pytest.mark.parametrize("edit, where", [
    (lambda w: w.update(claimed_time=-1, steps=[]), "negative"),
    (lambda w: w["steps"][1]["summands"][1].update(multiplicity=-3),
     "witness.steps[1].summands[1].multiplicity"),
], ids=["negative-claimed-time", "negative-multiplicity"])
def test_witness_job_negative_count_is_input_error(tmp_path, capsys, edit, where):
    doc = _affine_witness_job()
    edit(doc["witness"])
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and where in err and "Rouquier" not in out


@pytest.mark.parametrize("key, value", [("shift", -1), ("note", "x")])
def test_witness_job_certificate_key_outside_schema_is_input_error(tmp_path, capsys,
                                                                   key, value):
    doc = _affine_witness_job()
    doc["witness"]["generators"][2]["certificate"][key] = value
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and f"witness.generators[2].certificate.{key}" in err
    assert "Rouquier" not in out


@pytest.mark.parametrize("where, key", [
    ("$", "expectaton"), ("ring", "feild"), ("ring.order", "knd"),
    ("complexes[0]", "rank"), ("diagonal", "windw"), ("module", "generator"),
    ("witness", "claimed"), ("witness.generators[2]", "certficate"),
    ("witness.generators[2].certificate", "sorce"), ("witness.steps[1]", "mapp"),
    ("witness.steps[1].summands[0]", "shft"), ("witness.steps[1].map", "matrix")])
def test_misspelled_key_in_any_job_object_names_its_path(tmp_path, capsys, where, key):
    """A key the schema does not name exits 2 with its JSON path, in every
    object of a job file; the same job without it passes."""
    doc = _affine_witness_job()
    doc["ring"]["order"] = {"kind": "grevlex"}
    doc["module"] = {"rank": 1, "generators": []}
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "witness", "--job", str(path))[0] == 0
    block = doc
    for name, index in re.findall(r"(\w+)|\[(\d+)\]", where):
        block = block[name] if name else block[int(index)]
    block[key] = 0
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert (code, out) == (2, "")
    assert f"unknown key at {key if where == '$' else f'{where}.{key}'}" in err


def test_misspelled_witness_key_is_named_before_a_bad_step(tmp_path, capsys):
    """The witness block's keys are checked before its generators and steps
    parse, so a misspelled key is the error reported, not a bad step."""
    doc = _affine_witness_job()
    doc["witness"]["steps"][1]["summands"][0]["model"] = "ghost"
    doc["witness"]["conclusoin"] = ""
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert (code, out) == (2, "")
    assert "unknown key at witness.conclusoin" in err


def test_witness_job_repeated_generator_label_is_input_error(tmp_path, capsys):
    doc = _affine_witness_job()
    doc["witness"]["generators"].append({"label": "O_plane", "kind": "product"})
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and "repeated generator label 'O_plane' at witness.generators[3].label" in err
    assert "Rouquier" not in out


def test_witness_job_diagonal_complex_must_be_the_final_target(tmp_path, capsys):
    doc = _affine_witness_job()
    doc["diagonal"]["complex"] = "R0"
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and "witness.steps[1].target" in err and "Rouquier" not in out


def test_weakly_product_generator_without_certificate_names_its_path(tmp_path, capsys):
    doc = _affine_witness_job()
    del doc["witness"]["generators"][2]["certificate"]
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and "missing key 'certificate' at witness.generators[2]" in err
    assert "Rouquier" not in out


@pytest.mark.parametrize("edit, where", [
    (lambda d: d["witness"]["steps"][0]["summands"][0].update(label="H"),
     "step cites undeclared label 'H' at witness.steps[0].summands[0].label"),
    (lambda d: d["witness"]["generators"][2]["certificate"].update(source="H"),
     "cites undeclared label 'H' at witness.generators[2].certificate.source"),
    (lambda d: d["witness"]["generators"][2]["certificate"].update(target="H"),
     "cites undeclared label 'H' at witness.generators[2].certificate.target"),
    (lambda d: d.pop("diagonal"), "missing key 'diagonal' at $"),
], ids=["step-label", "certificate-source", "certificate-target", "no-diagonal"])
def test_malformed_witness_job_names_its_path(tmp_path, capsys, edit, where):
    doc = _affine_witness_job()
    edit(doc)
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and where in err and "Rouquier" not in out


@pytest.mark.parametrize("edit, where", [
    (lambda d: d["diagonal"].update(degree="0"), "diagonal.degree"),
    (lambda d: d["diagonal"].update(window=["-1", "3"]), "diagonal.window[0]"),
    (lambda d: d["complexes"][0]["ranks"].update({"-1": "2"}), "complexes[0].ranks.-1"),
    (lambda d: d["witness"].update(claimed_time="1"), "witness.claimed_time"),
    (lambda d: d["witness"]["steps"][1]["summands"][0].update(multiplicity="1"),
     "witness.steps[1].summands[0].multiplicity"),
], ids=["degree", "window", "rank", "claimed-time", "multiplicity"])
def test_integer_field_spelled_as_a_string_is_input_error(tmp_path, capsys, edit, where):
    """Only object keys (degrees) may spell an integer as a string."""
    witness = where.startswith("witness")
    doc = _affine_witness_job() if witness else json.loads(_exported_job("nodal-conic"))
    edit(doc)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness" if witness else "verify", "--job", str(path))
    assert code == 2 and out == ""
    assert f"expected an integer at {where}, got '" in err


@pytest.mark.parametrize("key", ["01", "+1", " 1", "0_1", "-0", "\u0662"])
def test_non_canonical_degree_key_is_input_error(tmp_path, capsys, key):
    """A degree key must read str(int(k)) == k: any other spelling could name
    a degree another key names, and the last of the two would win.  Here a
    zero matrix so keyed would replace the exported differential unseen."""
    doc = json.loads(_exported_job("nodal-conic"))
    diffs = doc["complexes"][0]["differentials"]
    diffs[key] = [["0"] * len(row) for row in diffs[str(int(key))]]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and out == ""
    assert f"expected an integer at complexes[0].differentials.{key}, got {key!r}" in err


def test_repeated_json_key_is_input_error(tmp_path, capsys):
    """json.load keeps the last of two equal keys: a job listing d_1 twice,
    zeros first and the exported matrix second, would verify a complex other
    than the one its reader sees first."""
    doc = json.loads(_exported_job("nodal-conic"))
    zeros = [["0"] * len(row) for row in doc["complexes"][0]["differentials"]["1"]]
    text = json.dumps(doc).replace('"differentials": {',
                                   f'"differentials": {{"1": {json.dumps(zeros)}, ', 1)
    path = tmp_path / "job.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and out == ""
    assert "repeated key '1'" in err


@pytest.mark.parametrize("text, where", [
    ('{"schema": 1, "schema": 1}', "repeated key 'schema' at $"),
    ('{"schema": 1, "complexes": [{"name": "c"}, {"ranks": {"0": 1, "0": 2}}]}',
     "repeated key '0' at complexes[1].ranks"),
    ('{"ring": {"variables": [{"a": 1, "a": 1}]}}',
     "repeated key 'a' at ring.variables[0]"),
])
def test_repeated_json_key_names_the_path_of_its_object(tmp_path, capsys, monkeypatch,
                                                         text, where):
    """The error names the object that repeats a key, and a job with no
    repeated key is never walked for one."""
    from diagres import jobio
    path = tmp_path / "job.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and out == ""
    assert where in err
    monkeypatch.setattr(jobio, "_repeated_key_error", None)
    path.write_text(_exported_job("nodal-conic"))
    assert run_cli(capsys, "verify", "--job", str(path))[0] == 0


@pytest.mark.parametrize("generator, where", [
    ({"label": "Delta", "kind": "plain"}, "witness.generators[0].kind"),
    ({"label": "Delta"}, "'kind' at witness.generators[0]"),
])
def test_witness_job_generator_kind_is_product_or_weakly_product(
        tmp_path, capsys, generator, where):
    path = tmp_path / "wit.json"
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "total", "ranks": {"0": 1, "1": 1},
                       "differentials": {"1": [["x1-x2"]]}}],
        "diagonal": {"complex": "total", "ideal": ["x1-x2"], "degree": 0,
                     "augmentation": ["1"]},
        "witness": {
            "claimed_time": 0,
            "generators": [generator],
            "steps": [{"target": "total",
                       "summands": [{"label": "Delta", "model": "total"}]}],
        },
    }))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and where in err and "Rouquier" not in out


def test_job_with_negative_degrees(tmp_path, capsys):
    doc = {
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{
            "name": "total",
            "ranks": {"-1": 1, "0": 1},
            "differentials": {"0": [["x1-x2"]]},
        }],
        "diagonal": {"ideal": ["x1-x2"], "degree": -1, "augmentation": ["1"]},
    }
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--job", str(path))
    assert code == 0 and "PASS" in out


def test_witness_job_unknown_model_rejected(tmp_path, capsys):
    path = tmp_path / "badwit.json"
    path.write_text(json.dumps({
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "total", "ranks": {"0": 1, "1": 1},
                       "differentials": {"1": [["x1-x2"]]}}],
        "diagonal": {"complex": "total", "ideal": ["x1-x2"], "degree": 0,
                     "augmentation": ["1"]},
        "witness": {
            "claimed_time": 0,
            "generators": [{"label": "O", "kind": "product"}],
            "steps": [{"summands": [{"label": "O", "model": "ghost"}]}],
        },
    }))
    code, _, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and "ghost" in err


def test_job_export_round_trip():
    from diagres.catalog import build_affine_line
    entry = build_affine_line()
    doc = job_document(entry.name, entry.ring, entry.complex, entry.diagonal)
    text = emit_job(doc)
    job = parse_job(json.loads(text))
    assert job.complexes["total"] == entry.complex
    assert [str(p) for p in job.diagonal.ideal] == \
        [str(p) for p in entry.diagonal.ideal]


def test_unknown_schema_rejected():
    # A bool, a float or a string is not schema 1, though it compares equal
    # to 1 or spells it.
    for schema in (99, True, 1.0, "1"):
        with pytest.raises(JobFileError, match="schema"):
            parse_job({"schema": schema, "ring": {"variables": ["x"]}})


def _hand_job():
    return {
        "schema": 1,
        "ring": {"variables": ["x1", "x2"]},
        "complexes": [{"name": "total", "ranks": {"0": 1, "1": 1},
                       "differentials": {"1": [["x1-x2"]]}}],
        "diagonal": {"ideal": ["x1-x2"], "degree": 0, "augmentation": ["1"]},
    }


@pytest.mark.parametrize("section, key, value, where", [
    ("complexes", "ranks", [1], "complexes[0].ranks"),
    ("diagonal", "degree", "zero", "diagonal.degree"),
    ("ring", "field", "fp:abc", "ring.field"),
])
def test_malformed_job_field_is_input_error(tmp_path, capsys, section, key, value, where):
    doc = _hand_job()
    block = doc[section][0] if section == "complexes" else doc[section]
    block[key] = value
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and where in err


def test_job_errors_under_verify_name_their_json_path(tmp_path, capsys):
    """A diagonal.complex that names no complex, and a job with no diagonal
    (with or without a module, which gb still accepts) run under verify,
    exit 2 with the JSON path at fault."""
    doc = _hand_job()
    doc["diagonal"]["complex"] = "nope"
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and "unknown complex 'nope' at diagonal.complex" in err
    del doc["diagonal"]
    for module in (None, {"rank": 1, "generators": [["x1"]]}):
        if module:
            doc["module"] = module
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "verify", "--job", str(path))
        assert code == 2 and "missing key 'diagonal' at $" in err
    assert run_cli(capsys, "gb", "--job", str(path))[0] == 0


@functools.cache
def _exported_job(source: str) -> str:
    from diagres import catalog
    entry = {"affine-line": catalog.build_affine_line,
             "nodal-conic": catalog.build_nodal_conic}[source]()
    return emit_job(job_document(entry.name, entry.ring, entry.complex, entry.diagonal))


# A verdict precondition names the diagonal key at fault once: the
# DiagonalSpec fields and the job file's diagonal keys share their names.
DIAGONAL_PRECONDITIONS = [
    ({"augmentation": ["0", "1", "0"]},
     "augmentation row of length 3, want rank 4 at diagonal.augmentation"),
    ({"augmentation": ["0", "0", "0", "0"]},
     "augmentation row must be nonzero at diagonal.augmentation"),
    ({"degree": 20}, "designated degree 20 outside [-2, 3] at diagonal.degree"),
    ({"window": [1, 3]},
     "designated degree 0 outside the claimed window (1, 3) at diagonal.window"),
    ({"ideal": ["1"]}, "diagonal ideal is not proper at diagonal.ideal"),
]


@pytest.mark.parametrize("change, message", DIAGONAL_PRECONDITIONS,
                         ids=["short-row", "zero-row", "degree", "window", "ideal"])
def test_verdict_precondition_names_its_json_path(tmp_path, capsys, change, message):
    doc = json.loads(_exported_job("affine-line"))
    doc["diagonal"].update(change)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "verify", "--job", str(path)) == (2, "", f"input error: {message}\n")


def test_witness_diagonal_problem_names_its_json_path(tmp_path, capsys):
    doc = _affine_witness_job()
    doc["diagonal"]["augmentation"] = doc["diagonal"]["augmentation"][:-1]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "witness", "--job", str(path), "--report", "json")
    assert code == 1
    assert json.loads(out)["conditions"][0]["detail"] == (
        "final complex fails diagonal check: augmentation row of length 3, "
        "want rank 4 at diagonal.augmentation")


@pytest.mark.parametrize("argv", [("verify", "--n", "5"), ("verify", "--chart", "1,1"),
                                  ("verify", "--n", "5", "--chart", "1,1"),
                                  ("witness", "--n", "5")],
                         ids=["verify-n", "verify-chart", "verify-n-chart", "witness-n"])
def test_n_and_chart_apply_only_to_example(tmp_path, capsys, argv):
    path = tmp_path / "aff.json"
    path.write_text(_exported_job("affine-line"))
    assert run_cli(capsys, argv[0], "--job", str(path), *argv[1:]) == (
        2, "", "input error: --n and --chart apply only to --example\n")


def _walk(doc, choices) -> list:
    """The JSON path that choices lead to from the root: at each level the
    child choices[i] modulo the number of children, until the choices or
    the containers run out."""
    path, node = [], doc
    for w in choices:
        keys = (list(node) if isinstance(node, dict)
                else range(len(node)) if isinstance(node, list) else ())
        if not keys:
            break
        path.append(keys[w % len(keys)])
        node = node[path[-1]]
    return path


def _retyped(v):
    """v as a value of another JSON type."""
    if isinstance(v, str):
        return [v]
    if isinstance(v, (bool, int, float)):
        return str(v)
    if isinstance(v, list):
        return {str(i): x for i, x in enumerate(v)}
    if isinstance(v, dict):
        return list(v.values())
    return 0


FUZZ_VALUES = [None, True, 1.5, -1, 0, 2, 2 ** 40, "", "0", "1", "x1", "x1*y1", "nope",
               "x1 **", [], {}, [["1"]], {"0": 1}]


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=st.sampled_from(["affine-line", "nodal-conic"]),
       edits=st.lists(st.tuples(st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=6),
                                st.sampled_from(["delete", "retype", "replace"]),
                                st.sampled_from(FUZZ_VALUES)), min_size=1, max_size=3))
def test_structurally_fuzzed_job_exits_0_1_or_2_without_internal_error(
        tmp_path, capsys, source, edits):
    """Deleting, retyping or replacing up to 3 fields at random JSON paths of
    an exported job gives a verdict or an input error, never a crash."""
    doc = json.loads(_exported_job(source))
    for choices, op, value in edits:
        where = _walk(doc, choices)
        if not where:
            break
        *parent, leaf = where
        holder = functools.reduce(operator.getitem, parent, doc)
        if op == "delete":
            del holder[leaf]
        else:
            holder[leaf] = _retyped(holder[leaf]) if op == "retype" else copy.deepcopy(value)
    path = tmp_path / "fuzzed.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code in (0, 1, 2) and "internal error" not in err, (edits, err)


# Entry strings that repeat, as they do in exported jobs; " 0" and "0" are
# equal polynomials under different strings.
ENTRY_STRINGS = ["0", "1", "-1", "x1", "x1 - x2", "1/2*y1", " 0", "-0"]


@settings(max_examples=60, deadline=None)
@given(spec=st.sampled_from(["q", "fp:32003"]),
       rows=st.integers(1, 4).flatmap(lambda c: st.lists(
           st.lists(st.sampled_from(ENTRY_STRINGS), min_size=c, max_size=c),
           min_size=1, max_size=4)))
def test_memoized_parse_equals_one_parse_per_entry(spec, rows):
    rng = ring(["x1", "x2", "y1"], field=field_from_spec(spec))
    ranks = {0: len(rows), 1: len(rows[0])}
    got = parse_complex({"ranks": {str(k): v for k, v in ranks.items()},
                         "differentials": {"1": rows}}, rng, "complexes[0]")
    assert got == ChainComplex(rng, ranks, {1: [[rng.parse(s) for s in row] for row in rows]})
    shared = {}
    for row, prow in zip(rows, got.diff(1).rows):
        assert all(p.terms for p in prow.values())  # zeros are not stored
        for c, p in prow.items():
            assert shared.setdefault(row[c], p) is p


@pytest.mark.parametrize("bad", [0, None, ["0"], "x9", "1/0"])
def test_bad_entry_after_a_parsed_equal_string_names_its_path(tmp_path, capsys, bad):
    doc = _hand_job()
    doc["complexes"][0] = {"name": "total", "ranks": {"0": 2, "1": 2, "2": 1},
                           "differentials": {"1": [["0", "x1"], ["0", bad]],
                                             "2": [["0"], [bad]]}}
    doc["diagonal"]["augmentation"] = ["1", "0"]
    path = tmp_path / "badentry.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and "at complexes[0].differentials.1[1][1]" in err



@pytest.mark.parametrize("bad", [0, None, ["0"], 1.5])
def test_non_string_entry_after_a_run_of_zeros_names_its_path(tmp_path, capsys, bad):
    """Entries spelled "0" are skipped unparsed; a non-string one is not."""
    doc = _hand_job()
    doc["complexes"][0] = {"name": "total", "ranks": {"0": 2, "1": 6},
                           "differentials": {"1": [["0"] * 6, ["0"] * 5 + [bad]]}}
    path = tmp_path / "afterzeros.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and "expected a string at complexes[0].differentials.1[1][5]" in err


def test_exponent_above_the_bound_is_input_error(tmp_path, capsys):
    doc = _hand_job()
    doc["diagonal"]["ideal"][0] = f"x1^{MAX_EXPONENT + 1}"
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and f"above the maximum {MAX_EXPONENT}" in err
    assert "at diagonal.ideal[0]" in err


def _gb_job(path, order, gens):
    path.write_text(json.dumps({"schema": 1, "ring": {"variables": ["x", "y"], "order": order},
                                "module": {"rank": 1, "generators": [[g] for g in gens]}}))
    return str(path)


def test_gb_job_exponent_bound_and_packed_field_overflow_exit_2(tmp_path, capsys):
    lex = {"kind": "lex"}
    code, out, err = run_cli(capsys, "gb", "--job", _gb_job(
        tmp_path / "big.json", lex, ["x^99999999999999999999 - 1"]))
    assert code == 2 and out == "" and "at module.generators[0][0]" in err
    # y^(2^30) is in the reduced basis, past the largest degree a packed term holds
    code, out, err = run_cli(capsys, "gb", "--job", _gb_job(
        tmp_path / "wide.json", lex, ["x - y^32768", "x^32768"]))
    assert code == 2 and out == "" and "above the largest degree" in err


def test_gb_job_literal_past_the_int_digit_limit_exits_2_with_its_path(tmp_path, capsys):
    code, out, err = run_cli(capsys, "gb", "--job", _gb_job(
        tmp_path / "long.json", {"kind": "grevlex"}, ["9" * 5000 + "*x"]))
    assert code == 2 and out == ""
    assert err.startswith("input error: bad polynomial at module.generators[0][0]: ")
    assert "integer literal of 5000 digits" in err and "internal error" not in err


def test_denominator_zero_in_the_field_is_input_error(tmp_path, capsys):
    """A fraction literal whose denominator is a multiple of p is a zero
    denominator over F_p, named with its JSON path, in a generator and in a
    relation; over Q the same relation parses."""
    path = tmp_path / "den.json"
    path.write_text(json.dumps({"schema": 1, "ring": {"variables": ["x", "y"], "field": "fp:7"},
                                "module": {"rank": 1, "generators": [["1/7*x + 1"]]}}))
    code, out, err = run_cli(capsys, "gb", "--job", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad polynomial at module.generators[0][0]: "
                          "zero denominator")
    path.write_text(json.dumps({"schema": 1, "ring": {"variables": ["x"], "relations": ["1/14*x^2"]},
                                "module": {"rank": 1, "generators": [["x"]]}}))
    code, out, err = run_cli(capsys, "gb", "--job", str(path), "--field", "fp:7")
    assert (code, out) == (2, "")
    assert err.startswith("input error: bad polynomial at ring.relations[0]: "
                          "zero denominator")
    assert run_cli(capsys, "gb", "--job", str(path))[0] == 0


@pytest.mark.parametrize("ring_block, where", [
    ({"variables": ["x"], "relations": ["x^2", "x+"]}, "bad polynomial at ring.relations[1]"),
    ({"variables": ["x"], "relations": ["x - x"]}, "bad ring at ring.relations: "),
    ({"variables": ["x", "y"], "order": {"kind": "lex", "priority": [0, 0]}},
     "bad ring at ring.order.priority: "),
    ({"variables": ["x"], "order": {"kind": "deglex"}}, "bad ring at ring.order.kind: "),
    ({"variables": ["x", "x"]}, "bad ring at ring.variables: "),
    ({"variables": ["x"], "field": "fp:8"}, "bad ring at ring.field: "),
], ids=["relation", "zero-relation", "priority", "kind", "variables", "field"])
def test_bad_ring_names_the_part_at_fault(tmp_path, capsys, ring_block, where):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"schema": 1, "ring": ring_block,
                                "module": {"rank": 1, "generators": [["x"]]}}))
    code, out, err = run_cli(capsys, "gb", "--job", str(path))
    assert (code, out) == (2, "") and err.startswith(f"input error: {where}")


def test_gb_job_prints_a_computed_coefficient_past_the_int_digit_limit(tmp_path, capsys):
    """Literals within the limit multiply into basis coefficients past it,
    and the basis prints every digit of them."""
    nines, sevens = "9" * 2500, "7" * 2400
    code, out, err = run_cli(capsys, "gb", "--job", _gb_job(
        tmp_path / "long.json", {"kind": "grevlex"},
        [f"{nines}*x^2 + {sevens}*y + 1", f"{sevens}*x*y + {nines}*x + 3"]), "--report", "json")
    assert (code, err) == (0, "")
    basis = [v[0] for v in json.loads(out)["basis"]]
    assert [b.split(" ")[0] for b in basis] == ["x^2", "x*y", "y^2"]
    digits = max(max(len(t) for t in b.replace("/", " ").split()) for b in basis)
    assert digits > 4300


def test_oversized_prime_field_is_input_error(tmp_path, capsys):
    big = "fp:" + str(10**400 + 1)
    code, _, err = run_cli(capsys, "verify", "--example", "affine-line", "--field", big)
    assert code == 2 and "input error" in err
    doc = _hand_job()
    doc["ring"]["field"] = big
    path = tmp_path / "bigfield.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "verify", "--job", str(path))
    assert code == 2 and "ring.field" in err


@pytest.mark.parametrize("spec", ["fp:07", "fp: 7", "fp:+7", "fp:1_000_003", "fp:٧",
                                  "fp:abc"])
def test_a_field_spec_not_spelled_canonically_is_input_error(tmp_path, capsys, spec):
    """'fp:' takes P in ASCII digits spelled as str(P) prints it, so a
    report names each field one way; any other spelling exits 2."""
    want = f"unknown field spec {spec!r} (expected 'q' or 'fp:P')"
    code, out, err = run_cli(capsys, "verify", "--example", "affine-line", "--field", spec)
    assert (code, out, err) == (2, "", f"input error: {want}\n")
    doc = _hand_job()
    doc["ring"]["field"] = spec
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert (code, out, err) == (2, "", f"input error: bad ring at ring.field: {want}\n")


def test_a_json_integer_past_the_int_digit_limit_is_input_error(tmp_path, capsys):
    """json.load refuses an integer literal longer than the interpreter's
    int-conversion limit with a ValueError: a malformed job, exit 2."""
    path = tmp_path / "long-rank.json"
    path.write_text(json.dumps(_hand_job()).replace('"ranks": {"0": 1',
                                                    '"ranks": {"0": ' + "9" * 5000))
    code, out, err = run_cli(capsys, "verify", "--job", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("input error: not valid JSON: ") and "4300" in err


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    import diagres.catalog

    def broken_builder(field):
        raise RuntimeError("builder broke\nsecond line")

    monkeypatch.setattr(diagres.catalog, "build_affine_line", broken_builder)
    code, out, err = run_cli(capsys, "verify", "--example", "affine-line")
    assert code == 2
    assert err == "internal error: RuntimeError: builder broke second line\n"
    assert out == ""


def _strip_unpinned(node):
    """A report without timing_seconds and stats, at every level."""
    if isinstance(node, dict):
        return {k: _strip_unpinned(v) for k, v in node.items()
                if k not in ("timing_seconds", "stats")}
    if isinstance(node, list):
        return [_strip_unpinned(v) for v in node]
    return node


# sha256 of each example's JSON report, stripped of timing and stats and
# dumped with sorted keys (the digest the benchmark's catalog-cold check uses).
PINNED_REPORTS = [
    (("verify", "--example", "affine-line"), "q",
     "6cc660ea3a343ce0f22befe7de5e8aac86cec658f587243dc9226f17d0c88b93"),
    (("verify", "--example", "affine-line"), "fp:32003",
     "5d8f8571be9a6e8189e6c1ffad88d77be55a20c675e576765bfa1264e8391f2d"),
    (("verify", "--example", "nodal-conic"), "q",
     "a28a6e6f4f3d2eb61a737c327b783ca6dd9c60c6e2894f8de6070e58b28e9e3c"),
    (("verify", "--example", "nodal-conic"), "fp:32003",
     "e62c11d60de72af421f9e71c6c3625722c5fdf5309c1c9414e3ed349423e18ff"),
    (("verify", "--example", "cycle", "--n", "3"), "q",
     "ee8d260a3193071c35f9a3a786c9b5d5d171396467b8dc8beb779cd6b2d97d0c"),
    (("verify", "--example", "cycle", "--n", "3"), "fp:32003",
     "eebc3d26c3e02c522859fa97465a1110638a49e8f369858c97540d4714732158"),
    (("verify", "--example", "cycle", "--n", "4"), "q",
     "14618b7e37106d95282c6569dedfb5601180499db7cb75f040919f6d24063475"),
    (("verify", "--example", "cycle", "--n", "4"), "fp:32003",
     "08763e8a95271647f70847b297626deeaca6913dd1e183dead3ae55e17631f9f"),
    (("witness", "--example", "nodal-conic"), "q",
     "618c158fbe5452019759898ecdc056463b8782e16135c7e903469f23c6527f9d"),
    (("witness", "--example", "nodal-conic"), "fp:32003",
     "7d97363071f63be341f2088a7a8eb6643ae8aea6506224a47ca645d874ab8d38"),
]


@pytest.mark.parametrize("argv, spec, digest", PINNED_REPORTS,
                         ids=[" ".join(a[0:1] + a[2:]) + f" {s}" for a, s, _ in PINNED_REPORTS])
def test_example_report_matches_pinned_digest(capsys, argv, spec, digest):
    code, out, _ = run_cli(capsys, *argv, "--field", spec, "--report", "json")
    assert code == 0
    canon = json.dumps(_strip_unpinned(json.loads(out)), sort_keys=True)
    assert hashlib.sha256(canon.encode()).hexdigest() == digest


# The paths agree: `witness --example` checks the witness `verify --example`
# checks, and an exported job's verdict is the example's.

@pytest.mark.parametrize("spec", ["q", "fp:32003"])
@pytest.mark.parametrize("example", ["affine-line", "nodal-conic", "cycle"])
def test_witness_report_is_the_verify_witness_subreport(capsys, example, spec):
    code, out, _ = run_cli(capsys, "witness", "--example", example, "--field", spec,
                           "--report", "json")
    assert code == 0
    _, full, _ = run_cli(capsys, "verify", "--example", example, "--field", spec,
                         "--report", "json")
    sub = json.loads(full)["subreports"][-1]
    assert sub["name"].endswith(":witness")
    assert _strip_unpinned(sub) == _strip_unpinned(json.loads(out))


def test_witness_example_builds_no_entry_it_does_not_check(monkeypatch, capsys):
    import diagres.catalog

    def refuse(field):
        raise AssertionError("product resolution built")

    monkeypatch.setattr(diagres.catalog, "build_nodal_conic_product", refuse)
    assert run_cli(capsys, "witness", "--example", "nodal-conic")[0] == 0
    assert run_cli(capsys, "verify", "--example", "nodal-conic")[0] == 2


@pytest.mark.parametrize("spec", ["q", "fp:32003"])
def test_exported_job_verdict_is_the_example_subreport_verdict(tmp_path, capsys, spec):
    """Distant charts are left out: a job without a diagonal block carries no
    window for their exactness check."""
    from diagres import catalog
    fld = field_from_spec(spec)
    charts = catalog.build_cycle(3, fld).chart_jobs
    cases = [("affine-line", catalog.build_affine_line(fld)),
             ("nodal-conic", catalog.build_nodal_conic(fld)),
             ("nodal-conic", catalog.build_nodal_conic_product(fld))]
    cases += [("cycle", next(j for j in charts if j.kind == kind))
              for kind in ("diagonal", "adjacent")]
    keys = ("verdict", "window", "conditions")
    for example, entry in cases:
        path = tmp_path / "job.json"
        path.write_text(emit_job(job_document(entry.name, entry.ring, entry.complex,
                                              entry.diagonal)))
        code, out, _ = run_cli(capsys, "verify", "--job", str(path), "--report", "json")
        assert code == 0, entry.name
        job = json.loads(out)
        _, full, _ = run_cli(capsys, "verify", "--example", example, "--field", spec,
                             "--report", "json")
        sub = next(s for s in json.loads(full)["subreports"] if s["name"] == entry.name)
        assert [job[k] for k in keys] == [sub[k] for k in keys], entry.name


def test_no_build_or_verify_path_reads_the_dense_row_view(tmp_path, capsys, monkeypatch):
    """Builds and verdicts run on the sparse rows alone: with every part of
    the dense row view raising, the catalog builds from empty caches, the
    examples and the witness verify, and an exported job verifies."""
    from diagres.catalog import build_nodal_conic, entries
    entry = build_nodal_conic()
    path = tmp_path / "conic.json"
    path.write_text(emit_job(job_document(entry.name, entry.ring, entry.complex,
                                          entry.diagonal)))
    monkeypatch.setattr(entries, "_CACHE", {})

    def refuse(self, *args):
        raise AssertionError("dense row view read")

    for name in ("__len__", "__getitem__"):  # iteration runs through __getitem__
        monkeypatch.setattr(Matrix, name, refuse)
    for argv in (["verify", "--example", "nodal-conic"],
                 ["verify", "--example", "cycle", "--n", "3"],
                 ["witness", "--example", "nodal-conic"],
                 ["verify", "--job", str(path)]):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    # the product resolution is the one catalog entry built as a cone into a cone
    from diagres.catalog import build_nodal_conic_product
    from diagres.report import verdict_report
    assert verdict_report(build_nodal_conic_product()).verdict == "pass"


def _cli_modules(runs, then: str = "") -> tuple:
    """Run each argv through one fresh interpreter's cli.main, then the
    statement then: (the exit codes, the sorted modules then loaded, the
    sorted files in which a function defined by def ran).  A module or
    class body runs no function, so being imported is not being run.  The
    interpreter starts with -S, so that no site .pth file imports a module
    of its own."""
    import os
    import subprocess
    import sys
    probe = "\n".join([
        "import json, sys",
        "ran = set()",
        "def record(frame, event, arg):",
        "    code = frame.f_code",
        f"    if (event == 'call' and code.co_flags & {inspect.CO_OPTIMIZED}",
        "            and not code.co_name.startswith('<')):",
        "        ran.add(code.co_filename)",
        "sys.setprofile(record)",
        "from diagres.cli import main",
        f"codes = [main(argv) for argv in {runs!r}]",
        then,
        "sys.setprofile(None)",
        "print(json.dumps([codes, sorted(sys.modules), sorted(ran)]))"])
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    return tuple(json.loads(out.strip().splitlines()[-1]))


EXAMPLE_RUNS = [[cmd, "--example", ex] for cmd in ("verify", "witness")
                for ex in ("affine-line", "nodal-conic", "cycle")]


def test_example_runs_leave_dataclasses_jobio_and_mutations_unloaded():
    """Start-up cost: every --example run, after `import diagres.cli`,
    leaves dataclasses (about 7 ms to import, and an exec per decorated
    class), jobio (compiled on every start without bytecode) and the
    documented mutation controls, which no CLI path calls, unloaded."""
    codes, loaded, _ = _cli_modules(EXAMPLE_RUNS)
    assert codes == [0] * len(EXAMPLE_RUNS)
    assert {"dataclasses", "diagres.jobio", "diagres.catalog.mutations"} & set(loaded) == set()


def _small_jobs(tmp_path) -> dict:
    """A verify, a witness and a gb job, written to files: subcommand -> path."""
    paths = {cmd: tmp_path / f"{cmd}.json" for cmd in ("verify", "witness", "gb")}
    paths["verify"].write_text(json.dumps(_hand_job()))
    paths["witness"].write_text(json.dumps(_affine_witness_job()))
    _gb_job(paths["gb"], {"kind": "lex"}, ["x*y", "x-y"])
    return {cmd: str(path) for cmd, path in paths.items()}


def test_verify_job_imports_no_build_code(tmp_path):
    """A job's verdict, witness check or basis runs without the catalog or
    the resolution builders."""
    for cmd, path in _small_jobs(tmp_path).items():
        codes, loaded, _ = _cli_modules([[cmd, "--job", path]])
        assert codes == [0], cmd
        assert not any("catalog" in m or "resolutions" in m for m in loaded), cmd


def test_every_package_module_is_reached_by_a_cli_path(tmp_path):
    """src/diagres holds what the CLI or the benchmark calls: the examples
    and small jobs through every subcommand, then one round of the
    benchmark's job-stream inputs (the one user of the documented
    mutations), run a function of every module of the package that
    defines one.  A module that is only imported is not reached."""
    runs = EXAMPLE_RUNS + [[cmd, "--job", path] for cmd, path in _small_jobs(tmp_path).items()]
    jobs = tmp_path / "job-stream"
    jobs.mkdir()
    codes, _, ran = _cli_modules(runs, f"sys.path.insert(0, {str(PERFBENCH)!r}); "
                                       f"import inputs; inputs.write_jobs(1, {str(jobs)!r})")
    assert codes == [0] * len(runs)
    defining = {f.resolve() for f in (SRC / "diagres").rglob("*.py")
                if any(isinstance(node, ast.FunctionDef)
                       for node in ast.walk(ast.parse(f.read_text())))}
    assert sorted(map(str, defining - {Path(f).resolve() for f in ran})) == []


# Public functions and methods of src/diagres that nothing in src/ or
# perfbench/ references, kept on purpose: name -> reason.  The fields' add
# is as test-only as their sub, but a set's add in perfbench/run.py shares
# its name, so the scan below does not flag it.
UNREFERENCED_BY_DESIGN = {
    "RationalField.sub": "field arithmetic of tests/bimodcalc.py and of the "
                         "reference axpy and ref_add models",
    "PrimeField.sub": "field arithmetic of tests/bimodcalc.py and of the "
                      "reference axpy and ref_add models",
}


def _unreferenced_public_names(root: Path) -> set:
    """The module-level functions ("f") and methods ("Class.f") of
    root/src/diagres, public by name, that no code under root/src or
    root/perfbench references.  A reference is a name, an attribute, or a
    string constant spelling a dotted identifier path (the benchmark's
    tracer names its targets so); imports and __all__ lists are none."""
    funcs, methods = set(), set()
    for path in sorted((root / "src" / "diagres").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                funcs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                methods.update(f"{node.name}.{f.name}" for f in node.body
                               if isinstance(f, ast.FunctionDef) and not f.name.startswith("_"))
    names, attrs = set(), set()
    for path in [*(root / "src").rglob("*.py"), *(root / "perfbench").rglob("*.py")]:
        tree = ast.parse(path.read_text())
        exports = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                   for n in ast.walk(node.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in exports
                  and re.fullmatch(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*", node.value)):
                attrs.update(node.value.split("."))
    return ({f for f in funcs if f not in names and f not in attrs}
            | {m for m in methods if m.split(".")[1] not in attrs})


def test_every_public_function_in_the_package_has_a_caller_outside_tests():
    """src/diagres holds the verifier: a public function or method that only
    tests call moves into tests/ or goes, unless UNREFERENCED_BY_DESIGN
    names it with its reason; and that table names only what the scan flags."""
    flagged = _unreferenced_public_names(SRC.parent)
    assert sorted(flagged - set(UNREFERENCED_BY_DESIGN)) == []
    assert sorted(set(UNREFERENCED_BY_DESIGN) - flagged) == []


# The job files the benchmark's job-stream workload verifies, one round per
# seed; they are built through the dense row view, which this pins.
JOB_STREAM_DIGESTS = {
    1: "462f66cc9a99ebbf9ba1fa94dea47778db0a95413a0fd602fc8e88ec32b3ce2f",
    2: "59e453f0b749ca378bb5dfdb8acc1e9ca19c1cfb7369624d062120b410c449a0",
}


@pytest.mark.parametrize("seed", sorted(JOB_STREAM_DIGESTS))
def test_job_stream_inputs_match_pinned_digest(tmp_path, seed):
    where = PERFBENCH / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", where)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    assert inputs.write_jobs(seed, str(tmp_path))["digest"] == JOB_STREAM_DIGESTS[seed]
