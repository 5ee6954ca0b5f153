"""CLI surface: subcommands, exit codes, job files, report determinism."""

import hashlib
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from diagres.cli import main
from diagres.complexes import ChainComplex
from diagres.jobio import JobFileError, emit_job, job_document, parse_complex, parse_job
from diagres.polyring import ring
from diagres.report import VerificationReport
from diagres.scalars import field_from_spec


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
    rep = VerificationReport.from_json(out)
    assert rep.to_json() == json.dumps(doc, indent=2, sort_keys=True)


def test_json_report_round_trip_and_determinism(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--example", "affine-line",
                         "--report", "json")
    _, out2, _ = run_cli(capsys, "verify", "--example", "affine-line",
                         "--report", "json")
    r1 = VerificationReport.from_json(out1)
    r2 = VerificationReport.from_json(out2)
    assert r1.to_json(with_timing=False) == r2.to_json(with_timing=False)
    assert VerificationReport.from_json(r1.to_json()).to_json() == r1.to_json()


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
    code, _, err = run_cli(capsys, "verify", "--example", "cycle", "--n", "3",
                           "--chart", "9,9")
    assert code == 2 and "input error" in err


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


def test_witness_subcommand(capsys):
    code, out, _ = run_cli(capsys, "witness", "--example", "nodal-conic")
    assert code == 0 and "Rouquier dimension <= 1" in out


@pytest.mark.parametrize("key, value", [("label_level", True),
                                        ("final", {"complex": "total"})])
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


def test_witness_job_diagonal_complex_must_be_the_final_target(tmp_path, capsys):
    doc = _affine_witness_job()
    doc["diagonal"]["complex"] = "R0"
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "witness", "--job", str(path))
    assert code == 2 and "witness.steps[1].target" in err and "Rouquier" not in out


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
            "final": {"complex": "total"},
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
    with pytest.raises(JobFileError):
        parse_job({"schema": 99, "ring": {"variables": ["x"]}})


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


# Entry strings that repeat, as they do in exported jobs; " 0" and "0" are
# equal polynomials under different strings.
ENTRY_STRINGS = ["0", "1", "-1", "x1", "x1 - x2", "1/2*y1", " 0"]


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
    for row, prow in zip(rows, got.diff(1)):
        for s, p in zip(row, prow):
            assert shared.setdefault(s, p) is p


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
