"""Generation-time witnesses: structural checks and failure modes."""

import pytest

from diagres.catalog import build_affine_line, build_nodal_conic
from diagres.catalog.mutations import WITNESS_MUTATIONS
from diagres.complexes import DiagonalSpec, InputDataError, verify_diagonal_qiso
from diagres.scalars import QQ
from diagres.witness import (ConeCertificate, DeclaredSummand, GenerationWitness,
                             GeneratorDecl, WitnessStep, verify_witness)


def test_affine_witness_passes():
    entry = build_affine_line()
    rep = verify_witness(entry.witness)
    assert rep.passed
    assert any("Rouquier dimension <= 1" in m for m in rep.messages)


def test_conic_witness_passes():
    entry = build_nodal_conic()
    rep = verify_witness(entry.witness)
    assert rep.passed, rep.problems


def test_undeclared_label_is_input_error():
    entry = build_affine_line()
    w = entry.witness
    bad = GenerationWitness(
        generators=w.generators,
        steps=[WitnessStep(None, w.steps[0].target,
                           [DeclaredSummand("mystery", 0, 1, w.steps[0].target)]),
               w.steps[1]],
        claimed_time=1,
        final_diagonal=w.final_diagonal)
    with pytest.raises(InputDataError):
        verify_witness(bad)


def test_step_count_must_match_claim():
    entry = build_affine_line()
    w = entry.witness
    short = GenerationWitness(generators=w.generators, steps=w.steps[:1],
                              claimed_time=1,
                              final_diagonal=w.final_diagonal)
    with pytest.raises(InputDataError):
        verify_witness(short)


def test_empty_tower_never_passes():
    """No steps under a claimed time of -1, or no final complex, bounds nothing."""
    w = build_affine_line().witness
    empty = GenerationWitness(generators=w.generators, steps=[], claimed_time=-1,
                              final_diagonal=w.final_diagonal)
    with pytest.raises(InputDataError, match="negative"):
        verify_witness(empty)
    untargeted = GenerationWitness(
        generators=w.generators, steps=[WitnessStep(None, None, w.steps[0].summands)],
        claimed_time=0, final_diagonal=w.final_diagonal)
    rep = verify_witness(untargeted)
    assert not rep.passed and "no final complex" in rep.problems


def test_monotonicity_dropping_a_step_fails():
    """A 0-step witness for the same final complex fails structurally."""
    entry = build_affine_line()
    w = entry.witness
    collapsed = GenerationWitness(
        generators=w.generators,
        steps=[WitnessStep(None, w.steps[-1].target, w.steps[0].summands)],
        claimed_time=0,
        final_diagonal=w.final_diagonal)
    rep = verify_witness(collapsed)
    assert not rep.passed
    assert any("step 0" in p for p in rep.problems)


def test_failing_final_complex_never_passes():
    entry = build_affine_line()
    w = entry.witness
    bad_diag = DiagonalSpec(ideal=[entry.ring.parse("x1+x2")],
                            degree=0,
                            augmentation=w.final_diagonal.augmentation)
    bad = GenerationWitness(generators=w.generators, steps=w.steps,
                            claimed_time=1,
                            final_diagonal=bad_diag)
    rep = verify_witness(bad)
    assert not rep.passed


@pytest.mark.parametrize("build", [build_affine_line, build_nodal_conic])
def test_witness_reuses_the_entry_verdict(build, monkeypatch):
    """The witness's final complex and spec are the entry's own, so its
    diagonal verdict is the one verify_entry computed; any other spec or
    pre_minimize is still verified afresh."""
    from diagres import complexes
    from diagres.catalog import verify_entry
    entry = build()
    runs = []
    body = complexes._qiso_verdict
    monkeypatch.setattr(complexes, "_qiso_verdict",
                        lambda *a: runs.append(a[1:]) or body(*a))
    assert verify_entry(entry).passed
    assert len(runs) == 1
    rep = verify_witness(entry.witness)
    assert rep.passed, rep.problems
    assert len(runs) == 1
    assert rep.final_result is verify_diagonal_qiso(entry.complex, entry.diagonal)
    w = entry.witness
    bad_diag = DiagonalSpec(ideal=[entry.ring.parse("x1+x2")] + w.final_diagonal.ideal[1:],
                            degree=0, augmentation=w.final_diagonal.augmentation,
                            window=w.final_diagonal.window)
    bad = GenerationWitness(generators=w.generators, steps=w.steps,
                            claimed_time=1,
                            final_diagonal=bad_diag)
    assert not verify_witness(bad).passed
    assert runs[-1] == (bad_diag, True)
    assert verify_diagonal_qiso(entry.complex, entry.diagonal, pre_minimize=False).passed
    assert runs[-1] == (entry.diagonal, False)
    assert len(runs) == 3


def test_cone_certificate_endpoints_must_be_products():
    entry = build_affine_line()
    w = entry.witness
    gens = [GeneratorDecl("O_plane", "product"),
            GeneratorDecl("O_origin", "weakly_product",
                          ConeCertificate("O_plane", "O_plane")),
            GeneratorDecl("ideal_origin", "weakly_product",
                          ConeCertificate("O_plane", "O_origin"))]
    bad = GenerationWitness(generators=gens, steps=w.steps, claimed_time=1,
                            final_diagonal=w.final_diagonal)
    rep = verify_witness(bad)
    assert not rep.passed
    assert any("not a product object" in p for p in rep.problems)


def test_step_check_needs_the_declared_block_order():
    """The step check is literal: reordered summands and a negated model no
    longer match, and only the declaration in the attaching map's block
    order passes."""
    from diagres.complexes import ChainComplex
    from diagres.matrices import mat_neg
    entry = build_affine_line()
    w = entry.witness
    step2 = w.steps[1]

    def with_step(summands):
        step = WitnessStep(step2.step_map, step2.target, summands)
        return GenerationWitness(generators=w.generators, steps=[w.steps[0], step],
                                 claimed_time=1, final_diagonal=w.final_diagonal)

    assert verify_witness(with_step(list(step2.summands))).passed
    rep = verify_witness(with_step(list(reversed(step2.summands))))
    assert not rep.passed
    assert any("does not match the declared sum" in p for p in rep.problems)
    orig = step2.summands[1].model
    negated = ChainComplex(orig.ring, dict(orig.ranks),
                           {i: mat_neg(m) for i, m in orig.diffs.items()},
                           check=False)
    rep = verify_witness(with_step([
        step2.summands[0],
        DeclaredSummand(step2.summands[1].label, step2.summands[1].shift, 1, negated)]))
    assert not rep.passed
    assert any("does not match the declared sum" in p for p in rep.problems)


def test_wrong_declared_sum_fails():
    entry = build_affine_line()
    w = entry.witness
    # declare the wrong shift in step 2
    step2 = w.steps[1]
    wrong = WitnessStep(step2.step_map, step2.target,
                        [DeclaredSummand(s.label, s.shift + 1, s.multiplicity,
                                         s.model) for s in step2.summands])
    bad = GenerationWitness(generators=w.generators, steps=[w.steps[0], wrong],
                            claimed_time=1,
                            final_diagonal=w.final_diagonal)
    rep = verify_witness(bad)
    assert not rep.passed
    assert any("does not match the declared sum" in p for p in rep.problems)


@pytest.mark.parametrize("name", sorted(WITNESS_MUTATIONS))
def test_witness_mutation_controls_fail_with_a_named_problem(name):
    problem, build = WITNESS_MUTATIONS[name]
    w, chart_suite_passed = build(QQ)
    rep = verify_witness(w, chart_suite_passed=chart_suite_passed)
    assert not rep.passed
    assert not rep.messages
    assert any(problem in p for p in rep.problems), rep.problems


def test_plain_generator_kind_is_rejected():
    """A generator that is neither product nor weakly product certifies nothing:
    with it, the conic's own total would be a 0-step witness for Rdim <= 0."""
    entry = build_nodal_conic()
    with pytest.raises(InputDataError, match="plain"):
        GenerationWitness(
            generators=[GeneratorDecl("Delta", "plain")],
            steps=[WitnessStep(None, entry.complex,
                               [DeclaredSummand("Delta", 0, 1, entry.complex)])],
            claimed_time=0, final_diagonal=entry.diagonal)
