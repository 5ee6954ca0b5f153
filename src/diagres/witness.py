"""Generation-time certificates and their structural verification.

A witness asserts that the diagonal is generated in time k by declared
(weakly) product bimodules: it names the generators and exhibits the tower
of triangles 0 -> R_0 -> ... -> R_k.  Step 0 declares R_0 = S_0; step
i >= 1 gives the attaching map psi_i: S_i[-1] -> R_{i-1} and declares
R_i = cone(psi_i), where S_i is the step's declared sum of shifted
generator models, taken in declared order.  The final complex R_k carries
the diagonal quasi-isomorphism checked by the complexes module; a negative
k is an input error and a witness without R_k fails.  On success the
report states the Rouquier-dimension bound.

Each step is checked by three equalities of complexes, never by a search:
psi_i.tgt is R_{i-1}, psi_i.src is the declared sum shifted by -1, and R_i
is cone(psi_i).  A summand presented in another basis or order does not
match; summands that would require idempotent splitting are out of scope.

A witness over several charts (the cycle) declares its generators and
steps once and carries one local witness per distinct chart pattern in
`charts`; every local witness goes through the same step and diagonal
checks.  Generator labels are distinct, and every label a step or a
certificate cites is one of them (check_declarations, whose errors in a job
file name their JSON path).  A weakly product generator carries a cone
certificate whose endpoints must be generators declared product; a
generator declared product is taken as declared, and nothing checks it.
"""

from __future__ import annotations

from typing import Optional

from .complexes import (ChainComplex, ChainMap, DiagonalSpec, InputDataError,
                        cone, direct_sum, shift, verify_diagonal_qiso, zero_complex)


class ConeCertificate:
    """Weak productness via the cone of a morphism of product bimodules."""

    def __init__(self, source_label: str, target_label: str):
        self.source_label = source_label
        self.target_label = target_label


class GeneratorDecl:
    def __init__(self, label: str, kind: str,
                 certificate: Optional[ConeCertificate] = None):
        if kind not in ("product", "weakly_product"):
            raise InputDataError(f"unknown generator kind {kind!r}")
        if kind == "weakly_product" and not isinstance(certificate, ConeCertificate):
            raise InputDataError(
                f"weakly_product generator {label!r} needs a cone certificate")
        self.label = label
        self.kind = kind  # 'product' | 'weakly_product'
        self.certificate = certificate


class DeclaredSummand:
    def __init__(self, label: str, shift: int = 0, multiplicity: int = 1,
                 model: Optional[ChainComplex] = None):
        self.label = label
        self.shift = shift
        self.multiplicity = multiplicity
        self.model = model


class WitnessStep:
    """R_i = cone(step_map); step_map is psi_i, and None for step 0 (R_0 = S_0).

    A witness whose charts carry the algebra leaves its own targets None.
    """

    def __init__(self, step_map: Optional[ChainMap], target: Optional[ChainComplex],
                 summands: list):
        self.step_map = step_map
        self.target = target
        self.summands = summands


class GenerationWitness:
    def __init__(self, generators: list, steps: list, claimed_time: int,
                 final_diagonal: Optional[DiagonalSpec] = None, charts: tuple = (),
                 conclusion: str = ""):
        self.generators = generators
        self.steps = steps
        self.claimed_time = claimed_time
        self.final_diagonal = final_diagonal
        self.charts = charts  # local witnesses; conclusion names the chart
        self.conclusion = conclusion


class WitnessReport:
    def __init__(self, passed: bool, messages: Optional[list] = None,
                 problems: Optional[list] = None):
        self.passed = passed
        self.messages = [] if messages is None else messages
        self.problems = [] if problems is None else problems


def check_declarations(w: GenerationWitness, at: str = "") -> dict:
    """label -> GeneratorDecl, once the declaration rules hold; given at, the
    JSON path of a job file's witness block, each error ends with its path."""

    def fault(msg: str, where: str) -> InputDataError:
        return InputDataError(f"{msg} at {at}.{where}" if at else msg)

    if w.claimed_time < 0:
        raise fault(f"claimed generation time {w.claimed_time} is negative", "claimed_time")
    for x in (w, *w.charts):
        if len(x.steps) != w.claimed_time + 1:
            raise fault(f"witness has {len(x.steps)} steps but claims generation time "
                        f"{w.claimed_time}", "steps")
    declared = {}
    for i, g in enumerate(w.generators):
        if declared.setdefault(g.label, g) is not g:
            raise fault(f"repeated generator label {g.label!r}", f"generators[{i}].label")
    cited = [("step", s.label, f"steps[{i}].summands[{k}].label")
             for i, step in enumerate(w.steps) for k, s in enumerate(step.summands)]
    cited += [(f"certificate of {g.label!r}", lab, f"generators[{i}].certificate.{end}")
              for i, g in enumerate(w.generators) if g.kind == "weakly_product"
              for end, lab in (("source", g.certificate.source_label),
                               ("target", g.certificate.target_label))]
    for who, lab, where in cited:
        if lab not in declared:
            raise fault(f"{who} cites undeclared label {lab!r}", where)
    return declared


def verify_witness(w: GenerationWitness) -> WitnessReport:
    declared = check_declarations(w)
    report = WitnessReport(passed=True, problems=[
        f"{g.label}: cone certificate endpoint {lab} is not a product object"
        for g in w.generators if g.kind == "weakly_product"
        for lab in (g.certificate.source_label, g.certificate.target_label)
        if declared[lab].kind == "weakly_product"])
    for local in w.charts or (w,):
        where = f"{local.conclusion}: " if w.charts else ""
        prev = None
        for idx, step in enumerate(local.steps):
            why = _check_step(step, idx, prev)
            if why:
                report.problems.append(f"{where}step {idx}: {why}")
            prev = step.target
        if local.final_diagonal is None:
            raise InputDataError(f"{where}witness has no final diagonal")
        if prev is None:
            report.problems.append(f"{where}no final complex")
            continue
        try:
            result = verify_diagonal_qiso(prev, local.final_diagonal)
        except InputDataError as exc:
            report.problems.append(f"{where}final complex fails diagonal check: {exc}")
            continue
        if not result.passed:
            f = result.first_failure()
            report.problems.append(f"{where}final complex fails diagonal check: "
                                   f"{f.condition} at degree {f.degree}")

    report.passed = not report.problems
    if report.passed:
        k = w.claimed_time
        report.messages.append(
            f"generation time of the diagonal by the declared weakly product "
            f"bimodules <= {k}")
        report.messages.append(f"Rouquier dimension <= {k}")
        if w.conclusion:
            report.messages.append(w.conclusion)
    return report


def _check_step(step: WitnessStep, idx: int, prev: Optional[ChainComplex]) -> str:
    """Why step idx is not the triangle it declares, or "" if it is."""
    if step.target is None:
        return "no target complex"
    pieces = []
    for s in step.summands:
        if s.model is None:
            return f"summand {s.label!r} lacks a model for the structural check"
        # S_i[-1] is the source of psi_i; R_0 is S_0 itself.
        pieces += [shift(s.model, s.shift - (idx > 0))] * s.multiplicity
    declared = direct_sum(*pieces) if pieces else zero_complex(step.target.ring)
    if idx == 0:
        if step.step_map is not None:
            return "step 0 takes no attaching map"
        if step.target == declared:
            return ""
        return ("target does not match the declared sum: ranks "
                f"{step.target.ranks} vs {declared.ranks}")
    psi = step.step_map
    if psi is None:
        return "no attaching map"
    if prev is None or psi.tgt != prev:
        return "attaching map does not end at the previous step's target"
    if psi.src != declared:
        return ("attaching map's source does not match the declared sum: ranks "
                f"{psi.src.ranks} vs {declared.ranks}")
    if step.target != cone(psi):
        return "target is not the cone of the attaching map"
    return ""
