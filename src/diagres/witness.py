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
checks.  A weakly product generator carries a cone certificate whose
endpoints must be declared product objects; a generator declared product
is taken as declared, and nothing checks that it is one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .complexes import (ChainComplex, ChainMap, DiagonalSpec, InputDataError,
                        QisoResult, cone, direct_sum, shift, verify_diagonal_qiso,
                        zero_complex)


@dataclass
class ConeCertificate:
    """Weak productness via the cone of a morphism of product bimodules."""

    source_label: str
    target_label: str


@dataclass
class GeneratorDecl:
    label: str
    kind: str  # 'product' | 'weakly_product'
    certificate: Optional[ConeCertificate] = None

    def __post_init__(self):
        if self.kind not in ("product", "weakly_product"):
            raise InputDataError(f"unknown generator kind {self.kind!r}")
        if self.kind == "weakly_product" and not isinstance(self.certificate,
                                                             ConeCertificate):
            raise InputDataError(
                f"weakly_product generator {self.label!r} needs a cone certificate")


@dataclass
class DeclaredSummand:
    label: str
    shift: int = 0
    multiplicity: int = 1
    model: Optional[ChainComplex] = None


@dataclass
class WitnessStep:
    """R_i = cone(step_map); step_map is psi_i, and None for step 0 (R_0 = S_0).

    A witness whose charts carry the algebra leaves its own targets None.
    """

    step_map: Optional[ChainMap]
    target: Optional[ChainComplex]
    summands: list


@dataclass
class GenerationWitness:
    generators: list
    steps: list
    claimed_time: int
    final_diagonal: Optional[DiagonalSpec] = None
    auxiliary_products: tuple = ()
    charts: tuple = ()  # local witnesses; conclusion names the chart
    conclusion: str = ""


@dataclass
class WitnessReport:
    passed: bool
    messages: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    final_result: Optional[QisoResult] = None


def verify_witness(w: GenerationWitness,
                   chart_suite_passed: Optional[bool] = None) -> WitnessReport:
    if w.claimed_time < 0:
        raise InputDataError(f"claimed generation time {w.claimed_time} is negative")
    for x in (w, *w.charts):
        if len(x.steps) != w.claimed_time + 1:
            raise InputDataError(
                f"witness has {len(x.steps)} steps but claims generation time {w.claimed_time}")
    declared = {g.label: g for g in w.generators}
    closure = set(declared) | set(w.auxiliary_products)
    for step in w.steps:
        for s in step.summands:
            if s.label not in declared:
                raise InputDataError(f"step cites undeclared label {s.label!r}")

    report = WitnessReport(passed=True)

    for g in w.generators:
        if g.kind != "weakly_product":
            continue
        for lab in (g.certificate.source_label, g.certificate.target_label):
            if lab not in closure:
                raise InputDataError(
                    f"certificate of {g.label!r} cites undeclared label {lab!r}")
            if lab in declared and declared[lab].kind == "weakly_product":
                report.problems.append(
                    f"{g.label}: cone certificate endpoint {lab} is not a product object")

    for local in w.charts or (w,):
        where = f"{local.conclusion}: " if w.charts else ""
        prev = None
        for idx, step in enumerate(local.steps):
            why = _check_step(step, idx, prev)
            if why:
                report.problems.append(f"{where}step {idx}: {why}")
            prev = step.target
        if local.final_diagonal is None and chart_suite_passed is None:
            raise InputDataError("witness has neither a final diagonal nor chart results")
        if local.final_diagonal is None:
            continue
        if prev is None:
            report.problems.append(f"{where}no final complex")
            continue
        try:
            result = verify_diagonal_qiso(prev, local.final_diagonal)
        except InputDataError as exc:
            report.problems.append(f"{where}final complex fails diagonal check: {exc}")
            continue
        report.final_result = result
        if not result.passed:
            f = result.first_failure()
            report.problems.append(f"{where}final complex fails diagonal check: "
                                   f"{f.condition} at degree {f.degree}")
    if chart_suite_passed is False:
        report.problems.append("chart verification suite failed")

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


def _same(a: ChainComplex, b: ChainComplex) -> bool:
    return a is b or a == b


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
        if _same(step.target, declared):
            return ""
        return ("target does not match the declared sum: ranks "
                f"{step.target.ranks} vs {declared.ranks}")
    psi = step.step_map
    if psi is None:
        return "no attaching map"
    if prev is None or not _same(psi.tgt, prev):
        return "attaching map does not end at the previous step's target"
    if not _same(psi.src, declared):
        return ("attaching map's source does not match the declared sum: ranks "
                f"{psi.src.ranks} vs {declared.ranks}")
    if not _same(step.target, cone(psi)):
        return "target is not the cone of the attaching map"
    return ""
