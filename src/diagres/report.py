"""Machine- and human-readable verification reports.

A report's verdict is "pass" or "fail"; an input error is raised, never
reported.  Identical runs produce byte-identical JSON except for the timing
field, which is excluded from the determinism guarantee: a reader that
compares reports drops it.

Every report is built here.  ``verdict_report`` makes every diagonal or
exactness report, from a ``VerificationEntry``: a catalog entry, a cycle
chart or a job file's complex.  It needs no catalog build code, so
``verify --job`` imports none.  ``witness_report`` makes the witness report
and ``combined_report`` the report over several.
"""

from __future__ import annotations

import json
import time
from typing import Optional

from .complexes import ChainComplex, DiagonalSpec, exact_everywhere, verify_diagonal_qiso
from .polyring import QuotientRing
from .scalars import field_spec_str
from .witness import GenerationWitness, verify_witness

SCHEMA_VERSION = 1


class VerificationReport:
    def __init__(self, name: str, verdict: str, field_used: str,
                 conditions: Optional[list] = None, messages: Optional[list] = None,
                 notes: Optional[list] = None, window: Optional[list] = None,
                 timing_seconds: Optional[float] = None,
                 subreports: Optional[list] = None):
        self.name = name
        self.verdict = verdict            # 'pass' | 'fail'
        self.field_used = field_used      # 'q' or 'fp:P'
        self.conditions = [] if conditions is None else conditions
        self.messages = [] if messages is None else messages
        self.notes = [] if notes is None else notes
        self.window = window
        self.timing_seconds = timing_seconds
        self.subreports = [] if subreports is None else subreports

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        d = {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "verdict": self.verdict,
            "field": self.field_used,
            "conditions": self.conditions,
            "messages": self.messages,
            "notes": self.notes,
        }
        if self.window is not None:
            d["window"] = list(self.window)
        if self.subreports:
            d["subreports"] = [s.to_dict() for s in self.subreports]
        if self.timing_seconds is not None:
            d["timing_seconds"] = self.timing_seconds
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def render_text(self, indent: str = "") -> str:
        lines = [f"{indent}{self.name}: {self.verdict.upper()}"
                 + (f"  [{self.field_used}]" if not indent else "")]
        for c in self.conditions:
            mark = "ok" if c["passed"] else "FAIL"
            where = f" @ degree {c['degree']}" if c.get("degree") is not None else ""
            detail = f"  ({c['detail']})" if c.get("detail") else ""
            lines.append(f"{indent}  {c['condition']}{where}: {mark}{detail}")
        for m in self.messages:
            lines.append(f"{indent}  {m}")
        for nline in self.notes:
            lines.append(f"{indent}  note: {nline}")
        for sub in self.subreports:
            lines.append(sub.render_text(indent + "  "))
        if self.timing_seconds is not None and not indent:
            lines.append(f"{indent}  time: {self.timing_seconds:.2f}s")
        return "\n".join(lines)


class VerificationEntry:
    """A complex and the verdict expected of it: 'qiso_to_diagonal' against
    diagonal, or 'exact_everywhere' in window.  A verdict on a truncated
    model adds truncation_note, formatted with its window.  witness, chart
    (i, j) and kind are catalog data.  Construction checks nothing: the
    verdict itself raises InputDataError on a complex with d*d != 0 (the
    check is memoized on the complex)."""

    def __init__(self, name: str, ring: QuotientRing, complex: ChainComplex,
                 diagonal: Optional[DiagonalSpec],
                 witness: Optional[GenerationWitness] = None,
                 notes: Optional[list] = None, expectation: str = "qiso_to_diagonal",
                 window: Optional[tuple] = None,
                 truncation_note: str = ("truncated free models in play: verdict "
                                         "claimed only in the degree window {}"),
                 chart: Optional[tuple] = None, kind: Optional[str] = None):
        self.name = name
        self.ring = ring
        self.complex = complex
        self.diagonal = diagonal
        self.witness = witness
        self.notes = [] if notes is None else notes
        self.expectation = expectation
        self.window = window
        self.truncation_note = truncation_note
        self.chart = chart
        self.kind = kind


def verdict_report(entry: VerificationEntry) -> VerificationReport:
    """The entry's verdict as a report; an InputDataError propagates."""
    t0 = time.time()
    if entry.expectation == "exact_everywhere":
        result = exact_everywhere(entry.complex, window=entry.window)
    else:
        result = verify_diagonal_qiso(entry.complex, entry.diagonal)
    notes = list(entry.notes)
    if result.truncated:
        notes.append(entry.truncation_note.format(tuple(result.window)))
    return VerificationReport(
        name=entry.name,
        verdict="pass" if result.passed else "fail",
        field_used=field_spec_str(entry.ring.field),
        conditions=[{"condition": c.condition, "degree": c.degree,
                     "passed": c.passed, "detail": c.detail}
                    for c in result.conditions],
        notes=notes,
        window=list(result.window),
        timing_seconds=time.time() - t0,
    )


def witness_report(witness: GenerationWitness, name: str, field_used: str) -> VerificationReport:
    """The witness's verify_witness verdict as a report."""
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


def combined_report(name: str, field_used: str, subreports: list, notes=()) -> VerificationReport:
    """One report over subreports: pass iff every one passes."""
    verdict = "pass" if all(s.passed for s in subreports) else "fail"
    return VerificationReport(name, verdict, field_used, notes=list(notes),
                              subreports=list(subreports))
