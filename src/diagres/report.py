"""Machine- and human-readable verification reports.

A report is a plain dict-backed structure with a stable JSON encoding:
parse(emit(report)) == report, and identical runs produce byte-identical
JSON except for the timing field, which is excluded from the determinism
guarantee.

``verdict_report`` makes every diagonal or exactness report, from a
``VerificationEntry``: a catalog entry, a cycle chart or a job file's
complex.  It needs no catalog build code, so ``verify --job`` imports none.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from .complexes import ChainComplex, DiagonalSpec, exact_everywhere, verify_diagonal_qiso
from .polyring import QuotientRing
from .scalars import field_spec_str
from .witness import GenerationWitness

SCHEMA_VERSION = 1


@dataclass
class VerificationReport:
    name: str
    verdict: str                 # 'pass' | 'fail' | 'error'
    field_used: str              # 'q' or 'fp:P'
    conditions: list = field(default_factory=list)
    messages: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    window: Optional[list] = None
    timing_seconds: Optional[float] = None
    error: Optional[str] = None
    subreports: list = field(default_factory=list)

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
        if self.error is not None:
            d["error"] = self.error
        if self.subreports:
            d["subreports"] = [s.to_dict() for s in self.subreports]
        if self.timing_seconds is not None:
            d["timing_seconds"] = self.timing_seconds
        return d

    def to_json(self, with_timing: bool = True) -> str:
        d = self.to_dict()
        if not with_timing:
            def strip(node):
                node.pop("timing_seconds", None)
                for sub in node.get("subreports", ()):
                    strip(sub)
            strip(d)
        return json.dumps(d, indent=2, sort_keys=True)

    @staticmethod
    def from_dict(d: dict) -> "VerificationReport":
        return VerificationReport(
            name=d["name"],
            verdict=d["verdict"],
            field_used=d["field"],
            conditions=d.get("conditions", []),
            messages=d.get("messages", []),
            notes=d.get("notes", []),
            window=tuple(d["window"]) if "window" in d else None,
            timing_seconds=d.get("timing_seconds"),
            error=d.get("error"),
            subreports=[VerificationReport.from_dict(s)
                        for s in d.get("subreports", [])],
        )

    @staticmethod
    def from_json(text: str) -> "VerificationReport":
        return VerificationReport.from_dict(json.loads(text))

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
        if self.error:
            lines.append(f"{indent}  error: {self.error}")
        for sub in self.subreports:
            lines.append(sub.render_text(indent + "  "))
        if self.timing_seconds is not None and not indent:
            lines.append(f"{indent}  time: {self.timing_seconds:.2f}s")
        return "\n".join(lines)


@dataclass
class VerificationEntry:
    """A complex and the verdict expected of it: 'qiso_to_diagonal' against
    diagonal, or 'exact_everywhere' in window.  A verdict on a truncated
    model adds truncation_note, formatted with its window.  witness, chart
    (i, j) and kind are catalog data.  Construction checks nothing: the
    verdict itself raises InputDataError on a complex with d*d != 0 (the
    check is memoized on the complex)."""

    name: str
    ring: QuotientRing
    complex: ChainComplex
    diagonal: Optional[DiagonalSpec]
    witness: Optional[GenerationWitness] = None
    notes: list = field(default_factory=list)
    expectation: str = "qiso_to_diagonal"
    window: Optional[tuple] = None
    truncation_note: str = ("truncated free models in play: verdict claimed only in "
                            "the degree window {}")
    chart: Optional[tuple] = None
    kind: Optional[str] = None


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
