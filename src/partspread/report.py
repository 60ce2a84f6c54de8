"""Structured check records shared by the verification checks and the CLI.

One record per parameter point, fixed field order:

    name TAB params TAB lhs TAB rhs TAB margin TAB verdict

All fields are deterministic strings; exact values print as integers or
'p/q' rationals so that reruns with the same inputs are byte-identical.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

# exact rationals in records can exceed the default int->str conversion cap
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

FIELDS = ("name", "params", "lhs", "rhs", "margin", "verdict")

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"
INFO = "info"
FINDING = "finding"
VACUOUS = "vacuous"
GATED = "gated"


def fmt(value) -> str:
    """Canonical text for record fields: exact rationals stay exact."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class Record:
    name: str
    params: str
    lhs: str
    rhs: str
    margin: str
    verdict: str

    @classmethod
    def make(cls, name: str, params: dict, lhs, rhs, margin, verdict: str) -> "Record":
        ptxt = ",".join(f"{k}={fmt(v)}" for k, v in params.items()) or "-"
        return cls(name, ptxt, fmt(lhs), fmt(rhs), fmt(margin), verdict)

    def line(self) -> str:
        return "\t".join((self.name, self.params, self.lhs, self.rhs, self.margin, self.verdict))


@dataclass
class CheckReport:
    """Outcome of one named check over a parameter range."""

    name: str
    params: dict
    points: list[Record] = field(default_factory=list)
    gates: list[Record] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, params: dict, lhs, rhs, margin, verdict: str) -> Record:
        rec = Record.make(self.name, params, lhs, rhs, margin, verdict)
        self.points.append(rec)
        return rec

    def check(
        self, params: dict, lhs, rhs, margin, holds: bool, asserted: bool = True, miss: str = FAIL
    ) -> bool:
        """Record one point: pass if it holds, else `miss`, and info where the
        point is not asserted (its hypotheses fail).  Returns holds."""
        self.add(params, lhs, rhs, margin, (PASS if holds else miss) if asserted else INFO)
        return holds

    def compare(self, params: dict, lhs, rhs, asserted: bool = True, miss: str = FAIL) -> bool:
        """`check` the point lhs >= rhs, with margin lhs/rhs - 1."""
        return self.check(params, lhs, rhs, Fraction(lhs) / rhs - 1, lhs >= rhs, asserted, miss)

    def gate(self, label: str, holds: bool) -> bool:
        """Record the hypothesis gate `label`: pass if it holds, else gated.

        Gate records print right after the head.  A gate asserts nothing, so
        it never counts toward the head.  Returns holds.
        """
        self.gates.append(
            Record.make(self.name, {"gate": label}, "-", "-", "-", PASS if holds else GATED)
        )
        return holds

    @property
    def verdict(self) -> str:
        """The head, from the points with gates aside: fail if a point fails,
        else finding if a point is one, else vacuous if a point is vacuous or
        no point asserts anything (every one is info or gated, or there is
        none), else pass."""
        verdicts = {r.verdict for r in self.points}
        if FAIL in verdicts:
            return FAIL
        if FINDING in verdicts:
            return FINDING
        if VACUOUS in verdicts or verdicts <= {INFO, GATED}:
            return VACUOUS
        return PASS

    def records(self) -> list[Record]:
        """The head record with the overall verdict, then the gates, the points and the notes."""
        head = Record.make(self.name, self.params, "-", "-", "-", self.verdict)
        notes = [Record.make(self.name + "-note", {}, "-", "-", n, INFO) for n in self.notes]
        return [head] + self.gates + self.points + notes


def records_to_text(records: list[Record]) -> str:
    return "\n".join(r.line() for r in records) + ("\n" if records else "")


def records_to_table(records: list[Record]) -> str:
    rows = [FIELDS] + [
        (r.name, r.params, r.lhs, r.rhs, r.margin, r.verdict) for r in records
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(FIELDS))]
    out = []
    for row in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"
