"""Machine-readable outcomes of inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .rational import format_rational


@dataclass(frozen=True)
class VerificationReport:
    """One checked instance: the exact cross-powered comparands and a verdict.

    ``lhs`` and ``rhs`` are the rationals actually compared (after clearing
    fractional powers); ``witness`` is a minimizing/counterexample id list and
    ``details`` carries check-specific extras, already JSON-ready.
    """

    instance: str
    theorem: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    witness: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "instance": self.instance,
            "theorem": self.theorem,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
            "witness": list(self.witness),
            "details": self.details,
        }


CSV_COLUMNS = ("instance", "theorem", "lhs", "rhs", "holds", "witness", "millis")


def csv_row(doc: dict) -> list[str]:
    import json

    return [
        doc["instance"],
        doc["theorem"],
        doc["lhs"],
        doc["rhs"],
        str(doc["holds"]).lower(),
        json.dumps(doc["witness"], separators=(",", ":")),
        str(doc.get("millis", 0)),
    ]
