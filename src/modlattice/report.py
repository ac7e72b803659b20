"""Certificate reports shared by all checking operations."""

import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


def jsonable(value):
    """Recursively convert exact values into JSON friendly ones."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return str(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


@dataclass
class CertReport:
    """Outcome of one certification run.

    A fail verdict carries a concrete witness in `witnesses`; an
    inconclusive verdict carries a budget or precision hint in `details`.
    A report holds no timing, so equal reports say the same thing.
    """

    check: str
    verdict: str
    inputs: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    @property
    def ok(self):
        return self.verdict == PASS

    def to_dict(self):
        return {
            "check": self.check,
            "verdict": self.verdict,
            "inputs": jsonable(self.inputs),
            "details": jsonable(self.details),
            "witnesses": jsonable(self.witnesses),
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=1, sort_keys=True)

    def render(self):
        lines = ["[%s] %s" % (self.verdict, self.check)]
        for k in sorted(self.inputs):
            lines.append("  %s: %s" % (k, jsonable(self.inputs[k])))
        for k in sorted(self.details):
            lines.append("  %s: %s" % (k, jsonable(self.details[k])))
        if isinstance(self.witnesses, dict):
            for k in sorted(self.witnesses):
                lines.append("  witness %s: %s" % (k, jsonable(self.witnesses[k])))
        elif self.witnesses:
            for w in self.witnesses:
                lines.append("  witness: %s" % (jsonable(w),))
        return "\n".join(lines)
