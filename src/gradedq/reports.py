"""Report structures shared by the verification suites and the CLI."""

from __future__ import annotations


class CheckReport:
    """Outcome of one named check with witness monomials on failure."""

    def __init__(self, check: str, passed: bool, witnesses: list[str] | None = None,
                 trials: int | None = None, seed: int | None = None):
        self.check = check
        self.passed = passed
        self.witnesses = [] if witnesses is None else witnesses
        self.trials = trials
        self.seed = seed

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def to_dict(self) -> dict:
        out = {"check": self.check, "status": self.status, "witnesses": list(self.witnesses)}
        if self.trials is not None:
            out["trials"] = self.trials
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def render(self) -> str:
        line = f"{self.check}: {self.status}"
        if self.witnesses:
            line += "  [witness: " + "; ".join(self.witnesses) + "]"
        return line


class SuiteReport:
    """A group of checks run together (e.g. one axiom suite)."""

    def __init__(self, name: str, seed: int | None = None, trials: int | None = None):
        self.name = name
        self.checks: list[CheckReport] = []
        self.seed = seed
        self.trials = trials

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "status": "PASS" if self.passed else "FAIL",
            "seed": self.seed,
            "trials": self.trials,
            "checks": [c.to_dict() for c in self.checks],
        }

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        lines.append(f"{self.name}: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def witnesses_of(element) -> list[str]:
    """The three leading offending monomials of a nonzero element (fewer if
    it has fewer), rendered, highest first."""
    return [element.render_mono(m) for m in element.monomials()[:-4:-1]]
