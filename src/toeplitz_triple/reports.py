"""Structured results of identity and property checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """Outcome of a single identity/property verification.

    ``max_deviation`` is the residual the check measured (entrywise or in
    norm), ``margin`` the interior margin used to clear truncation collars
    (None when not applicable), and ``details`` any extra named residuals.
    """

    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    n: int
    margin: int | None = None
    details: dict = field(default_factory=dict)
