"""Operator descriptions for user-defined operators.

Algorithm 2 treats unknown operators as black boxes ("Nothing is known
about the semantics of these operators"); the paper's future-work
remark — "more sophisticated techniques for identifying shareable user
defined operators involve the development of suitable operator
descriptions providing the necessary meta data" — is realized here for
the *cost-model* half of the problem: a :class:`UdfDescription`
declares how an operator transforms stream rate and item size, so
plans containing UDF stages can be costed instead of assumed
rate-neutral.

Descriptions are deliberately conservative: without one, a UDF is
assumed to preserve both size and frequency (the safest neutral
default); with one, the declared factors are the ``udf`` rule of
:data:`repro.costmodel.rates.RATE_RULES`: they scale the stream's
estimated rate and the frequency every later pipeline stage is charged
at.  The flow pass's interval stays ⊤ — a description is an
expectation, not a bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class UdfDescription:
    """Declared cost metadata of one user-defined operator.

    Attributes
    ----------
    name:
        The operator name (matches :class:`repro.properties.UdfSpec`).
    selectivity:
        Expected output/input item ratio (1.0 = keeps every item;
        0.2 = drops 80 %; values > 1 fan out).
    size_factor:
        Expected output/input serialized-size ratio (1.0 = unchanged).
    base_load:
        Work units charged per input item; defaults to the generic
        ``udf`` base load when ``None``.
    """

    name: str
    selectivity: float = 1.0
    size_factor: float = 1.0
    base_load: Optional[float] = None

    def __post_init__(self) -> None:
        if self.selectivity < 0:
            raise ValueError(f"UDF {self.name!r}: selectivity cannot be negative")
        if self.size_factor <= 0:
            raise ValueError(f"UDF {self.name!r}: size factor must be positive")
        if self.base_load is not None and self.base_load < 0:
            raise ValueError(f"UDF {self.name!r}: base load cannot be negative")


class DescriptionRegistry:
    """Registry of declared operator descriptions."""

    def __init__(self) -> None:
        self._descriptions: Dict[str, UdfDescription] = {}

    def register(self, description: UdfDescription) -> None:
        if description.name in self._descriptions:
            raise ValueError(f"description for {description.name!r} already registered")
        self._descriptions[description.name] = description

    def lookup(self, name: str) -> Optional[UdfDescription]:
        return self._descriptions.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._descriptions


#: Process-wide default registry consulted by the estimator.
DEFAULT_DESCRIPTIONS = DescriptionRegistry()
