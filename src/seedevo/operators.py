"""Task operator vocabulary.

An operator names the kind of task a run is seeded with: start from
scratch, continue a parent, ablate it, merge two parents, bootstrap
from external material, or run an exploratory analysis.  Everything
else in the package treats operators as opaque identifiers.

Declaration order is the sampling order: the allocator lays the
active operators out in this order for its categorical draws, so a
run samples the same way whatever order its config lists them in.
"""

from __future__ import annotations

from enum import Enum


class Operator(str, Enum):
    INITIAL = "initial"
    CONTINUE = "continue"
    ABLATION = "ablation"
    MERGE = "merge"
    JUMPSTART = "jumpstart"
    EDA = "eda"

    def __str__(self) -> str:  # keep log/CSV output plain
        return self.value
