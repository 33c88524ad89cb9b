"""Size caps shared across the library.

Lattice enumeration and Hom-element enumeration are exponential in the worst
case; every potentially explosive operation takes a cap and fails loudly with
:class:`CapExceeded` instead of silently truncating.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Caps:
    max_module_order: int = 4096
    max_lattice: int = 5000
    max_hom_elements: int = 4096


DEFAULT_CAPS = Caps()


class CapExceeded(Exception):
    """A configured size cap was hit; carries what was being counted."""

    def __init__(self, what: str, partial_count: int, cap: int):
        super().__init__(f"{what}: reached {partial_count} with cap {cap}")
        self.what = what
        self.partial_count = partial_count
        self.cap = cap
