"""Size caps shared across the library.

Lattice enumeration and Hom-element enumeration are exponential in the worst
case; every potentially explosive operation takes a cap and fails loudly with
:class:`CapExceeded` instead of silently truncating.
"""

from __future__ import annotations

from collections import namedtuple


class Caps(namedtuple("Caps", "max_module_order max_lattice", defaults=(4096, 5000))):
    __slots__ = ()


DEFAULT_CAPS = Caps()

# |End(M)| past which annihilator_lattice is not reported, and M (+) N is
# not tried for quasi-projectivity
MAX_END_ELEMENTS = 4096


class CapExceeded(Exception):
    """A configured size cap was hit; carries what was being counted."""

    def __init__(self, what: str, partial_count: int, cap: int):
        super().__init__(f"{what}: reached {partial_count} with cap {cap}")
        self.what = what
        self.partial_count = partial_count
        self.cap = cap
