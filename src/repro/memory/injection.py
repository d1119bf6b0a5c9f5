"""Binding fault models to physical memory cells.

A :class:`FaultInstance` is what the simulator executes: one or two
fault primitives bound to concrete cell addresses.  Simple faults bind
a single FP; linked faults bind both components so that masking can
emerge operationally (semantics in :mod:`repro.memory.sram`).

The binding keeps the declaration order of the FPs: when one memory
operation sensitizes several bound primitives their effects apply in
that order, matching Definition 6's "S2 is applied after S1".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.faults.linked import LinkedFault
from repro.faults.primitives import AGGRESSOR, FaultPrimitive, VICTIM


@dataclass(frozen=True)
class BoundPrimitive:
    """A fault primitive attached to physical cell addresses.

    Attributes:
        fp: the primitive.
        aggressor: address of the aggressor cell (``None`` for
            single-cell primitives, whose only cell is the victim).
        victim: address of the victim cell.
    """

    fp: FaultPrimitive
    aggressor: Optional[int]
    victim: int

    def __post_init__(self) -> None:
        if self.fp.cells == 1 and self.aggressor is not None:
            raise ValueError("single-cell primitives bind no aggressor")
        if self.fp.cells == 2:
            if self.aggressor is None:
                raise ValueError("two-cell primitives need an aggressor")
            if self.aggressor == self.victim:
                raise ValueError("aggressor and victim must differ")

    def role_of(self, address: int) -> Optional[str]:
        """The role *address* plays for this primitive, if any."""
        if address == self.victim:
            return VICTIM
        if self.aggressor is not None and address == self.aggressor:
            return AGGRESSOR
        return None

    def operation_cell(self) -> Optional[int]:
        """The address the sensitizing operation targets (state faults
        and wait-sensitized faults return the victim)."""
        if self.fp.op_role == AGGRESSOR:
            return self.aggressor
        return self.victim

    def __str__(self) -> str:
        if self.aggressor is None:
            return f"{self.fp.name}@v{self.victim}"
        return f"{self.fp.name}@a{self.aggressor}v{self.victim}"


@dataclass(frozen=True)
class FaultInstance:
    """An executable fault: bound primitives plus a display name.

    Use the constructors :meth:`from_simple` and :meth:`from_linked`
    rather than building instances by hand.
    """

    name: str
    primitives: Tuple[BoundPrimitive, ...]

    def __post_init__(self) -> None:
        if not self.primitives:
            raise ValueError("a fault instance binds at least one primitive")

    @classmethod
    def from_simple(
        cls,
        fp: FaultPrimitive,
        victim: int,
        aggressor: Optional[int] = None,
    ) -> "FaultInstance":
        """Bind a single (unlinked) fault primitive."""
        bound = BoundPrimitive(fp, aggressor, victim)
        return cls(name=f"{fp.name}[{bound}]", primitives=(bound,))

    @classmethod
    def from_linked(
        cls, fault: LinkedFault, cells: Sequence[int]
    ) -> "FaultInstance":
        """Bind a linked fault to concrete cells.

        Args:
            fault: the linked fault.
            cells: addresses for the fault's global roles, in the order
                of :attr:`LinkedFault.role_labels` (victim last); e.g.
                ``(a1, a2, v)`` for an LF3.
        """
        if len(cells) != fault.cells:
            raise ValueError(
                f"{fault.name} involves {fault.cells} cells, "
                f"got {len(cells)} addresses")
        if len(set(cells)) != len(cells):
            raise ValueError("role addresses must be distinct")
        bound = []
        for which, fp in ((1, fault.fp1), (2, fault.fp2)):
            a_role, v_role = fault.fp_roles(which)
            bound.append(BoundPrimitive(
                fp,
                None if a_role is None else cells[a_role],
                cells[v_role],
            ))
        placement = ",".join(
            f"{label}={cell}"
            for label, cell in zip(fault.role_labels, cells))
        return cls(
            name=f"{fault.name}[{placement}]",
            primitives=tuple(bound),
        )

    @property
    def cells(self) -> Tuple[int, ...]:
        """Every distinct address the instance touches, sorted."""
        addresses = set()
        for bp in self.primitives:
            addresses.add(bp.victim)
            if bp.aggressor is not None:
                addresses.add(bp.aggressor)
        return tuple(sorted(addresses))

    def max_cell(self) -> int:
        """Highest bound address (to size the simulated memory)."""
        return max(self.cells)

    def __str__(self) -> str:
        return self.name
