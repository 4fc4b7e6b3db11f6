"""Functional-unit pool with per-unit busy tracking (Table 1).

Each unit records the next cycle at which it can accept an operation;
multi-cycle-occupancy ops (divides, square roots) therefore block their
unit for the ``issue interval`` of :data:`repro.isa.opcodes.FU_ASSIGNMENT`
while pipelined ops accept one operation per cycle.

The issue stage (``SMTProcessor._issue``) claims units directly through
the flat :data:`repro.isa.opcodes.OP_FU`/``OP_INTERVAL`` tables.
"""

from __future__ import annotations

from repro.config.machine import MachineConfig
from repro.isa.opcodes import FUClass


class FunctionalUnitPool:
    """All execution resources of the SMT core, shared by every thread."""

    __slots__ = ("_units", "issued_per_class")

    def __init__(self, cfg: MachineConfig) -> None:
        #: per FU class (list index == ``FUClass`` value): next-free
        #: cycle of each unit in the pool.
        self._units: list[list[int]] = [
            [0] * cfg.fu_int_alu,       # FUClass.INT_ALU
            [0] * cfg.fu_int_muldiv,    # FUClass.INT_MULDIV
            [0] * cfg.fu_mem_ports,     # FUClass.MEM_PORT
            [0] * cfg.fu_fp_add,        # FUClass.FP_ADD
            [0] * cfg.fu_fp_muldiv,     # FUClass.FP_MULDIV
        ]
        assert len(self._units) == len(FUClass)
        #: per FU class (list index == ``FUClass`` value): operations
        #: issued so far.
        self.issued_per_class: list[int] = [0] * len(FUClass)

    def reset(self) -> None:
        """Mark every unit idle (watchdog flush)."""
        for units in self._units:
            for i in range(len(units)):
                units[i] = 0
