"""Shared helpers for the baseline-detector tests."""

import numpy as np

from repro.baselines.fetch_like import _MAX_INSN, _stack_effects


def array_stack_effect(raw: bytes, bits: int) -> int:
    """FETCH's array stack-effect model applied to one instruction."""
    code = np.frombuffer(bytes(raw) + bytes(_MAX_INSN + 1), dtype=np.uint8)
    return int(_stack_effects(code, np.zeros(1, dtype=np.int64),
                              np.array([len(raw)]), bits)[0])
