"""FunSeeker core: the paper's function-identification algorithm."""

from repro.core.disassemble import (
    BranchSite,
    SweepResult,
    disassemble,
    disassemble_robust,
)
from repro.core.filter_endbr import filter_endbr
from repro.core.funseeker import (
    Config,
    FunSeeker,
    FunSeekerResult,
    identify_functions,
)
from repro.core.indirect_return import (
    INDIRECT_RETURN_FUNCTIONS,
    is_indirect_return_name,
)
from repro.core.robust import RobustFunSeeker
from repro.core.tailcall import select_tail_calls

__all__ = [
    "BranchSite",
    "Config",
    "FunSeeker",
    "FunSeekerResult",
    "INDIRECT_RETURN_FUNCTIONS",
    "RobustFunSeeker",
    "SweepResult",
    "disassemble_robust",
    "disassemble",
    "filter_endbr",
    "identify_functions",
    "is_indirect_return_name",
    "select_tail_calls",
]
