"""repro.par — deterministic parallel execution of independent subgroups.

See :mod:`repro.par.executor` for the fan-out machinery and determinism
contract, and :mod:`repro.par.subgroup` for the job shapes the
two-layer round dispatches.  ``docs/performance.md`` documents the
user-facing ``parallel={"off","threads"}`` knob.
"""

from .executor import PARALLEL_MODES, check_parallel_mode, run_jobs
from .subgroup import (
    FtSacJob,
    FtSacOutcome,
    SubgroupOutcome,
    SubgroupTask,
    run_ftsac_job,
    run_subgroup_round,
)

__all__ = [
    "PARALLEL_MODES",
    "check_parallel_mode",
    "run_jobs",
    "FtSacJob",
    "FtSacOutcome",
    "SubgroupOutcome",
    "SubgroupTask",
    "run_ftsac_job",
    "run_subgroup_round",
]
