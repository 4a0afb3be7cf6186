"""The verification farm: parallel what-if sweeps over one snapshot.

The paper's workload is thousands of *independent* queries against one
dataplane (§4.2); this package exploits that structure:

* :mod:`repro.farm.scenarios` — turn one network into a sweep of
  independent what-if jobs (failure combinations, per-link audits,
  query suites), each a baseline plus the links failed in it;
* :mod:`repro.farm.pool` — execute jobs on a process pool, one engine
  per job on a variant the job derives from the run's baseline, with
  crash containment;
* :mod:`repro.farm.jobs` — asynchronous runs with live progress and
  cancellation (the server's job API);
* :mod:`repro.farm.store` — the content-hash disk store that lets
  sibling processes reuse compiled queries and see each other's runs.

Entry points most callers want: ``BatchVerifier(engine, jobs=N)`` for
plain suites, or ``scenarios → scenarios_to_jobs → run_jobs`` /
``JobManager.submit`` for sweeps.
"""

from repro.farm.jobs import FarmRun, JobManager
from repro.farm.pool import EngineConfig, FarmJob, execute_job, run_jobs
from repro.farm.scenarios import (
    Scenario,
    failure_scenarios,
    link_audit_scenarios,
    probabilistic_scenarios,
    scenarios_to_jobs,
    suite_scenarios,
    sweep_size,
)
from repro.farm.store import hash_text

__all__ = [
    "EngineConfig",
    "FarmJob",
    "FarmRun",
    "JobManager",
    "Scenario",
    "execute_job",
    "failure_scenarios",
    "hash_text",
    "link_audit_scenarios",
    "probabilistic_scenarios",
    "run_jobs",
    "scenarios_to_jobs",
    "suite_scenarios",
    "sweep_size",
]
