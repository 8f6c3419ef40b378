"""Retired: the incremental solving engine.

Windows are solved from scratch by
:class:`~repro.asp.solving.solver.StableModelSolver`, which was as fast as
repairing per-track solver state across slides and needs no state at all.
Only the :class:`SolverCache` name is left, because the repository
benchmark (``bench_e2e/workloads.py``) still constructs one.
"""

from __future__ import annotations

__all__ = ["SolverCache"]


class SolverCache:
    """Retired and ignored: holds nothing and changes nothing.

    Kept as an empty class only while the repository benchmark still
    builds one and passes it to ``StreamSession(solver_cache=)``, which
    drops it.  Delete both once the benchmark stops naming them.
    """
