"""Edge cases for the obs analytics.

Degenerate traces the fuzzer can produce — zero-constraint solves,
single-cycle convergence, warm re-solves whose dirty frontier is empty —
must flow through ``doctor_report``/``solve_passes`` without crashing,
and an empty trace must fail with a typed error.
"""

from dataclasses import replace

import pytest

from repro import obs
from repro.core.session import SolveSession
from repro.errors import TraceAnalysisError
from repro.obs import analysis
from repro.scenarios import build_scenario, spec_from_seed


def _scenario():
    return build_scenario(replace(spec_from_seed(0), faults=None))


def _traced_session(constraints, max_cycles=1, resolve_empty=False):
    scenario = _scenario()
    tracer = obs.Tracer()
    session = SolveSession(
        scenario.fresh_hierarchy(),
        constraints,
        batch_size=4,
        options=scenario.options,
    )
    try:
        with obs.tracing(tracer):
            session.solve(
                scenario.initial_estimate(), max_cycles=max_cycles, tol=1e9
            )
            if resolve_empty:
                result = session.resolve(scope="dirty")
                assert result.n_dirty == 0
    finally:
        session.close()
    return tracer


class TestDoctorDegenerateTraces:
    def test_zero_constraint_solve_trace(self):
        tracer = _traced_session([])
        report = obs.doctor_report(tracer)
        assert report["passes"]

    def test_single_cycle_convergence_trace(self):
        scenario = _scenario()
        tracer = _traced_session(scenario.problem.constraints, max_cycles=1)
        report = obs.doctor_report(tracer)
        assert len(report["passes"]) == 1

    def test_empty_dirty_frontier_resolve_trace(self):
        """A no-op warm resolve records a cycle with no recomputed nodes;
        the pass extractor must drop it instead of dividing by zero."""
        scenario = _scenario()
        tracer = _traced_session(
            scenario.problem.constraints, resolve_empty=True
        )
        report = obs.doctor_report(tracer)
        assert report["passes"]
        passes = analysis.solve_passes(tracer)
        assert all(p.nodes for p in passes)

    def test_empty_trace_raises_typed_error(self):
        with pytest.raises(TraceAnalysisError, match="no 'cycle' spans"):
            analysis.solve_passes(obs.Tracer())
        with pytest.raises(TraceAnalysisError):
            obs.doctor_report(obs.Tracer())
