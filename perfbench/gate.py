"""The outside check every best solution must pass."""

from __future__ import annotations


def solution_problems(model, instance, solution) -> list[str]:
    """``model.validate`` passes, and a rebuild through ``Solution.from_tours``
    validates and reproduces ``total_objective``."""
    problems = []
    report = model.validate(solution)
    if not report.feasible:
        problems.append(f"best solution infeasible: {report.violations[0]}")
    tours = [t.customers for t in solution.tours]
    rebuilt = model.Solution.from_tours(instance, tours, sorted(solution.unassigned))
    if not model.validate(rebuilt).feasible:
        problems.append("rebuilt solution infeasible")
    objective = solution.total_objective
    if abs(rebuilt.total_objective - objective) > 1e-9 * max(1.0, abs(objective)):
        problems.append(f"objective {objective!r} != rebuilt {rebuilt.total_objective!r}")
    return problems
