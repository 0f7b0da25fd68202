"""Load externally supplied operator source into runnable operator pairs.

A candidate is a Python module text defining::

    def select_by_llm_1(sol): ...            # customers to remove
    def sort_by_llm_1(customers, instance):  # reorder in place or return

The module is executed with rng-backed helpers in scope (getRandomNumber,
getRandomFraction, getRandomFractionFast, argsort, shuffle) so candidate
code is deterministic under the engine's seeded generator. Candidates are
assumed hostile: the evaluator runs them in a separate supervised process,
and the engine sanitizes whatever they return.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from . import _kernels
from .errors import InputError
from .operators import OperatorPair

SHIM_VERSION = "1"
REQUIRED_FUNCTIONS = ("select_by_llm_1", "sort_by_llm_1")

# Canonical example implementation handed to the LLM as {seed_code} and
# used as the trivial baseline candidate.
SEED_SOURCE = '''\
def select_by_llm_1(sol):
    selected = set()
    n = sol.instance.num_customers
    k = min(getRandomNumber(10, 20), n)
    while len(selected) < k:
        selected.add(getRandomNumber(1, n))
    return list(selected)


def sort_by_llm_1(customers, instance):
    shuffle(customers)
'''


class CandidateBuildError(InputError):
    """Candidate source failed to compile or misses a required function."""


def check_source(source: str):
    """Syntax-check the source and verify both operator functions exist.

    Returns the compiled code object; never executes the module (that
    happens inside the evaluation child or an explicit runtime).
    """
    if not source or not source.strip():
        raise CandidateBuildError("candidate source is empty")
    try:
        tree = ast.parse(source, filename="<candidate>")
        code = compile(tree, "<candidate>", "exec")
    except SyntaxError as exc:
        raise CandidateBuildError(f"syntax error: {exc}") from exc
    defined = {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    missing = [name for name in REQUIRED_FUNCTIONS if name not in defined]
    if missing:
        raise CandidateBuildError(f"missing required function(s): {', '.join(missing)}")
    return code


def _make_helpers(holder: list):
    def getRandomNumber(lo: int, hi: int) -> int:
        # int(holder[0].integers(lo, hi + 1)), bit for bit
        return _kernels.integers(holder[0], lo, hi + 1)

    def getRandomFraction(lo: float = 0.0, hi: float = 1.0) -> float:
        return float(lo + (hi - lo) * holder[0].random())

    def getRandomFractionFast() -> float:
        return float(holder[0].random())

    def argsort(values) -> list[int]:
        return list(np.argsort(np.asarray(values, dtype=np.float64), kind="stable"))

    def shuffle(seq) -> None:
        holder[0].shuffle(seq)

    return {
        "getRandomNumber": getRandomNumber,
        "getRandomFraction": getRandomFraction,
        "getRandomFractionFast": getRandomFractionFast,
        "argsort": argsort,
        "shuffle": shuffle,
        "math": math,
        "np": np,
    }


class CandidateRuntime:
    """One compiled candidate, instantiable into operator pairs."""

    def __init__(self, source: str, label: str = "candidate"):
        self.source = source
        self.label = label
        self._code = check_source(source)

    def make_pair(self) -> OperatorPair:
        """Execute the module and wrap its functions in the operator contract."""
        holder = [None]
        namespace = _make_helpers(holder)
        exec(self._code, namespace)
        select = namespace["select_by_llm_1"]
        sort = namespace["sort_by_llm_1"]

        def remove(instance, solution, rng):
            holder[0] = rng
            return select(solution)

        def order(instance, ids, solution, rng):
            holder[0] = rng
            customers = list(ids)
            result = sort(customers, instance)
            return customers if result is None else result

        return OperatorPair(remove=remove, order=order, label=self.label, origin="external-candidate")
