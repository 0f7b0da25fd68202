import pytest

from routesmith import lns
from routesmith.instances import GenParams, generate
from routesmith.model import Problem


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # build or load the compiled kernels once, outside any timed assertion
    lns.warm_kernels()


@pytest.fixture
def gen():
    def _gen(problem="cvrp", n=20, seed=0, capacity=30, **kw):
        return generate(
            GenParams(problem=Problem.parse(problem), n=n, seed=seed, capacity=capacity, **kw)
        )

    return _gen
