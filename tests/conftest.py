import pytest

from hiermpc import solver


@pytest.fixture
def kkt_solves(monkeypatch):
    """The factors of every `solver._kkt_solve` call the test makes: the
    rho = 0 solves of a `KKTFactors` are the calls with its `by_rho[0.0]`."""
    factors = []
    kkt_solve = solver._kkt_solve
    monkeypatch.setattr(solver, "_kkt_solve", lambda factor, rhs:
                        factors.append(factor) or kkt_solve(factor, rhs))
    return factors
