"""Shared oracle: the worst-case linear program, solved by HiGHS."""

import numpy as np
import pytest
from scipy.optimize import linprog

from passiveqkd import coefficient_a


def solve_worst_case_lp(eta, mu, n_cols):
    """Optimum and basic solution of the worst-case LP truncated at n_cols.

    Maximizes sum_{k >= 2} a_k P(k) over P(0..n_cols-1) >= 0, subject to the
    mean row sum_k k P(k) = mu and the normalization row sum_k P(k) = 1.
    """
    ks = np.arange(n_cols)
    objective = np.zeros(n_cols)
    objective[2:] = coefficient_a(ks[2:], eta)
    res = linprog(-objective, A_eq=np.vstack([ks, np.ones(n_cols)]), b_eq=[mu, 1.0],
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun, res.x


@pytest.fixture
def worst_case_lp():
    return solve_worst_case_lp
