"""Frozen expected values for the n = 3 basis, the bracket equations and
the hierarchy polynomials, written out with exact rational coefficients.

H-labels follow the weight grading: H_{m,i} sits at d^i in [P_m, L] and is
homogeneous of weight n + m - i.
"""

from fractions import Fraction as Q

from diffops.operators import DiffOperator
from diffops.polynomials import u, y


def op(coeffs: dict) -> DiffOperator:
    return DiffOperator.from_dict(coeffs)


L3 = op({3: 1, 1: u(2), 0: u(3)})

# --- bracket equations [L3, P~_m], coefficients top-down ------------------

# m = 2: the d^0 coefficient carries u2*y2' (weight-5 homogeneity forces the
# derivative; a flat u2*y2 term would have weight 4).
BRACKET_3_2 = {
    2: 3 * y(2, 1) - 2 * u(2, 1),
    1: 3 * y(2, 2) - u(2, 2) - 2 * u(3, 1),
    0: y(2, 3) + u(2) * y(2, 1) - u(3, 2),
}

BRACKET_3_4 = {
    4: 3 * y(2, 1) - 4 * u(2, 1),
    3: 3 * y(3, 1) + 3 * y(2, 2) - 6 * u(2, 2) - 4 * u(3, 1),
    2: 3 * y(4, 1)
    + 3 * y(3, 2)
    + y(2, 3)
    + u(2) * y(2, 1)
    - 2 * u(2, 1) * y(2)
    - 4 * u(2, 3)
    - 6 * u(3, 2),
    1: 3 * y(4, 2)
    + y(3, 3)
    + u(2) * y(3, 1)
    - u(2, 2) * y(2)
    - u(2, 1) * y(3)
    - 2 * u(3, 1) * y(2)
    - u(2, 4)
    - 4 * u(3, 3),
    0: y(4, 3)
    + u(2) * y(4, 1)
    - u(3, 2) * y(2)
    - u(3, 1) * y(3)
    - u(3, 4),
}

BRACKET_3_5 = {
    5: 3 * y(2, 1) - 5 * u(2, 1),
    4: 3 * y(3, 1) + 3 * y(2, 2) - 10 * u(2, 2) - 5 * u(3, 1),
    3: 3 * y(4, 1)
    + 3 * y(3, 2)
    + y(2, 3)
    + u(2) * y(2, 1)
    - 3 * u(2, 1) * y(2)
    - 10 * u(2, 3)
    - 10 * u(3, 2),
    2: 3 * y(5, 1)
    + 3 * y(4, 2)
    + y(3, 3)
    + u(2) * y(3, 1)
    - 3 * u(2, 2) * y(2)
    - 2 * u(2, 1) * y(3)
    - 3 * u(3, 1) * y(2)
    - 5 * u(2, 4)
    - 10 * u(3, 3),
    1: 3 * y(5, 2)
    + y(4, 3)
    + u(2) * y(4, 1)
    - u(2, 3) * y(2)
    - u(2, 2) * y(3)
    - u(2, 1) * y(4)
    - 3 * u(3, 2) * y(2)
    - 2 * u(3, 1) * y(3)
    - u(2, 5)
    - 5 * u(3, 4),
    0: u(2) * y(5, 1)
    - u(3, 3) * y(2)
    - u(3, 2) * y(3)
    - u(3, 1) * y(4)
    - u(3, 5)
    + y(5, 3),
}

# --- weighted solutions --------------------------------------------------

SOLUTION_3_2 = {2: Q(2, 3) * u(2)}

SOLUTION_3_4 = {
    2: Q(4, 3) * u(2),
    3: Q(2, 3) * u(2, 1) + Q(4, 3) * u(3),
    4: Q(2, 9) * u(2, 2) + Q(2, 3) * u(3, 1) + Q(2, 9) * u(2) ** 2,
}

SOLUTION_3_5 = {
    2: Q(5, 3) * u(2),
    3: Q(5, 3) * u(2, 1) + Q(5, 3) * u(3),
    4: Q(10, 9) * u(2, 2) + Q(5, 3) * u(3, 1) + Q(5, 9) * u(2) ** 2,
    5: Q(10, 9) * u(3, 2) + Q(10, 9) * u(2) * u(3),
}

# --- the basis operators ---------------------------------------------------

P1 = op({1: 1})
P2 = op({2: 1, 0: Q(2, 3) * u(2)})
P3 = L3
P4 = op(
    {
        4: 1,
        2: Q(4, 3) * u(2),
        1: Q(2, 3) * u(2, 1) + Q(4, 3) * u(3),
        0: Q(2, 9) * u(2, 2) + Q(2, 3) * u(3, 1) + Q(2, 9) * u(2) ** 2,
    }
)
P5 = op(
    {
        5: 1,
        3: Q(5, 3) * u(2),
        2: Q(5, 3) * u(2, 1) + Q(5, 3) * u(3),
        1: Q(10, 9) * u(2, 2) + Q(5, 3) * u(3, 1) + Q(5, 9) * u(2) ** 2,
        0: Q(10, 9) * u(3, 2) + Q(10, 9) * u(2) * u(3),
    }
)

# --- hierarchy polynomials [P_m, L3] = H_{m,0} + H_{m,1} d -----------------

H_1 = (u(3, 1), u(2, 1))

H_2 = (
    u(3, 2) - Q(2, 3) * u(2, 3) - Q(2, 3) * u(2, 1) * u(2),
    -u(2, 2) + 2 * u(3, 1),
)

H_3 = (0 * u(2), 0 * u(2))

H_4 = (
    -(
        Q(4, 9) * u(2, 1) * u(2) ** 2
        + Q(2, 3) * u(2, 3) * u(2)
        + Q(4, 3) * u(2, 2) * u(2, 1)
        - Q(2, 3) * u(2, 1) * u(3, 1)
        - Q(2, 3) * u(2) * u(3, 2)
        - Q(4, 3) * u(3, 1) * u(3)
        + Q(2, 9) * u(2, 5)
        - Q(1, 3) * u(3, 4)
    ),
    -(
        Q(2, 3) * u(2, 2) * u(2)
        + Q(2, 3) * u(2, 1) ** 2
        - Q(4, 3) * u(2, 1) * u(3)
        - Q(4, 3) * u(2) * u(3, 1)
        + Q(1, 3) * u(2, 4)
        - Q(2, 3) * u(3, 3)
    ),
)

H_5 = (
    -(
        Q(10, 9) * u(2, 1) * u(2) * u(3)
        + Q(5, 9) * u(2) ** 2 * u(3, 1)
        + Q(10, 9) * u(2, 3) * u(3)
        + Q(20, 9) * u(2, 2) * u(3, 1)
        + Q(5, 3) * u(2, 1) * u(3, 2)
        + Q(5, 9) * u(2) * u(3, 3)
        - Q(5, 3) * u(3, 2) * u(3)
        - Q(5, 3) * u(3, 1) ** 2
        + Q(1, 9) * u(3, 5)
    ),
    -(
        Q(5, 9) * u(2, 1) * u(2) ** 2
        + Q(5, 9) * u(2, 3) * u(2)
        + Q(5, 9) * u(2, 2) * u(2, 1)
        + Q(5, 3) * u(2, 2) * u(3)
        + Q(5, 3) * u(2, 1) * u(3, 1)
        - Q(10, 3) * u(3, 1) * u(3)
        + Q(1, 9) * u(2, 5)
    ),
)

GOLDEN_P = {1: P1, 2: P2, 3: P3, 4: P4, 5: P5}
GOLDEN_H = {1: H_1, 2: H_2, 3: H_3, 4: H_4, 5: H_5}

# kdv_1 = R(u2') and kdv_2 = R(kdv_1), expanded by hand
KDV_1 = Q(-1, 4) * u(2, 3) + Q(3, 2) * u(2) * u(2, 1)
KDV_2 = (
    Q(1, 16) * u(2, 5)
    - Q(5, 4) * u(2, 1) * u(2, 2)
    - Q(5, 8) * u(2) * u(2, 3)
    + Q(15, 8) * u(2) ** 2 * u(2, 1)
)

# [P_3, L_2] for L_2 = d^2 + u_2, expanded by hand
H_3_0_N2 = Q(1, 4) * u(2, 3) + Q(3, 2) * u(2) * u(2, 1)
