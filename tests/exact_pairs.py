"""Exact pair sums in Fraction arithmetic, the reference for float certificates.

For a float matrix A (zero diagonal) and each pair i < j:

    S_ij = a_ij + a_ji + (1/2) sum_{k != i, j} (a_ik + a_jk)
    D_ij = sum_{k != i, j} |a_jk - a_ik|
    gamma_ij = 2 |alpha - S_ij| - D_ij

with every entry taken as the exact value of its double.
"""

from fractions import Fraction


def exact_pair_sums(A):
    """{(i, j): (S_ij, D_ij)} over the pairs i < j, as Fractions."""
    F = [[Fraction(float(v)) for v in row] for row in A]
    n = len(F)
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            rest = [k for k in range(n) if k not in (i, j)]
            S = F[i][j] + F[j][i] + sum(F[i][k] + F[j][k] for k in rest) / 2
            D = sum(abs(F[j][k] - F[i][k]) for k in rest)
            out[(i, j)] = (S, D)
    return out


def exact_gammas(A, alpha):
    """{(i, j): gamma_ij} with one alpha for every pair, as Fractions."""
    a = Fraction(float(alpha))
    return {p: 2 * abs(a - S) - D for p, (S, D) in exact_pair_sums(A).items()}
