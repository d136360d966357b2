"""Dense <-> sparse-row conversions, so that tests can state matrices densely,
and the rank of a list of sparse rows.

`horocycle` stores a matrix as a list of sparse rows {column: entry}.
"""

from fractions import Fraction

from horocycle.linalg import lincomb, mat_mul, rref


def sparse(mat):
    """The sparse rows of a dense matrix."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def dense(rows, cols):
    """The dense matrix with `cols` columns of a list of sparse rows."""
    return [[row.get(j, Fraction(0)) for j in range(cols)] for row in rows]


def dense_mul(a, b):
    """The product of two dense matrices, formed by the sparse `mat_mul`."""
    return dense(mat_mul(sparse(a), sparse(b)), len(b[0]) if b else 0)


def rank(rows):
    """The rank of a list of sparse rows."""
    return len(rref(rows)[1])


def act_rows(rep, coeffs):
    """The sparse rows of the matrix of the element with coefficients
    {basis index: c} on a representation, a `lincomb` of the basis matrices'
    rows."""
    return [lincomb((c, rep.matrices[i][r]) for i, c in coeffs.items()) for r in range(rep.dim)]
