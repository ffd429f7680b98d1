"""Matrix-vector and matrix-matrix products over GF(p^m), entry by entry through the
field's scalar arithmetic, for checking results in tests."""

from strangeci.errors import FieldMismatchError, InvalidInputError
from strangeci.exactla import MatrixOverField


def mat_vec(M: MatrixOverField, vec: list[int]) -> list[int]:
    F = M.field
    out = []
    for row in M.rows:
        acc = 0
        for a, b in zip(row, vec):
            acc = F.add(acc, F.mul(a, b))
        out.append(acc)
    return out


def mat_mul(A: MatrixOverField, B: MatrixOverField) -> MatrixOverField:
    if A.field != B.field:
        raise FieldMismatchError("matrix product over mixed fields")
    if A.ncols != B.nrows:
        raise InvalidInputError("inner dimensions disagree")
    F = A.field
    rows = []
    for i in range(A.nrows):
        row = []
        for j in range(B.ncols):
            acc = 0
            for k in range(A.ncols):
                acc = F.add(acc, F.mul(A.rows[i][k], B.rows[k][j]))
            row.append(acc)
        rows.append(row)
    return MatrixOverField(F, rows, ncols=B.ncols)
