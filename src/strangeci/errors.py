"""Exception hierarchy shared by all strangeci modules."""


class StrangeCIError(Exception):
    """Base class for all library errors."""


class InvalidInputError(StrangeCIError, ValueError):
    """A precondition on user-supplied data was violated."""


class FieldMismatchError(InvalidInputError):
    """Operands belong to incompatible fields."""


class HomogeneityError(InvalidInputError):
    """Polynomial input mixes terms of different total degrees."""


class ParseError(InvalidInputError):
    """Text input does not conform to the accepted grammar."""


class SingularPointError(StrangeCIError):
    """An operation requiring a smooth point was given a singular one."""


class UnsupportedVertexError(InvalidInputError):
    """Vertex coordinates lie in a proper extension of the prime field."""


class BudgetExceededError(StrangeCIError):
    """A search exhausted its point-evaluation budget.

    ``partial`` holds the results collected before the budget ran out,
    ``completed_m`` the largest extension degree that was fully scanned and
    ``used`` the points charged to the budget, those of the scanned degrees.
    """

    def __init__(self, message, partial=None, completed_m=0, used=0):
        super().__init__(message)
        self.partial = partial if partial is not None else []
        self.completed_m = completed_m
        self.used = used
