"""Exception types shared by all modules."""


class ValidationError(ValueError):
    """An argument violates a documented precondition."""


class ConstructionError(RuntimeError):
    """A geometric certificate failed while building a domain object."""


class NumericIntegrityError(ArithmeticError):
    """A computed quantity violates a guaranteed numerical property.

    Raised when a result is provably wrong (cancellation past a guard,
    imaginary residue on a real quantity, loss of positive
    semidefiniteness, a quadrature witness that disagrees with its
    doubled order), as opposed to merely inaccurate.
    """

