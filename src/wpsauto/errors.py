"""Exception types shared across the library."""

from __future__ import annotations

import re


class WpsautoError(Exception):
    """Base class for all library errors."""


class EmptyInput(WpsautoError):
    """An operation received an empty collection where at least one element is required."""


class NotAPrimePower(WpsautoError):
    """The integer has at least two distinct prime factors."""


class NotWellFormed(WpsautoError):
    """The weight system is not well-formed (some n+1 of the weights share a factor)."""


class NotNormalizable(WpsautoError):
    """Well-forming would require a non-exact division of the degree."""


class EmptySystem(WpsautoError):
    """A monomial system with no monomials was passed where one is required."""


class CoefficientCollision(WpsautoError):
    """A coefficient vanishes after reduction modulo the chosen prime."""


class HypothesisViolated(WpsautoError):
    """A precondition of a criterion does not hold for this input.

    The message states which hypothesis failed (e.g. ``p divides d``).
    """


class NoKleinHypersurface(WpsautoError):
    """No cyclic chain through all variables exists for this weight system and degree."""


class BudgetExceeded(WpsautoError):
    """An enumeration went past its work budget: BudgetExceeded(limit, what)."""

    def __str__(self) -> str:
        return "more than {} {}".format(*self.args)

    @staticmethod
    def describes(message: str) -> bool:
        return re.fullmatch(r"more than \d+ \w+", message) is not None
