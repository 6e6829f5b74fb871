"""String grammar for population laws and test functions.

Laws:       dirac:c | uniform:a,b | linear:a,b,slope
Functions:  poly:c0,c1,... | exp:s | ratshift:p

dirac:c is the one-atom AtomicLaw; an AtomicLaw with more atoms (the
realized spectrum of a sample) has no spec form.  uniform:a,b is the
LinearLaw of slope 0, so linear:a,b,0 formats as uniform:a,b.  The
grammar is the exchange format between config files, CLI flags, and
report artifacts; parse/format are inverse up to float round-trip (repr).
"""

import math

from .contour import Exponential, Polynomial, RationalShift, TestFunction
from .errors import DomainError
from .measures import AtomicLaw, LinearLaw, PopulationLaw


def _split(spec: str, kind: str) -> tuple[str, list[float]]:
    head, sep, tail = spec.strip().partition(":")
    if not sep or not tail:
        raise DomainError(f"{kind} spec {spec!r} must look like name:args")
    try:
        args = [float(tok) for tok in tail.split(",")]
    except ValueError:
        raise DomainError(f"{kind} spec {spec!r} has a non-numeric argument")
    if not all(map(math.isfinite, args)):
        raise DomainError(f"{kind} spec {spec!r} has a non-finite argument")
    return head, args


def _arity(head: str, args: list[float], n: int, kind: str) -> list[float]:
    if len(args) != n:
        raise DomainError(
            f"{kind} {head!r} takes {n} argument(s), got {len(args)}")
    return args


def parse_law(spec: str) -> PopulationLaw:
    head, args = _split(spec, "law")
    if head == "dirac":
        return AtomicLaw(_arity(head, args, 1, "law"), [1.0])
    if head == "uniform":
        return LinearLaw(*_arity(head, args, 2, "law"))
    if head == "linear":
        return LinearLaw(*_arity(head, args, 3, "law"))
    raise DomainError(f"unknown law {head!r} (expected dirac|uniform|linear)")


def format_law(law: PopulationLaw) -> str:
    if isinstance(law, AtomicLaw) and law.locs.size == 1:
        return f"dirac:{law.lo!r}"
    if isinstance(law, LinearLaw) and law.slope == 0.0:
        return f"uniform:{law.lo!r},{law.hi!r}"
    if isinstance(law, LinearLaw):
        return f"linear:{law.lo!r},{law.hi!r},{law.slope!r}"
    raise DomainError(f"law {type(law).__name__} has no spec form")


def parse_func(spec: str) -> TestFunction:
    head, args = _split(spec, "function")
    if head == "poly":
        return Polynomial(tuple(args))
    if head == "exp":
        return Exponential(*_arity(head, args, 1, "function"))
    if head == "ratshift":
        return RationalShift(*_arity(head, args, 1, "function"))
    raise DomainError(
        f"unknown function {head!r} (expected poly|exp|ratshift)")


def format_func(f: TestFunction) -> str:
    if isinstance(f, Polynomial):
        return "poly:" + ",".join(repr(float(c)) for c in f.coeffs)
    if isinstance(f, Exponential):
        return f"exp:{f.scale!r}"
    if isinstance(f, RationalShift):
        return f"ratshift:{f.pole!r}"
    raise DomainError(f"function {type(f).__name__} has no spec form")
