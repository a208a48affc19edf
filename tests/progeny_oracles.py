"""Closed forms for E Z^1..E Z^4 of a cascade's total progeny, kept as an
independent oracle for the package's one moment recursion
(``progeny_moment_table``).  Written in E(P)_i and Var P; tests compare the
two at 1e-12 relative."""
from chaos_bounds.errors import DomainError
from chaos_bounds.progeny import OffspringLaw, _check_mean, factorial_moments


def progeny_moment_closed(law: OffspringLaw, n: int) -> float:
    """E Z^n for n <= 4 from the closed expressions in E(P)_i and Var P."""
    if n not in (1, 2, 3, 4):
        raise DomainError("closed forms cover n in {1, 2, 3, 4}")
    ep = law.mean
    _check_mean(ep)
    d = 1.0 - ep
    if n == 1:
        return 1.0 / d
    epi = factorial_moments(law, n)
    e2 = epi[1]
    varp = e2 + ep - ep * ep
    ez2 = (varp + d) / d ** 3
    if n == 2:
        return ez2
    e3 = epi[2]
    ez3 = (1.0 / d) * (
        1.0
        + 3.0 * ep / d
        + 3.0 * e2 / d ** 2
        + (e3 + 3.0 * varp) / d ** 3
        + 3.0 * varp ** 2 / d ** 4
    )
    if n == 3:
        return ez3
    e4 = epi[3]
    return (1.0 / d) * (
        1.0
        + 4.0 * ep / d
        + 6.0 * e2 / d ** 2
        + 4.0 * e3 / d ** 3
        + e4 / d ** 4
        + 3.0 * ez2 * (2.0 * ep + 4.0 * e2 / d + e2 * ez2 + 2.0 * e3 / d ** 2)
        + 4.0 * ez3 * varp / d
    )
