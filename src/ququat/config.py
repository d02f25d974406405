"""Global numeric tolerances.

Two scales are used throughout the package: ``algebra`` for algebraic
identities (orthogonality, row checks, reconstruction), and ``psd`` as the
eigenvalue slack when testing positive semidefiniteness.  Every check
reads them when it runs; ``set_tolerances`` (the CLI's ``--tol``) is the
one way to change them.

Five size ceilings, two in ququats, two in truth-table arguments and
one in matrix side, bound what an input may ask the package to build.
They are not tolerances and no option changes them; each is checked
before anything of that size is allocated.
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    algebra: float = 1e-10
    psd: float = 1e-9


tolerances = Tolerances()

# Largest n of a dense 4**n x 4**n gate built from a smaller input
# (unitary, Kraus set, projectors, Lindblad H/V, pseudo-gate operator,
# tensor product, classical map, embedding): 4**5 = 1024 rows, which
# build in under a second.
MAX_GATE_QUQUATS = 5

# Largest arity of the closure search (``mvlogic.closure``): a table of
# arity 6 has 4**6 = 4096 entries.  The search builds every projection of
# every arity up to it before anything else; up to 6 that takes under
# 0.25 s, and each further arity costs four to five times as much (8:
# 1.4 s and 240 MB for one unary generator).
MAX_CLOSURE_ARITY = 6

# Largest arity of a table whose disjunction normal form is written out
# (``mvlogic dnf``): the form nests one ``max`` per input tuple, 4**arity
# levels deep.  Arity 4 writes 8.2 MB of JSON; at arity 5 the writers
# exceed the recursion limit.
MAX_DNF_ARITY = 4

# Largest side N of the generators of a Lie closure
# (``universality.lie_closure_dim``): the span holds up to 2 N**2 rows of
# 2 N**2 reals, and every block of candidates is orthogonalized against
# all of them.  N = 16 closes in under a second; a random pair at N = 32
# takes about 4 s.
MAX_LIE_SIDE = 16

# Largest register a document may name: no list holds the 4**33 entries
# of a larger Pauli vector or truth table.
MAX_QUQUATS = 32


def set_tolerances(algebra=None, psd=None):
    """Override one or more global tolerances; returns the live object."""
    if algebra is not None:
        tolerances.algebra = float(algebra)
    if psd is not None:
        tolerances.psd = float(psd)
    return tolerances
