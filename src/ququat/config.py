"""Global numeric tolerances.

Two scales are used throughout the package: ``algebra`` for algebraic
identities (orthogonality, row checks, reconstruction), and ``psd`` as the
eigenvalue slack when testing positive semidefiniteness.  Every check
reads them when it runs; ``set_tolerances`` (the CLI's ``--tol``) is the
one way to change them.

Eight size ceilings, two in ququats, two in truth-table arguments, two
in closure work, one in matrix side and one in run size, bound what an
input may ask the package to build.  They are not tolerances and no
option changes them; each is checked before anything of that size is
allocated, except the closure's work, which is counted as the search
goes.
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

# Largest ``budget`` of the closure search, in tables kept: v4 at
# ``max_arity`` 2 keeps 50000 tables in about 3.5 s and 135 MB, and writes
# 11.6 MB of JSON.
MAX_CLOSURE_BUDGET = 50_000

# Most table entries one closure search composes before it stops
# incomplete: each member tuple a generator is applied to counts 4**arity.
# A tuple costs about 0.4 us at arity 1 and 110 us at arity 6 (25-100 ns an
# entry), so the ceiling is a few seconds of work, and no more tables of a
# large arity can join the pool than were composed.  ``max`` at
# ``max_arity`` 6 reaches its fixpoint in 17.3 million entries.
MAX_CLOSURE_ENTRIES = 25_000_000

# Largest arity of a table whose disjunction normal form is written out
# (``mvlogic dnf``): one term per input tuple, joined by a balanced ``max``
# tree.  Arity 4 writes 0.77 MB of JSON; arity 5 would write 4.5 MB and
# arity 6 24.8 MB.
MAX_DNF_ARITY = 4

# Largest side N of the generators of a Lie closure
# (``universality.lie_closure_dim``): the span holds up to N**2 complex
# rows of N**2 entries, and every block of candidates is orthogonalized
# against all of them.  On one BLAS thread the N = 16 entangler set
# closes in 0.15 s and a random pair at N = 32 in about 1.1 s.
MAX_LIE_SIDE = 16

# Largest register a document may name: no list holds the 4**33 entries
# of a larger Pauli vector or truth table.
MAX_QUQUATS = 32

# Most numbers a circuit run may hold, (steps + 1) * 4**max(n, 4): the
# initial state and the state after each step are each kept and written
# out, and a step's fixed cost is about that of 4**4 numbers.  At the
# ceiling, ``ququat simulate`` of random states under a 3 GiB address-space
# cap takes 2.0 s and 123 MB at n = 1 (32767 steps), 5.1 s and 429 MB at
# n = 4 (32767 steps), 3.4 s and 416 MB at n = 8 (127 steps) and 14 s and
# 785 MB at n = 11 (1 step); 1000 steps at n = 8 ran out of the 3 GiB.
# The entries of the steps' gates, which are kept too, are held to the same
# number, counted apart: eight 5-ququat gates fit.
MAX_RUN_ENTRIES = 2**23


def set_tolerances(algebra=None, psd=None):
    """Override one or more global tolerances; returns the live object."""
    if algebra is not None:
        tolerances.algebra = float(algebra)
    if psd is not None:
        tolerances.psd = float(psd)
    return tolerances
