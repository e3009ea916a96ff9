"""Exact algebra of the 18 one-sided ladder superoperators on qubit operator words.

A word is a string over the factor alphabet ``udsc``, one character per site,
leftmost character = site 1:

    u = |1><1|,  d = |0><0|,  s = |1><0|,  c = |0><1|

An operator sum is a dict mapping words to exact rational weights (int or
Fraction).  Everything in this module is exact; floats appear only at the
`to_dense` boundary.

The superoperators act on an operator P by one-sided or sandwiched single-site
multiplications, summed over sites (sp/sm/s3 = single-site raising, lowering,
diagonal Pauli; up/dn = single-site projectors (1±s3)/2):

    Q+ P = sum_i sp_i P sm_i            Sigma+ P = sum_i sp_i P sp_i
    Q- P = sum_i sm_i P sp_i            Sigma- P = sum_i sm_i P sm_i
    Q3 P = (1/4) sum_i (s3_i P + P s3_i)
    Sigma3 P = (1/4) sum_i (s3_i P - P s3_i)
    M+- P = sum_i sp_i/sm_i P up_i      M3 P = (1/2) sum_i s3_i P up_i
    N+- P = sum_i sp_i/sm_i P dn_i      N3 P = (1/2) sum_i s3_i P dn_i
    U+- P = sum_i up_i P sm_i/sp_i      U3 P = (1/2) sum_i up_i P s3_i
    V+- P = sum_i dn_i P sm_i/sp_i      V3 P = (1/2) sum_i dn_i P s3_i

Every factor is a matrix unit, so each superoperator acts word by word through
the single-site table ``SINGLE_SITE`` with coefficients in {+-1, +-1/2}; a
word maps to at most Z words.  The "3" operators of each family are diagonal
on words; three of them are linear combinations of the others (see
``DEPENDENT_THREES``), leaving 15 independent maps.
"""

from __future__ import annotations

import os
from fractions import Fraction

import numpy as np

FACTORS = "udsc"

HALF = Fraction(1, 2)

# factor -> (coefficient, replacement factor); missing factors annihilate
SINGLE_SITE = {
    "Q+": {"d": (1, "u")},
    "Q-": {"u": (1, "d")},
    "Q3": {"u": (HALF, "u"), "d": (-HALF, "d")},
    "Sigma+": {"c": (1, "s")},
    "Sigma-": {"s": (1, "c")},
    "Sigma3": {"s": (HALF, "s"), "c": (-HALF, "c")},
    "M+": {"c": (1, "u")},
    "M-": {"u": (1, "c")},
    "M3": {"u": (HALF, "u"), "c": (-HALF, "c")},
    "N+": {"d": (1, "s")},
    "N-": {"s": (1, "d")},
    "N3": {"d": (-HALF, "d"), "s": (HALF, "s")},
    "U+": {"s": (1, "u")},
    "U-": {"u": (1, "s")},
    "U3": {"u": (HALF, "u"), "s": (-HALF, "s")},
    "V+": {"d": (1, "c")},
    "V-": {"c": (1, "d")},
    "V3": {"d": (-HALF, "d"), "c": (HALF, "c")},
}

SUPEROPERATORS = tuple(SINGLE_SITE)
FAMILIES = ("Q", "Sigma", "M", "N", "U", "V")

# N3, U3, V3 in terms of the other diagonal operators
DEPENDENT_THREES = {
    "N3": ((1, "Q3"), (1, "Sigma3"), (-1, "M3")),
    "U3": ((-1, "Sigma3"), (1, "M3")),
    "V3": ((1, "Q3"), (-1, "M3")),
}

# Trace-dual partner of each superoperator, Tr{O (X P)} = Tr{(dual(X) O) P}.
# Pairs (name, sign); only Sigma3 picks up a sign.  Cyclicity of the trace
# makes Sigma+- SELF-dual: Tr{O s+ P s+} = Tr{(s+ O s+) P}, the same-sign
# sandwich on both sides of the pairing.
DUAL = {
    "Q+": ("Q-", 1), "Q-": ("Q+", 1), "Q3": ("Q3", 1),
    "Sigma+": ("Sigma+", 1), "Sigma-": ("Sigma-", 1), "Sigma3": ("Sigma3", -1),
    "M+": ("U-", 1), "M-": ("U+", 1), "M3": ("U3", 1),
    "N+": ("V-", 1), "N-": ("V+", 1), "N3": ("V3", 1),
    "U+": ("M-", 1), "U-": ("M+", 1), "U3": ("M3", 1),
    "V+": ("N-", 1), "V-": ("N+", 1), "V3": ("N3", 1),
}

# Commutator structure constants, upper triangle in SUPEROPERATORS order.
# Families Q/Sigma, M/N and U/V mutually commute; [X3, X'3] = 0 throughout.
# Note the Sigma3 row is NOT a copy of the Q3 row: U+- and V+- shift the
# lower-index spin projection opposite to the upper one, so the U/V columns
# flip sign between the two rows.
_COMM_UPPER = {
    ("Q+", "Q-"): ((2, "Q3"),),
    ("Q+", "Q3"): ((-1, "Q+"),),
    ("Q+", "M-"): ((-1, "V+"),),
    ("Q+", "M3"): ((-HALF, "Q+"),),
    ("Q+", "N-"): ((1, "U+"),),
    ("Q+", "N3"): ((-HALF, "Q+"),),
    ("Q+", "U-"): ((-1, "N+"),),
    ("Q+", "U3"): ((-HALF, "Q+"),),
    ("Q+", "V-"): ((1, "M+"),),
    ("Q+", "V3"): ((-HALF, "Q+"),),
    ("Q-", "Q3"): ((1, "Q-"),),
    ("Q-", "M+"): ((1, "V-"),),
    ("Q-", "M3"): ((HALF, "Q-"),),
    ("Q-", "N+"): ((-1, "U-"),),
    ("Q-", "N3"): ((HALF, "Q-"),),
    ("Q-", "U+"): ((1, "N-"),),
    ("Q-", "U3"): ((HALF, "Q-"),),
    ("Q-", "V+"): ((-1, "M-"),),
    ("Q-", "V3"): ((HALF, "Q-"),),
    ("Q3", "M+"): ((HALF, "M+"),),
    ("Q3", "M-"): ((-HALF, "M-"),),
    ("Q3", "N+"): ((HALF, "N+"),),
    ("Q3", "N-"): ((-HALF, "N-"),),
    ("Q3", "U+"): ((HALF, "U+"),),
    ("Q3", "U-"): ((-HALF, "U-"),),
    ("Q3", "V+"): ((HALF, "V+"),),
    ("Q3", "V-"): ((-HALF, "V-"),),
    ("Sigma+", "Sigma-"): ((2, "Sigma3"),),
    ("Sigma+", "Sigma3"): ((-1, "Sigma+"),),
    ("Sigma+", "M-"): ((1, "U-"),),
    ("Sigma+", "M3"): ((-HALF, "Sigma+"),),
    ("Sigma+", "N-"): ((-1, "V-"),),
    ("Sigma+", "N3"): ((-HALF, "Sigma+"),),
    ("Sigma+", "U+"): ((-1, "M+"),),
    ("Sigma+", "U3"): ((HALF, "Sigma+"),),
    ("Sigma+", "V+"): ((1, "N+"),),
    ("Sigma+", "V3"): ((HALF, "Sigma+"),),
    ("Sigma-", "Sigma3"): ((1, "Sigma-"),),
    ("Sigma-", "M+"): ((-1, "U+"),),
    ("Sigma-", "M3"): ((HALF, "Sigma-"),),
    ("Sigma-", "N+"): ((1, "V+"),),
    ("Sigma-", "N3"): ((HALF, "Sigma-"),),
    ("Sigma-", "U-"): ((1, "M-"),),
    ("Sigma-", "U3"): ((-HALF, "Sigma-"),),
    ("Sigma-", "V-"): ((-1, "N-"),),
    ("Sigma-", "V3"): ((-HALF, "Sigma-"),),
    ("Sigma3", "M+"): ((HALF, "M+"),),
    ("Sigma3", "M-"): ((-HALF, "M-"),),
    ("Sigma3", "N+"): ((HALF, "N+"),),
    ("Sigma3", "N-"): ((-HALF, "N-"),),
    ("Sigma3", "U+"): ((-HALF, "U+"),),
    ("Sigma3", "U-"): ((HALF, "U-"),),
    ("Sigma3", "V+"): ((-HALF, "V+"),),
    ("Sigma3", "V-"): ((HALF, "V-"),),
    ("M+", "M-"): ((2, "M3"),),
    ("M+", "M3"): ((-1, "M+"),),
    ("M+", "U-"): ((-1, "Sigma+"),),
    ("M+", "U3"): ((-HALF, "M+"),),
    ("M+", "V+"): ((1, "Q+"),),
    ("M+", "V3"): ((HALF, "M+"),),
    ("M-", "M3"): ((1, "M-"),),
    ("M-", "U+"): ((1, "Sigma-"),),
    ("M-", "U3"): ((HALF, "M-"),),
    ("M-", "V-"): ((-1, "Q-"),),
    ("M-", "V3"): ((-HALF, "M-"),),
    ("M3", "U+"): ((HALF, "U+"),),
    ("M3", "U-"): ((-HALF, "U-"),),
    ("M3", "V+"): ((-HALF, "V+"),),
    ("M3", "V-"): ((HALF, "V-"),),
    ("N+", "N-"): ((2, "N3"),),
    ("N+", "N3"): ((-1, "N+"),),
    ("N+", "U+"): ((-1, "Q+"),),
    ("N+", "U3"): ((HALF, "N+"),),
    ("N+", "V-"): ((1, "Sigma+"),),
    ("N+", "V3"): ((-HALF, "N+"),),
    ("N-", "N3"): ((1, "N-"),),
    ("N-", "U-"): ((1, "Q-"),),
    ("N-", "U3"): ((-HALF, "N-"),),
    ("N-", "V+"): ((-1, "Sigma-"),),
    ("N-", "V3"): ((HALF, "N-"),),
    ("N3", "U+"): ((-HALF, "U+"),),
    ("N3", "U-"): ((HALF, "U-"),),
    ("N3", "V+"): ((HALF, "V+"),),
    ("N3", "V-"): ((-HALF, "V-"),),
    ("U+", "U-"): ((2, "U3"),),
    ("U+", "U3"): ((-1, "U+"),),
    ("U-", "U3"): ((1, "U-"),),
    ("V+", "V-"): ((2, "V3"),),
    ("V+", "V3"): ((-1, "V+"),),
    ("V-", "V3"): ((1, "V-"),),
}


def _full_table():
    table = {}
    for x in SUPEROPERATORS:
        for y in SUPEROPERATORS:
            table[(x, y)] = ()
    for (x, y), terms in _COMM_UPPER.items():
        table[(x, y)] = terms
        table[(y, x)] = tuple((-c, op) for c, op in terms)
    return table


COMMUTATOR_TABLE = _full_table()

ORACLE_LIMIT_ENV = "DICKE4_ORACLE_LIMIT"
_ORACLE_LIMIT_DEFAULT = 10


def oracle_limit() -> int:
    """Site-count cap for anything that materializes 2^Z-dimensional arrays."""
    raw = os.environ.get(ORACLE_LIMIT_ENV, str(_ORACLE_LIMIT_DEFAULT))
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ValueError(f"{ORACLE_LIMIT_ENV}={raw!r} must be an integer >= 1")
    return int(raw)


def _check_dense_size(z: int) -> None:
    """Refuse a 2^Z-dimensional array unless 1 <= z <= `oracle_limit`."""
    if z < 1:
        raise ValueError(f"need at least one site, got z={z}")
    if z > oracle_limit():
        raise ValueError(f"z={z} exceeds the oracle limit {oracle_limit()} "
                         f"(set {ORACLE_LIMIT_ENV} to raise it)")


def validate_word(word: str) -> None:
    if not word or any(ch not in FACTORS for ch in word):
        raise ValueError(f"not a factor word: {word!r}")


def clean(t: dict) -> dict:
    """Drop zero-weight words."""
    return {w: coeff for w, coeff in t.items() if coeff}


def add_into(acc: dict, t: dict, scalar=1) -> dict:
    """acc += scalar * t, in place; returns acc."""
    for w, coeff in t.items():
        term = coeff if scalar == 1 else -coeff if scalar == -1 else scalar * coeff
        acc[w] = acc[w] + term if w in acc else term
    return acc


def scale(t: dict, scalar) -> dict:
    return {w: scalar * coeff for w, coeff in t.items()}


# each "3" operator -> its (+1/2, -1/2) factors, read off SINGLE_SITE
DIAGONAL_FACTORS = {op: tuple(sorted(rule, key=lambda ch: -rule[ch][0]))
                    for op, rule in SINGLE_SITE.items()
                    if all(ch == rep for ch, (_, rep) in rule.items())}


def _half(k: int):
    """k/2 exactly: an int when k is even, else a Fraction."""
    return k // 2 if k % 2 == 0 else Fraction(k, 2)


def apply_superoperator(op: str, t) -> dict:
    """Apply one of the 18 superoperators to a word or an operator sum.

    The action distributes over sites: each site holding a factor the
    operator acts on contributes one word with the site's factor replaced
    and the weight multiplied by the table coefficient.  A "3" operator
    keeps every word, so it multiplies each word's weight once, by
    (count(plus) - count(minus))/2 for its +-1/2 factors.
    """
    if isinstance(t, str):
        t = {t: 1}
    out: dict = {}
    if op in DIAGONAL_FACTORS:
        plus, minus = DIAGONAL_FACTORS[op]
        for word, weight in t.items():
            out[word] = weight * _half(word.count(plus) - word.count(minus))
        return clean(out)
    rule = SINGLE_SITE[op]
    for word, weight in t.items():
        for i, ch in enumerate(word):
            hit = rule.get(ch)
            if hit is None:
                continue
            coeff, rep = hit
            new = word[:i] + rep + word[i + 1:]
            term = weight if coeff == 1 else weight * coeff
            out[new] = out[new] + term if new in out else term
    return clean(out)


def commutator(x: str, y: str, t) -> dict:
    """[X, Y] applied to a word or operator sum, computed from the actions."""
    if isinstance(t, str):
        t = {t: Fraction(1)}
    xy = apply_superoperator(x, apply_superoperator(y, t))
    yx = apply_superoperator(y, apply_superoperator(x, t))
    return clean(add_into(dict(xy), yx, -1))


def table_commutator(x: str, y: str, t) -> dict:
    """[X, Y] applied via the tabulated structure constants."""
    if isinstance(t, str):
        t = {t: Fraction(1)}
    out: dict = {}
    for coeff, op in COMMUTATOR_TABLE[(x, y)]:
        add_into(out, apply_superoperator(op, t), coeff)
    return clean(out)


def casimir_apply(family: str, t) -> dict:
    """X^2 = X- X+ + X3 X3 + X3 for family X, applied to a word or sum."""
    minus, plus, three = family + "-", family + "+", family + "3"
    t3 = apply_superoperator(three, t)
    out = apply_superoperator(minus, apply_superoperator(plus, t))
    add_into(out, apply_superoperator(three, t3))
    add_into(out, t3)
    return clean(out)


def qtilde_apply(t) -> dict:
    """(Z + 4 M3 - 2 Q3 - 2 Sigma3)/4: diagonal on words, eigenvalue q on
    symmetric states."""
    if isinstance(t, str):
        t = {t: Fraction(1)}
    out: dict = {}
    for word, weight in t.items():
        acc = {word: Fraction(len(word)) * weight}
        single = {word: weight}
        add_into(acc, apply_superoperator("M3", single), 4)
        add_into(acc, apply_superoperator("Q3", single), -2)
        add_into(acc, apply_superoperator("Sigma3", single), -2)
        add_into(out, acc, Fraction(1, 4))
    return clean(out)


def dual(op: str) -> tuple:
    """(partner, sign) with Tr{O (X P)} = sign * Tr{(partner O) P}."""
    return DUAL[op]


_ADJOINT_FACTOR = {"u": "u", "d": "d", "s": "c", "c": "s"}


def adjoint(t: dict) -> dict:
    """Hermitian adjoint of an operator sum: s <-> c per site.

    Weights here are real rationals, so no conjugation is needed on them.
    """
    out: dict = {}
    for word, weight in t.items():
        new = "".join(_ADJOINT_FACTOR[ch] for ch in word)
        out[new] = out.get(new, 0) + weight
    return clean(out)


def word_trace(t: dict) -> Fraction:
    """Trace of an operator sum: words of only u/d factors contribute their
    weight, anything containing s or c traces to zero."""
    total = Fraction(0)
    for word, weight in t.items():
        if all(ch in "ud" for ch in word):
            total += weight
    return total


# (row bit, column bit) of each factor in the single-site basis (|1>, |0>)
_FACTOR_BITS = {"u": (0, 0), "d": (1, 1), "s": (0, 1), "c": (1, 0)}


def word_entry(word: str) -> tuple:
    """(row, col) of the single nonzero entry of a word's dense matrix.

    Ket index convention: |b_1 ... b_Z> with b=1 before b=0 at each site, so
    index 0 is |1...1> and site 1 is the most significant bit.
    """
    row = col = 0
    for ch in word:
        rbit, cbit = _FACTOR_BITS[ch]
        row = (row << 1) | rbit
        col = (col << 1) | cbit
    return row, col


def to_dense(t, z: int | None = None) -> np.ndarray:
    """Dense 2^Z x 2^Z complex matrix of a word or operator sum.

    Z is taken from the words when not given; all words must share one
    length.  Guarded by `oracle_limit`.
    """
    if isinstance(t, str):
        t = {t: Fraction(1)}
    lengths = {len(w) for w in t}
    if z is None:
        if not lengths:
            raise ValueError("cannot infer Z from an empty operator sum")
        z = lengths.pop()
        lengths.add(z)
    if lengths - {z}:
        raise ValueError(f"word lengths {sorted(lengths)} do not match z={z}")
    _check_dense_size(z)
    dim = 2 ** z
    out = np.zeros((dim, dim), dtype=complex)
    for word, weight in t.items():
        row, col = word_entry(word)
        out[row, col] += complex(weight)
    return out
