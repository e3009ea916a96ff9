"""Word-level algebra: structure constants, duality, adjoints, dense embedding."""

import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke4 import su4_algebra as su4

OPS = su4.SUPEROPERATORS

words = st.text(alphabet="udsc", min_size=1, max_size=4)
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def tr_prod(t1, t2):
    # Tr(A B) for two word sums, exactly: words are matrix units, so the
    # product traces to a sum over transposed entry matches.
    entries = {}
    for w, cf in t2.items():
        r, c = su4.word_entry(w)
        entries[(r, c)] = entries.get((r, c), 0) + cf
    total = Fraction(0)
    for w, cf in t1.items():
        r, c = su4.word_entry(w)
        total += cf * entries.get((c, r), 0)
    return total


def random_word(rng, z):
    return "".join(rng.choice("udsc") for _ in range(z))


# ---------------------------------------------------------------- structure

@given(words, st.sampled_from(OPS), st.sampled_from(OPS))
@settings(max_examples=300, deadline=None)
def test_table_matches_direct_commutator(word, x, y):
    assert su4.table_commutator(x, y, word) == su4.commutator(x, y, word)


def test_table_is_antisymmetric():
    for x in OPS:
        for y in OPS:
            forward = {op: c for c, op in su4.COMMUTATOR_TABLE[(x, y)]}
            backward = {op: -c for c, op in su4.COMMUTATOR_TABLE[(y, x)]}
            assert forward == backward, (x, y)


def test_self_commutators_vanish():
    for x in OPS:
        assert su4.COMMUTATOR_TABLE[(x, x)] == ()
        assert su4.commutator(x, x, "udsc") == {}


@pytest.mark.parametrize("z", [1, 2, 3])
def test_jacobi_identity_sampled(z):
    rng = random.Random(7 + z)
    for _ in range(10):
        w = random_word(rng, z)
        x, y, v = (rng.choice(OPS) for _ in range(3))
        total = {}
        for a, b, c in ((x, y, v), (y, v, x), (v, x, y)):
            inner = su4.commutator(b, c, w)
            su4.add_into(total, su4.apply_superoperator(a, inner))
            outer = su4.apply_superoperator(a, {w: Fraction(1)})
            su4.add_into(total, su4.commutator(b, c, outer), -1)
        assert su4.clean(total) == {}, (w, x, y, v)


def test_dependent_threes_on_words():
    rng = random.Random(11)
    for z in (1, 2, 3, 4):
        for _ in range(25):
            w = random_word(rng, z)
            for dep, combo in su4.DEPENDENT_THREES.items():
                direct = su4.apply_superoperator(dep, w)
                built = {}
                for coeff, op in combo:
                    su4.add_into(built, su4.apply_superoperator(op, w), coeff)
                assert direct == su4.clean(built), (dep, w)


@given(words, words, small_fractions, small_fractions, st.sampled_from(OPS))
@settings(max_examples=150, deadline=None)
def test_superoperators_are_linear(w1, w2, c1, c2, op):
    # tile the second word to the first one's length so the sum is well formed
    w2 = (w2 * len(w1))[: len(w1)]
    t = {}
    su4.add_into(t, {w1: c1})
    su4.add_into(t, {w2: c2})
    combined = su4.apply_superoperator(op, su4.clean(t))
    separate = {}
    for w, cf in su4.clean(t).items():
        su4.add_into(separate, su4.apply_superoperator(op, w), cf)
    assert combined == su4.clean(separate)


# Each factor's 2x2 matrix unit in the single-site basis (|1>, |0>), and each
# superoperator as its per-site sandwiches coeff * L P R, read off the
# definitions in the su4_algebra module docstring (not off SINGLE_SITE).
UNIT = {"u": ((1, 0), (0, 0)), "d": ((0, 0), (0, 1)),
        "s": ((0, 1), (0, 0)), "c": ((0, 0), (1, 0))}
ONE, S3 = ((1, 0), (0, 1)), ((1, 0), (0, -1))
SP, SM, UP, DN = UNIT["s"], UNIT["c"], UNIT["u"], UNIT["d"]
QUARTER, HALF = Fraction(1, 4), Fraction(1, 2)
SANDWICHES = {
    "Q+": [(1, SP, SM)], "Q-": [(1, SM, SP)],
    "Q3": [(QUARTER, S3, ONE), (QUARTER, ONE, S3)],
    "Sigma+": [(1, SP, SP)], "Sigma-": [(1, SM, SM)],
    "Sigma3": [(QUARTER, S3, ONE), (-QUARTER, ONE, S3)],
    "M+": [(1, SP, UP)], "M-": [(1, SM, UP)], "M3": [(HALF, S3, UP)],
    "N+": [(1, SP, DN)], "N-": [(1, SM, DN)], "N3": [(HALF, S3, DN)],
    "U+": [(1, UP, SM)], "U-": [(1, UP, SP)], "U3": [(HALF, UP, S3)],
    "V+": [(1, DN, SM)], "V-": [(1, DN, SP)], "V3": [(HALF, DN, S3)],
}


def matmul2(a, b):
    return tuple(tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2))
                 for i in range(2))


def literal_apply(op, t):
    # X t from the per-site definition, zero weights kept: at every site the
    # factor's matrix unit E becomes sum coeff * L E R, split into units
    out = {}
    for word, weight in t.items():
        for i, ch in enumerate(word):
            for coeff, left, right in SANDWICHES[op]:
                m = matmul2(matmul2(left, UNIT[ch]), right)
                for rep, unit in UNIT.items():
                    entry = sum(m[r][c] * unit[r][c] for r in range(2) for c in range(2))
                    if entry:
                        new = word[:i] + rep + word[i + 1:]
                        out[new] = out.get(new, 0) + weight * coeff * entry
    return out


def nonzero(t):
    return {w: v for w, v in t.items() if v != 0}


def test_apply_superoperator_equals_the_per_site_definition():
    rng = random.Random(11)

    def weight():
        value = rng.choice([rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])
        return value or 1

    cancelled = 0
    for op in OPS:
        sums = [{random_word(rng, z): weight() for _ in range(rng.randint(1, 6))}
                for z in (1, 2, 3, 4) for _ in range(10)]
        # two words that land on one image word with opposite weights
        for ch, (_, rep) in su4.SINGLE_SITE[op].items():
            if ch != rep:
                target = rep * 2 + random_word(rng, 2)
                w = weight()
                sums.append({ch + target[1:]: w, target[0] + ch + target[2:]: -w})
        for t in sums:
            raw = literal_apply(op, t)
            want = nonzero(raw)
            cancelled += len(raw) - len(want)
            got = su4.apply_superoperator(op, t)
            assert got == want, (op, t)
            assert all(type(v) in (int, Fraction) for v in got.values()), got
        for w in {word for t in sums for word in t}:
            assert su4.apply_superoperator(op, w) == nonzero(literal_apply(op, {w: 1}))
    assert cancelled >= 100
    assert su4.apply_superoperator("Q-", {"ud": 1, "du": -1}) == {}
    assert su4.apply_superoperator("Q3", {"ud": Fraction(2, 3)}) == {}


def test_diagonal_operators_take_exact_int_or_half_integer_weights():
    # a bare word is seeded with weight int 1; a "3" operator scales it by
    # (count(plus) - count(minus))/2, an int when even
    for op, rule in su4.SINGLE_SITE.items():
        if any(ch != rep for ch, (_, rep) in rule.items()):
            continue
        plus = next(ch for ch, (c, _) in rule.items() if c > 0)
        minus = next(ch for ch, (c, _) in rule.items() if c < 0)
        even = su4.apply_superoperator(op, plus * 3 + minus)
        assert even == {plus * 3 + minus: 1} and type(even[plus * 3 + minus]) is int
        odd = su4.apply_superoperator(op, minus + plus * 3 + minus)
        assert odd == {minus + plus * 3 + minus: Fraction(1, 2)}
        assert su4.apply_superoperator(op, plus + minus) == {}


# ------------------------------------------------------------------ duality

@given(words, words, st.sampled_from(OPS))
@settings(max_examples=200, deadline=None)
def test_trace_duality_pairing(wo, wp, op):
    """Tr{O (X P)} = sign * Tr{(dual(X) O) P}, exact rational arithmetic."""
    wp = (wp * len(wo))[: len(wo)]
    o = {wo: Fraction(1)}
    p = {wp: Fraction(1)}
    partner, sign = su4.dual(op)
    lhs = tr_prod(o, su4.apply_superoperator(op, p))
    rhs = sign * tr_prod(su4.apply_superoperator(partner, o), p)
    assert lhs == rhs, (wo, wp, op)


def test_duality_is_an_involution():
    for op in OPS:
        partner, sign = su4.dual(op)
        back, sign2 = su4.dual(partner)
        assert back == op
        assert sign * sign2 == 1


def test_trace_duality_dense_route():
    # same identity through explicit matrices, complex arithmetic
    rng = random.Random(3)
    for _ in range(40):
        z = rng.randint(1, 3)
        wo, wp = random_word(rng, z), random_word(rng, z)
        op = rng.choice(OPS)
        partner, sign = su4.dual(op)
        o = su4.to_dense(wo, z)
        p = su4.to_dense(wp, z)
        lhs = np.trace(o @ su4.to_dense(su4.apply_superoperator(op, wp), z))
        rhs = sign * np.trace(su4.to_dense(su4.apply_superoperator(partner, wo), z) @ p)
        assert abs(lhs - rhs) <= 1e-12


# ----------------------------------------------------------------- adjoints

@given(words)
@settings(max_examples=100, deadline=None)
def test_adjoint_matches_dense_conjugate_transpose(word):
    t = {word: Fraction(3, 2)}
    lhs = su4.to_dense(su4.adjoint(t))
    rhs = su4.to_dense(t).conj().T
    assert np.abs(lhs - rhs).max() == 0.0


def test_adjoint_is_an_involution():
    t = {"usc": Fraction(1), "dcu": Fraction(-2, 3)}
    assert su4.adjoint(su4.adjoint(t)) == t


# ------------------------------------------------------- casimir structure

PARTNER = {"Q": "Sigma", "Sigma": "Q", "M": "N", "N": "M", "U": "V", "V": "U"}


def c2_comm(fx, fy, t):
    lhs = su4.casimir_apply(fx, su4.casimir_apply(fy, t))
    rhs = su4.casimir_apply(fy, su4.casimir_apply(fx, t))
    return su4.clean(su4.add_into(dict(lhs), rhs, -1))


def test_casimir_commutes_with_every_diagonal_generator():
    rng = random.Random(19)
    for z in (1, 2, 3):
        for _ in range(8):
            w = {random_word(rng, z): Fraction(1)}
            for fx in su4.FAMILIES:
                for fy in su4.FAMILIES:
                    lhs = su4.casimir_apply(fx, su4.apply_superoperator(fy + "3", w))
                    rhs = su4.apply_superoperator(fy + "3", su4.casimir_apply(fx, w))
                    assert su4.clean(su4.add_into(dict(lhs), rhs, -1)) == {}


def test_partner_casimirs_commute_on_words():
    rng = random.Random(23)
    for z in (1, 2, 3, 4):
        for _ in range(6):
            w = {random_word(rng, z): Fraction(1)}
            for fx, fy in PARTNER.items():
                assert c2_comm(fx, fy, w) == {}, (fx, fy, w)


def test_all_casimirs_commute_below_three_sites():
    rng = random.Random(29)
    for z in (1, 2):
        for _ in range(10):
            w = {random_word(rng, z): Fraction(1)}
            for fx in su4.FAMILIES:
                for fy in su4.FAMILIES:
                    assert c2_comm(fx, fy, w) == {}


def test_nonpartner_casimirs_stop_commuting_at_three_sites():
    # pinned counterexample: the mixed word u s c separates the two
    # quadratics, so no test may assume [X^2, Y^2] = 0 across families
    assert c2_comm("Sigma", "M", {"usc": Fraction(1)}) != {}


def test_casimir_quadratic_form_on_single_factors():
    # X^2 = X-X+ + X3(X3+1): on a lone factor each family sees spin 0 or 1/2
    for fam in su4.FAMILIES:
        for factor in "udsc":
            out = su4.casimir_apply(fam, factor)
            assert set(out) <= {factor}
            val = out.get(factor, Fraction(0))
            assert val in (Fraction(0), Fraction(3, 4)), (fam, factor, val)


# ---------------------------------------------------- traces, dense matrices

def test_word_trace_only_ud_words_survive():
    t = {"ud": Fraction(2), "sc": Fraction(5), "uu": Fraction(-1, 2)}
    assert su4.word_trace(t) == Fraction(3, 2)


@given(words)
@settings(max_examples=100, deadline=None)
def test_word_trace_matches_dense_trace(word):
    dense = su4.to_dense(word)
    assert complex(su4.word_trace({word: Fraction(1)})) == pytest.approx(
        np.trace(dense))


def test_word_entry_kron_convention():
    # site 1 is the most significant bit, index 0 is |1...1>
    assert su4.word_entry("u") == (0, 0)
    assert su4.word_entry("d") == (1, 1)
    assert su4.word_entry("s") == (0, 1)
    assert su4.word_entry("c") == (1, 0)
    assert su4.word_entry("ud") == (0b01, 0b01)
    assert su4.word_entry("su") == (0b00, 0b10)

    single = {
        "u": np.array([[1, 0], [0, 0]]),
        "d": np.array([[0, 0], [0, 1]]),
        "s": np.array([[0, 1], [0, 0]]),
        "c": np.array([[0, 0], [1, 0]]),
    }
    for word in ("ud", "sc", "usd", "cdu"):
        ref = np.array([[1]])
        for ch in word:
            ref = np.kron(ref, single[ch])
        assert np.abs(su4.to_dense(word) - ref).max() == 0.0


def test_to_dense_rejects_mixed_lengths_and_empty():
    with pytest.raises(ValueError):
        su4.to_dense({"u": Fraction(1), "ud": Fraction(1)})
    with pytest.raises(ValueError):
        su4.to_dense({})


def test_validate_word_rejects_bad_alphabet():
    with pytest.raises(ValueError):
        su4.validate_word("uxd")
    with pytest.raises(ValueError):
        su4.validate_word("")


def test_oracle_limit_env_override(monkeypatch):
    monkeypatch.setenv(su4.ORACLE_LIMIT_ENV, "2")
    assert su4.oracle_limit() == 2
    with pytest.raises(ValueError):
        su4.to_dense("udu")
    monkeypatch.delenv(su4.ORACLE_LIMIT_ENV)
    assert su4.oracle_limit() == 10


@pytest.mark.parametrize("raw", ["abc", "-3", "0", "2.5", ""])
def test_malformed_oracle_limit_names_the_variable(monkeypatch, raw):
    monkeypatch.setenv(su4.ORACLE_LIMIT_ENV, raw)
    message = f"{su4.ORACLE_LIMIT_ENV}={raw!r} must be an integer >= 1"
    with pytest.raises(ValueError, match=re.escape(message)):
        su4.oracle_limit()


def test_qtilde_diagonal_on_words():
    # eigenvalue (z + 4 m3 - 2 q3 - 2 sigma3)/4, checked against the factor
    # content: each u or s contributes per-site value via the three diagonals
    rng = random.Random(31)
    for _ in range(30):
        z = rng.randint(1, 4)
        w = random_word(rng, z)
        out = su4.qtilde_apply(w)
        assert set(out) <= {w}
        counts = {ch: w.count(ch) for ch in "udsc"}
        m3 = Fraction(counts["u"] - counts["c"], 2)
        q3 = Fraction(counts["u"] - counts["d"], 2)
        s3 = Fraction(counts["s"] - counts["c"], 2)
        expect = (Fraction(z) + 4 * m3 - 2 * q3 - 2 * s3) / 4
        assert out.get(w, Fraction(0)) == expect
