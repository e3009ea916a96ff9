"""Cross-validation suite: every structural fact the solver relies on,
checked against independent routes (exact word algebra, sector label
arithmetic, brute-force Pauli matrices), plus physics sanity along
propagated trajectories.  A check returns its PASS detail or raises
CheckFailed, and `_check` times it and reports a CheckResult; comparisons
read `not gap <= tol`, so a NaN fails.  `run_all` drives the whole battery
and is what the command-line `verify` runs.  The exact checks compute each
image once per word or state; the battery takes about 0.8 s (2-vCPU VM).
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import dense_oracle as do
from . import su4_algebra as su
from . import symmetric_sector as ss
from .lindblad_solver import (ModelParams, evolve, liouvillian_matrix,
                              propagate_bch,
                              propagate_decay_closed_form, spectrum,
                              truncated_dicke_propagate)
from .observables import (atomic_inversion, bell_initial,
                          bell_weights_reference, dense_eigenvalues, ghz_initial,
                          ghz_weights_reference, von_neumann_entropy)
from .symmetric_sector import SymmetricVector, hermiticity_defect, qnum


class CheckFailed(Exception):
    """Raised by a check body; the message is the check's FAIL detail."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _check(name: str):
    """Report a check body as a timed CheckResult called `name`.

    CheckFailed, ArithmeticError and ValueError (numpy's LinAlgError is one)
    raised in the body become a FAIL with the exception's message, so one
    broken check does not stop the battery."""
    def decorate(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> CheckResult:
            start = time.perf_counter()
            try:
                passed, detail = True, body(*args, **kwargs)
            except CheckFailed as exc:
                passed, detail = False, str(exc)
            except (ArithmeticError, ValueError) as exc:
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CheckResult(name, passed, detail, time.perf_counter() - start)
        return run
    return decorate


def _label(qn) -> str:
    """A sector label as exact fractions, e.g. (1/2, 1/2, 0)."""
    return f"({', '.join(map(str, qn))})"


def _random_word(rng: random.Random, z: int) -> str:
    return "".join(rng.choice(su.FACTORS) for _ in range(z))


def _entries(t: dict) -> dict:
    """{(row, col): weight} of an operator-word sum; a word is one entry."""
    return {su.word_entry(w): v for w, v in t.items()}


def trace_product(a: dict, b: dict):
    """Exact Tr(A B) from the `_entries` maps of A and B."""
    return sum(v * b[c, r] for (r, c), v in a.items() if (c, r) in b)


def _tdiff(t1: dict, t2: dict) -> dict:
    acc = dict(t1)
    su.add_into(acc, t2, -1)
    return su.clean(acc)


@_check("commutator-table")
def check_commutator_table(z_values=(1, 2, 3, 4), words_per_z=30, seed=0) -> str:
    """All 18x18 commutators [X,Y](w) = X(Y(w)) - Y(X(w)), from the images of
    a random word computed once, vs the structure-constant table, exactly."""
    ops = su.SUPEROPERATORS
    rng = random.Random(seed)
    n = 0
    for z in z_values:
        for _ in range(words_per_z):
            w = _random_word(rng, z)
            img = {x: su.apply_superoperator(x, w) for x in ops}
            img2 = {(x, y): su.apply_superoperator(x, img[y]) for x in ops for y in ops}
            for x, y in img2:
                table: dict = {}
                for coeff, op in su.COMMUTATOR_TABLE[(x, y)]:
                    su.add_into(table, img[op], coeff)
                if _tdiff(img2[x, y], img2[y, x]) != su.clean(table):
                    raise CheckFailed(f"[{x},{y}] disagrees with the table on {w!r}")
                n += 1
    return f"{n} commutators match exactly"


@_check("dependency-identities")
def check_dependency_identities(z_values=(1, 2, 3, 4), words_per_z=40, seed=1) -> str:
    """N3 = Q3 + Sigma3 - M3 and friends, exactly on random words."""
    rng = random.Random(seed)
    for z in z_values:
        for _ in range(words_per_z):
            w = _random_word(rng, z)
            one = {w: Fraction(1)}
            for name, combo in su.DEPENDENT_THREES.items():
                lhs = su.apply_superoperator(name, one)
                rhs: dict = {}
                for coeff, op in combo:
                    su.add_into(rhs, su.apply_superoperator(op, one), coeff)
                if _tdiff(lhs, rhs):
                    raise CheckFailed(f"{name} identity fails on {w!r}")
    return "N3/U3/V3 decompositions exact on random words"


@_check("linearity")
def check_linearity(z_values=(1, 2, 3), trials=25, seed=2) -> str:
    """apply(x, a*w1 + b*w2) = a*apply(x,w1) + b*apply(x,w2)."""
    rng = random.Random(seed)
    for z in z_values:
        for _ in range(trials):
            w1, w2 = _random_word(rng, z), _random_word(rng, z)
            a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            t = su.clean({w1: a})
            su.add_into(t, {w2: Fraction(1)}, b)
            for x in su.SUPEROPERATORS:
                lhs = su.apply_superoperator(x, t)
                rhs = su.scale(su.apply_superoperator(x, {w1: Fraction(1)}), a)
                su.add_into(rhs, su.apply_superoperator(x, {w2: Fraction(1)}), b)
                if _tdiff(lhs, rhs):
                    raise CheckFailed(f"{x} not linear on {w1!r},{w2!r}")
    return "superoperators act linearly"


@_check("duality")
def check_duality(z_values=(1, 2, 3), pairs_per_z=30, seed=3) -> str:
    """Trace pairing Tr(O X(P)) = sign * Tr(X'(O) P) with X' the dual
    partner, exactly on random word pairs."""
    rng = random.Random(seed)
    for z in z_values:
        for _ in range(pairs_per_z):
            w_obs = {_random_word(rng, z): Fraction(1)}
            w_state = {_random_word(rng, z): Fraction(1)}
            for x in su.SUPEROPERATORS:
                partner, sign = su.dual(x)
                lhs = trace_product(_entries(w_obs), _entries(su.apply_superoperator(x, w_state)))
                rhs = sign * trace_product(_entries(su.apply_superoperator(partner, w_obs)),
                                           _entries(w_state))
                if lhs != rhs:
                    raise CheckFailed(f"dual of {x} fails the trace pairing")
    return "trace duality exact for all 18 maps"


_CASIMIR_CONTENT = {
    # each su(2) family pairs two factors; its Casimir eigenvalue on a basis
    # state is mu(mu+1) with mu = half the paired-factor count
    "Q": lambda c: Fraction(c.alpha + c.beta, 2),
    "Sigma": lambda c: Fraction(c.gamma + c.delta, 2),
    "M": lambda c: Fraction(c.alpha + c.delta, 2),
    "N": lambda c: Fraction(c.beta + c.gamma, 2),
    "U": lambda c: Fraction(c.alpha + c.gamma, 2),
    "V": lambda c: Fraction(c.beta + c.delta, 2),
}


# each su(2) family is "orthogonal" to exactly one other (they commute
# elementwise); only those partner Casimirs commute on the full word space
_PARTNER = {"Q": "Sigma", "Sigma": "Q", "M": "N", "N": "M", "U": "V", "V": "U"}
_FAMILY_PAIRS = tuple((fx, fy) for fx in su.FAMILIES for fy in su.FAMILIES)


def _casimir_products(cas: dict, pairs) -> dict:
    """{(X, Y): X^2 (Y^2 t)} from cas = {Y: Y^2 t}; [X^2, Y^2] t = 0 exactly
    when the (X, Y) and (Y, X) products are equal (both are cleaned)."""
    return {(fx, fy): su.casimir_apply(fx, cas[fy]) for fx, fy in pairs}


@_check("casimir")
def check_casimir(z_values=(1, 2, 3), words_per_z=10, seed=4) -> str:
    """Quadratic-invariant structure.  On arbitrary words, X^2 commutes with
    every Y3, with its orthogonal partner's Casimir, and (for Z <= 2) with
    all the others; cross-family Casimirs stop commuting from Z = 3 on, so
    the joint eigenbasis exists only sector by sector.  On the fully
    symmetric sector every basis state is a joint eigenstate of all six
    Casimirs with eigenvalue mu(mu+1), mu = half the paired-factor count."""
    rng = random.Random(seed)
    for z in z_values:
        pairs = [(x, y) for x, y in _FAMILY_PAIRS if z <= 2 or y in (x, _PARTNER[x])]
        for _ in range(words_per_z):
            w = _random_word(rng, z)
            cas = {f: su.casimir_apply(f, w) for f in su.FAMILIES}
            prod = _casimir_products(cas, pairs)
            for fx, fy in _FAMILY_PAIRS:
                three = fy + "3"
                comm = su.casimir_apply(fx, su.apply_superoperator(three, w))
                su.add_into(comm, su.apply_superoperator(three, cas[fx]), -1)
                if su.clean(comm):
                    raise CheckFailed(f"[{fx}^2,{three}] != 0 on {w!r}")
                if (fx, fy) in prod and prod[fx, fy] != prod[fy, fx]:
                    raise CheckFailed(f"[{fx}^2,{fy}^2] != 0 on {w!r}")
    if max(z_values) >= 3:
        # pin the boundary: cross-family Casimirs genuinely fail to commute
        # on mixed-symmetry words (here one word of each symmetry-breaking
        # kind), so a regression that silently symmetrizes would be caught
        prod = _casimir_products({f: su.casimir_apply(f, "usc") for f in ("Sigma", "M")},
                                 (("Sigma", "M"), ("M", "Sigma")))
        if prod["Sigma", "M"] == prod["M", "Sigma"]:
            raise CheckFailed("[Sigma^2,M^2] unexpectedly vanishes on 'usc'")
    for z in z_values:
        for qn in ss.enumerate_basis(z):
            cfg = ss.config_from_qn(z, qn)
            state = ss.state_operator_sum(z, qn)
            cas = {f: su.casimir_apply(f, state) for f in su.FAMILIES}
            for fam in su.FAMILIES:
                mu = _CASIMIR_CONTENT[fam](cfg)
                if _tdiff(cas[fam], su.scale(state, mu * (mu + 1))):
                    raise CheckFailed(f"{fam}^2 eigenvalue wrong on {_label(qn)} (z={z})")
            prod = _casimir_products(cas, _FAMILY_PAIRS)
            for fx, fy in _FAMILY_PAIRS:
                if prod[fx, fy] != prod[fy, fx]:
                    raise CheckFailed(
                        f"[{fx}^2,{fy}^2] != 0 on symmetric state {_label(qn)} (z={z})")
    return ("Casimir structure verified: [X^2,Y3]=0, partner "
            "pairs commute, sector eigenvalues mu(mu+1)")


@_check("dimension")
def check_dimension() -> str:
    """Sector size (Z+1)(Z+2)(Z+3)/6 for Z = 1..20, with the published spot values."""
    for z in range(1, 21):
        want = (z + 1) * (z + 2) * (z + 3) // 6
        got = len(ss.enumerate_basis(z))
        if got != want or ss.sector_dimension(z) != want:
            raise CheckFailed(f"z={z}: {got} != {want}")
    for z, want in ((5, 56), (10, 286), (20, 1771)):
        if ss.sector_dimension(z) != want:
            raise CheckFailed(f"z={z} spot value != {want}")
    return "formula holds for z=1..20"


@_check("ladder-vs-dense")
def check_ladder_vs_dense(z_max=4) -> str:
    """Three routes for every superoperator on every basis state: sector
    label arithmetic == word algebra (exact), word algebra == brute-force
    Pauli superoperator (dense, to 1e-12)."""
    worst = 0.0
    for z in range(1, min(z_max, 4) + 1):
        states = {qn: ss.state_operator_sum(z, qn) for qn in ss.enumerate_basis(z)}
        for qn, state in states.items():
            emb = su.to_dense(state, z)
            for op in su.SUPEROPERATORS:
                words = su.apply_superoperator(op, state)
                coeff, target = ss.apply_ladder(op, qn, z)
                labels = {} if target is None else su.scale(states[target], coeff)
                if _tdiff(words, labels):
                    raise CheckFailed(f"label route differs from word route: "
                                      f"{op} on {_label(qn)} (z={z})")
                gap = np.abs(su.to_dense(words, z)
                             - do.superoperator_dense(op, z, emb)).max()
                worst = max(worst, gap)
                if not gap <= 1e-12:
                    raise CheckFailed(f"dense route off by {gap:.2e}: "
                                      f"{op} on {_label(qn)} (z={z})")
    return f"18 maps x all states agree (max dense gap {worst:.1e})"


@_check("biorthogonality")
def check_biorthogonality(z_max=4) -> str:
    """multiplicity(i) * Tr(dual_i * state_j) = delta_ij, exact."""
    for z in range(1, z_max + 1):
        labels = ss.enumerate_basis(z)
        entries = {qn: _entries(ss.state_operator_sum(z, qn)) for qn in labels}
        for qi in labels:
            dual_i = entries[ss.dual_qn(qi)]
            mult = ss.multiplicity(ss.config_from_qn(z, qi))
            for qj in labels:
                got = mult * trace_product(dual_i, entries[qj])
                if got != (1 if qi == qj else 0):
                    raise CheckFailed(
                        f"pairing ({_label(qi)}, {_label(qj)}) = {got} at z={z}")
    return f"delta pairing exact for z <= {z_max}"


def _random_vector(z: int, rng: random.Random) -> SymmetricVector:
    coeffs = np.array([rng.uniform(-1, 1) for _ in range(ss.sector_dimension(z))])
    return SymmetricVector(z, coeffs)


def _oracle_gap(v: SymmetricVector, rho0: np.ndarray, p: ModelParams, tau: float) -> float:
    """Largest entrywise gap between the propagated state v, embedded
    densely, and the dense oracle's evolution of rho0 under p over tau."""
    return float(np.abs(v.to_dense()
                         - do.dense_propagate(p.z, p.s, rho0, tau, ctilde=p.ctilde)).max())


@_check("bch-vs-oracle")
def check_bch_vs_oracle(seed=5) -> str:
    """Slab propagation (each q-slab times the symmetric power of the
    one-site map) embedded densely vs the brute-force exponential of the
    full master equation, to 1e-8."""
    rng = random.Random(seed)
    worst = 0.0
    for z in (2, 3):
        for v0 in (_random_vector(z, rng), bell_initial() if z == 2 else ghz_initial()):
            rho0 = v0.to_dense()
            for s in (0.0, 0.3, 0.5, 0.9):
                p = ModelParams(z=z, s=s)
                for tau in (0.1, 0.5, 1.0, 2.0, 5.0):
                    gap = _oracle_gap(propagate_bch(v0, p, tau), rho0, p, tau)
                    worst = max(worst, gap)
                    if not gap <= 1e-8:
                        raise CheckFailed(f"z={z}, s={s}, tau={tau}: gap {gap:.2e}")
    return f"max entrywise gap {worst:.1e}"


@_check("dephasing-vs-oracle")
def check_dephasing_vs_oracle(seed=6) -> str:
    """Full evolve() with ctilde != 1/2 against the dense oracle, to 1e-8."""
    rng = random.Random(seed)
    v0 = _random_vector(2, rng)
    rho0 = v0.to_dense()
    for s in (0.0, 0.3):
        for ct in (0.0, 0.8, 2.0):
            p = ModelParams(z=2, s=s, ctilde=ct)
            for tau in (0.5, 2.0):
                gap = _oracle_gap(evolve(v0, p, tau), rho0, p, tau)
                if not gap <= 1e-8:
                    raise CheckFailed(f"s={s}, ctilde={ct}, tau={tau}: gap {gap:.2e}")
    return "dephasing factor matches the oracle"


@_check("decay-closed-form")
def check_decay_closed_form(z_values=(1, 2, 3, 4)) -> str:
    """Pure-decay closed form vs the slab propagator at s=0, every
    basis state, to 1e-12."""
    for z in z_values:
        p = ModelParams(z=z, s=0.0)
        for qn in ss.enumerate_basis(z):
            v0 = SymmetricVector.from_components(z, {qn: 1})
            for tau in (0.0, 0.3, 1.0, 4.0):
                lhs = propagate_bch(v0, p, tau).coeffs
                rhs = propagate_decay_closed_form(qn, z, tau).coeffs
                gap = np.abs(lhs - rhs).max()
                if not gap <= 1e-12:
                    raise CheckFailed(f"z={z}, {_label(qn)}, tau={tau}: gap {gap:.2e}")
    return "binomial decay formula matches the propagator"


@_check("bell-weights")
def check_bell_weights() -> str:
    """Two-site Bell scenario: solver coefficients vs the closed-form
    weights (b1..b4), all other coefficients zero."""
    support = [ss.basis_slot(2, qn)
               for qn in ((1, 1, 0), (1, 0, 0), (1, -1, 0), (0, 0, 0))]
    v0 = bell_initial()
    for s in (0.0, 0.1, 0.5, 0.9, 1.0):
        p = ModelParams(z=2, s=s)
        for tau in [0.25 * k for k in range(41)]:
            got = propagate_bch(v0, p, tau).coeffs
            want = np.zeros(ss.sector_dimension(2))
            want[support] = bell_weights_reference(s, tau)
            gap = np.abs(got - want).max()
            if not gap <= 1e-12:
                raise CheckFailed(f"s={s}, tau={tau}: gap {gap:.2e}")
    return "closed-form weights reproduced to 1e-12"


@_check("ghz-weights")
def check_ghz_weights() -> str:
    """Three-site GHZ pure decay: ladder weights c1..c4 plus the coherence
    pair at -c5, to 1e-12."""
    h = Fraction(3, 2)
    ladder = [ss.basis_slot(3, (h, h - k, 0)) for k in range(4)]
    coh = [ss.basis_slot(3, (0, 0, h)), ss.basis_slot(3, (0, 0, -h))]
    v0 = ghz_initial()
    p = ModelParams(z=3, s=0.0)
    for tau in [0.25 * k for k in range(41)]:
        got = propagate_bch(v0, p, tau).coeffs
        c = ghz_weights_reference(tau)
        want = np.zeros(ss.sector_dimension(3))
        want[ladder] = c[:4]
        want[coh] = -c[4]
        gap = np.abs(got - want).max()
        if not gap <= 1e-12:
            raise CheckFailed(f"tau={tau}: gap {gap:.2e}")
    return "decay weights (including negative coherences) reproduced"


def _leading_block_spectrum(p: ModelParams):
    """Eigenvalues (descending) and stationary state of the leading Z+1 block
    of `liouvillian_matrix`, numerically: `eigvalsh` of the block made
    symmetric by a diagonal similarity (off-diagonal sqrt(upper * lower)),
    and a solve with the last equation replaced by unit trace."""
    block = liouvillian_matrix(p)[:p.z + 1, :p.z + 1].toarray()
    off = np.sqrt(np.diag(block, 1) * np.diag(block, -1))
    vals = np.linalg.eigvalsh(np.diag(np.diag(block)) + np.diag(off, 1) + np.diag(off, -1))
    block[-1] = 1.0          # trace row: the block states all have unit trace
    unit = np.zeros(p.z + 1)
    unit[-1] = 1.0
    return vals[::-1], np.linalg.solve(block, unit)


@_check("spectrum")
def check_spectrum(z_max=10) -> str:
    """Closed-form leading-block eigenvalues {0,-1,...,-Z} (to 1e-8) and
    binomial stationary coefficients (to 1e-10) against the numeric block of
    the sector generator; every stationary coefficient >= 0."""
    for z in range(1, z_max + 1):
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            p = ModelParams(z=z, s=s)
            vals, stat = spectrum(p)
            num_vals, num_stat = _leading_block_spectrum(p)
            gap = np.abs(vals - num_vals).max()
            if not gap <= 1e-8:
                raise CheckFailed(f"z={z}, s={s}: eigenvalue gap {gap:.2e}")
            gap = np.abs(stat.coeffs[:z + 1] - num_stat).max()
            if not gap <= 1e-10:
                raise CheckFailed(f"z={z}, s={s}: stationary gap {gap:.2e}")
            if not stat.coeffs.min() >= 0.0:
                raise CheckFailed(f"z={z}, s={s}: negative stationary coefficient")
    return f"block spectrum and stationary weights verified to z={z_max}"


@_check("block-rates")
def check_block_rates(z_max=6) -> str:
    """Sharper full-sector statement: the (q, sigma3) block has eigenvalues
    {-(Z/2 - q) - j : j = 0..2q}, independent of s and sigma3, to 1e-8."""
    for z in range(1, z_max + 1):
        blocks: dict = {}
        for i, qn in enumerate(ss.enumerate_basis(z)):
            blocks.setdefault((qn.q, qn.sigma3), []).append(i)
        for s in (0.0, 0.4, 1.0):
            lv = liouvillian_matrix(ModelParams(z=z, s=s)).toarray()
            for (q, s3), idx in blocks.items():
                sub = lv[np.ix_(idx, idx)]
                got = np.sort_complex(np.linalg.eigvals(sub))
                sigma = 0.5 * z - float(q)
                want = np.sort_complex(-sigma - np.arange(len(idx), dtype=float)
                                       + 0j)
                gap = np.abs(got - want).max()
                if not gap <= 1e-8:
                    raise CheckFailed(f"z={z}, s={s}, block (q={q}, s3={s3}) "
                                      f"spectrum off by {gap:.2e}")
    return f"all block spectra are {{-(Z/2-q)-j}} up to z={z_max}"


@_check("physicality")
def check_physicality() -> str:
    """Trace, Hermiticity and positivity (to 1e-10) along propagated trajectories."""
    cases = [(bell_initial(), ModelParams(z=2, s=0.0)),
             (bell_initial(), ModelParams(z=2, s=0.5)),
             (bell_initial(), ModelParams(z=2, s=1.0)),
             (ghz_initial(), ModelParams(z=3, s=0.0)),
             (ghz_initial(), ModelParams(z=3, s=0.7))]
    taus = [0.5 * k for k in range(21)]
    for v0, p in cases:
        for tau in taus:
            v = evolve(v0, p, tau)
            if not abs(v.trace() - 1.0) <= 1e-10:
                raise CheckFailed(f"trace drift at z={p.z}, s={p.s}, tau={tau}")
            if not hermiticity_defect(v) <= 1e-10:
                raise CheckFailed(f"Hermiticity defect at z={p.z}, s={p.s}, tau={tau}")
            low = float(dense_eigenvalues(v).min())
            if not low >= -1e-10:
                raise CheckFailed(f"negative eigenvalue {low:.2e} at z={p.z}, s={p.s}")
    return "trajectories stay unit-trace, Hermitian, positive"


@_check("inversion-formulas")
def check_inversion_formulas() -> str:
    """Pure-decay inversion curves (to 1e-10) and the collective-model Z=2
    result (to 1e-12)."""
    taus = [0.2 * k for k in range(26)]
    z = 4
    top = SymmetricVector.from_components(z, {qnum(2, 2, 0): 1})
    mid = SymmetricVector.from_components(z, {qnum(2, 0, 0): 1})
    p = ModelParams(z=z, s=0.0)
    for tau in taus:
        got = atomic_inversion(evolve(top, p, tau)) / z
        if not abs(got - (math.exp(-tau) - 0.5)) <= 1e-10:
            raise CheckFailed(f"all-excited curve off at tau={tau}")
        got = atomic_inversion(evolve(mid, p, tau)) / z
        if not abs(got - 0.5 * (math.exp(-tau) - 1.0)) <= 1e-10:
            raise CheckFailed(f"q3=0 curve off at tau={tau}")
    rhos = truncated_dicke_propagate(2, 0.0, (1, 1), taus)
    m_diag = 1.0 - np.arange(3)
    for tau, rho in zip(taus, rhos):
        got = float(np.real(np.diag(rho) @ m_diag)) / 2
        want = (1.0 + tau) * math.exp(-2.0 * tau) - 0.5
        if not abs(got - want) <= 1e-12:
            raise CheckFailed(f"collective-model curve off at tau={tau}")
    return "decay inversion curves and collective Z=2 formula hold"


@_check("entropy-endpoints")
def check_entropy_endpoints() -> str:
    """Entropy endpoints of the two scenarios: pure starts, 2-bit Bell
    asymptote at s=1/2, GHZ entropy rises then returns to zero."""
    bell = bell_initial()
    if not abs(von_neumann_entropy(bell)) <= 1e-9:
        raise CheckFailed("Bell start not pure")
    s_inf = von_neumann_entropy(evolve(bell, ModelParams(z=2, s=0.5), 40.0))
    if not abs(s_inf - 2.0) <= 1e-6:
        raise CheckFailed(f"Bell s=1/2 asymptote {s_inf} != 2 bits")
    ghz = ghz_initial()
    p = ModelParams(z=3, s=0.0)
    if not abs(von_neumann_entropy(ghz)) <= 1e-9:
        raise CheckFailed("GHZ start not pure")
    # np.max, unlike max, keeps a NaN
    interior = float(np.max([von_neumann_entropy(evolve(ghz, p, 0.25 * k))
                             for k in range(1, 41)]))
    if not interior > 0.1:
        raise CheckFailed("GHZ entropy shows no interior rise")
    s_end = von_neumann_entropy(evolve(ghz, p, 40.0))
    if not s_end <= 1e-6:
        raise CheckFailed(f"GHZ entropy {s_end} does not return to 0")
    return f"pure starts; 2-bit Bell plateau; GHZ peak {interior:.3f} then 0"


def run_all(z_max: int = 4, seed: int = 0, words_per_z: int = 25) -> list:
    """Full battery.  Checks needing sizes beyond z_max are skipped; a
    z_max or words_per_z below 1 would leave checks vacuous and is refused."""
    for name, value in (("z_max", z_max), ("words_per_z", words_per_z)):
        if value < 1:
            raise ValueError(f"{name}={value} must be at least 1")
    z_alg = tuple(range(1, min(z_max, 4) + 1))
    results = [
        check_commutator_table(z_alg, words_per_z, seed),
        check_dependency_identities(z_alg, max(10, words_per_z), seed + 1),
        check_linearity(z_alg[:3], 20, seed + 2),
        check_duality(z_alg[:3], 25, seed + 3),
        check_casimir(z_alg[:3], 8, seed + 4),
        check_dimension(),
        check_ladder_vs_dense(min(z_max, 4)),
        check_biorthogonality(min(z_max, 4)),
        check_spectrum(z_max),
        check_block_rates(min(z_max, 6)),
    ]
    if z_max >= 2:
        results.append(check_decay_closed_form(tuple(range(1, min(z_max, 4) + 1))))
        results.append(check_dephasing_vs_oracle(seed=seed + 6))
        results.append(check_bell_weights())
    if z_max >= 3:
        results.append(check_bch_vs_oracle(seed=seed + 5))
        results.append(check_ghz_weights())
        results.append(check_physicality())
        results.append(check_entropy_endpoints())
    if z_max >= 4:
        results.append(check_inversion_formulas())
    return results
