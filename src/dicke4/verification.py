"""Cross-validation suite: every structural fact the solver relies on,
checked against independent routes (exact word algebra, sector label
arithmetic, brute-force Pauli matrices), plus physics sanity along
propagated trajectories.  Each check returns a CheckResult; `run_all`
drives the whole battery and is what the command-line `verify` runs.
"""

from __future__ import annotations

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
                          bell_weights_reference, ghz_initial,
                          ghz_weights_reference, von_neumann_entropy)
from .symmetric_sector import SymmetricVector, basis, qnum


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_word(rng: random.Random, z: int) -> str:
    return "".join(rng.choice(su.FACTORS) for _ in range(z))


def trace_product(t1: dict, t2: dict) -> Fraction:
    """Exact Tr(A B) for two operator-word sums (each word is one entry)."""
    bmap: dict = {}
    for w, v in t2.items():
        e = su.word_entry(w)
        bmap[e] = bmap.get(e, Fraction(0)) + Fraction(v)
    tot = Fraction(0)
    for w, v in t1.items():
        r, c = su.word_entry(w)
        tot += Fraction(v) * bmap.get((c, r), Fraction(0))
    return tot


def _tdiff(t1: dict, t2: dict) -> dict:
    acc = dict(t1)
    su.add_into(acc, t2, -1)
    return su.clean(acc)


def check_commutator_table(z_values=(1, 2, 3, 4), words_per_z=30, seed=0) -> CheckResult:
    """All 18x18 commutators from the definitions vs the structure-constant
    table, on random words, exact rational arithmetic."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    n = 0
    for z in z_values:
        for _ in range(words_per_z):
            w = _random_word(rng, z)
            one = {w: Fraction(1)}
            img = {x: su.apply_superoperator(x, one) for x in su.SUPEROPERATORS}
            for x in su.SUPEROPERATORS:
                img_x = img[x]
                for y in su.SUPEROPERATORS:
                    direct = su.apply_superoperator(x, img[y])
                    su.add_into(direct, su.apply_superoperator(y, img_x), -1)
                    if su.clean(direct) != su.clean(su.table_commutator(x, y, one)):
                        return CheckResult(
                            "commutator-table", False,
                            f"[{x},{y}] disagrees with the table on {w!r}")
                    n += 1
    dt = time.perf_counter() - t0
    return CheckResult("commutator-table", True,
                       f"{n} commutators match exactly ({dt:.1f}s)")


def check_dependency_identities(z_values=(1, 2, 3, 4), words_per_z=40, seed=1) -> CheckResult:
    """N3 = Q3 + Sigma3 - M3 and friends, exactly on random words."""
    rng = random.Random(seed)
    for z in z_values:
        for _ in range(words_per_z):
            one = {_random_word(rng, z): Fraction(1)}
            for name, combo in su.DEPENDENT_THREES.items():
                lhs = su.apply_superoperator(name, one)
                rhs: dict = {}
                for coeff, op in combo:
                    su.add_into(rhs, su.apply_superoperator(op, one), coeff)
                if _tdiff(lhs, rhs):
                    return CheckResult("dependency-identities", False,
                                       f"{name} identity fails on {one}")
    return CheckResult("dependency-identities", True,
                       "N3/U3/V3 decompositions exact on random words")


def check_linearity(z_values=(1, 2, 3), trials=25, seed=2) -> CheckResult:
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
                    return CheckResult("linearity", False,
                                       f"{x} not linear on {w1!r},{w2!r}")
    return CheckResult("linearity", True, "superoperators act linearly")


def check_duality(z_values=(1, 2, 3), pairs_per_z=30, seed=3) -> CheckResult:
    """Trace pairing Tr(O X(P)) = sign * Tr(X'(O) P) with X' the dual
    partner, exactly on random word pairs."""
    rng = random.Random(seed)
    for z in z_values:
        for _ in range(pairs_per_z):
            w_obs = {_random_word(rng, z): Fraction(1)}
            w_state = {_random_word(rng, z): Fraction(1)}
            for x in su.SUPEROPERATORS:
                partner, sign = su.dual(x)
                lhs = trace_product(w_obs, su.apply_superoperator(x, w_state))
                rhs = sign * trace_product(su.apply_superoperator(partner, w_obs), w_state)
                if lhs != rhs:
                    return CheckResult("duality", False,
                                       f"dual of {x} fails the trace pairing")
    return CheckResult("duality", True, "trace duality exact for all 18 maps")


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


def _c2_comm(fx: str, fy: str, t: dict) -> dict:
    out = su.casimir_apply(fx, su.casimir_apply(fy, t))
    su.add_into(out, su.casimir_apply(fy, su.casimir_apply(fx, t)), -1)
    return su.clean(out)


def check_casimir(z_values=(1, 2, 3), words_per_z=10, seed=4) -> CheckResult:
    """Quadratic-invariant structure.  On arbitrary words, X^2 commutes with
    every Y3, with its orthogonal partner's Casimir, and (for Z <= 2) with
    all the others; cross-family Casimirs stop commuting from Z = 3 on, so
    the joint eigenbasis exists only sector by sector.  On the fully
    symmetric sector every basis state is a joint eigenstate of all six
    Casimirs with eigenvalue mu(mu+1), mu = half the paired-factor count."""
    rng = random.Random(seed)
    for z in z_values:
        for _ in range(words_per_z):
            one = {_random_word(rng, z): Fraction(1)}
            cas = {f: su.casimir_apply(f, one) for f in su.FAMILIES}
            for fx in su.FAMILIES:
                for fy in su.FAMILIES:
                    three = fy + "3"
                    comm = su.casimir_apply(fx, su.apply_superoperator(three, one))
                    su.add_into(comm, su.apply_superoperator(three, cas[fx]), -1)
                    if su.clean(comm):
                        return CheckResult("casimir", False,
                                           f"[{fx}^2,{three}] != 0 on {one}")
                    if fy != _PARTNER[fx] and fy != fx and z > 2:
                        continue
                    comm = su.casimir_apply(fx, cas[fy])
                    su.add_into(comm, su.casimir_apply(fy, cas[fx]), -1)
                    if su.clean(comm):
                        return CheckResult("casimir", False,
                                           f"[{fx}^2,{fy}^2] != 0 on {one}")
    if max(z_values) >= 3:
        # pin the boundary: cross-family Casimirs genuinely fail to commute
        # on mixed-symmetry words (here one word of each symmetry-breaking
        # kind), so a regression that silently symmetrizes would be caught
        if not _c2_comm("Sigma", "M", {"usc": Fraction(1)}):
            return CheckResult("casimir", False,
                               "[Sigma^2,M^2] unexpectedly vanishes on 'usc'")
    for z in z_values:
        for qn in ss.enumerate_basis(z):
            cfg = ss.config_from_qn(z, qn)
            state = ss.state_operator_sum(z, qn)
            for fam in su.FAMILIES:
                mu = _CASIMIR_CONTENT[fam](cfg)
                want = su.scale(state, mu * (mu + 1))
                if _tdiff(su.casimir_apply(fam, state), want):
                    return CheckResult("casimir", False,
                                       f"{fam}^2 eigenvalue wrong on {qn} (z={z})")
            for fx in su.FAMILIES:
                for fy in su.FAMILIES:
                    if _c2_comm(fx, fy, state):
                        return CheckResult(
                            "casimir", False,
                            f"[{fx}^2,{fy}^2] != 0 on symmetric state {qn}")
    return CheckResult("casimir", True,
                       "Casimir structure verified: [X^2,Y3]=0, partner "
                       "pairs commute, sector eigenvalues mu(mu+1)")


def check_dimension(z_max=20) -> CheckResult:
    """Sector size (Z+1)(Z+2)(Z+3)/6, with the published spot values."""
    for z in range(1, z_max + 1):
        want = (z + 1) * (z + 2) * (z + 3) // 6
        got = len(ss.enumerate_basis(z))
        if got != want or ss.sector_dimension(z) != want:
            return CheckResult("dimension", False, f"z={z}: {got} != {want}")
    for z, want in ((5, 56), (10, 286), (20, 1771)):
        if z <= z_max and ss.sector_dimension(z) != want:
            return CheckResult("dimension", False, f"z={z} spot value != {want}")
    return CheckResult("dimension", True, f"formula holds for z=1..{z_max}")


def check_ladder_vs_dense(z_max=4, tol=1e-12) -> CheckResult:
    """Three routes for every superoperator on every basis state: sector
    label arithmetic == word algebra (exact), word algebra == brute-force
    Pauli superoperator (dense, tol)."""
    worst = 0.0
    for z in range(1, min(z_max, 4) + 1):
        for qn in ss.enumerate_basis(z):
            state = ss.state_operator_sum(z, qn)
            emb = su.to_dense(state, z)
            for op in su.SUPEROPERATORS:
                words = su.apply_superoperator(op, state)
                coeff, target = ss.apply_ladder(op, qn, z)
                labels = ({} if target is None else
                          su.scale(ss.state_operator_sum(z, target), coeff))
                if _tdiff(words, labels):
                    return CheckResult(
                        "ladder-vs-dense", False,
                        f"label route differs from word route: {op} on {qn} (z={z})")
                gap = np.abs(su.to_dense(words, z)
                             - do.superoperator_dense(op, z, emb)).max()
                worst = max(worst, gap)
                if gap > tol:
                    return CheckResult(
                        "ladder-vs-dense", False,
                        f"dense route off by {gap:.2e}: {op} on {qn} (z={z})")
    return CheckResult("ladder-vs-dense", True,
                       f"18 maps x all states agree (max dense gap {worst:.1e})")


def check_biorthogonality(z_max=4) -> CheckResult:
    """multiplicity(i) * Tr(dual_i * state_j) = delta_ij, exact."""
    for z in range(1, z_max + 1):
        labels = ss.enumerate_basis(z)
        states = {qn: ss.state_operator_sum(z, qn) for qn in labels}
        for qi in labels:
            dual_i = states[ss.dual_qn(qi)]
            mult = ss.multiplicity(ss.config_from_qn(z, qi))
            for qj in labels:
                got = mult * trace_product(dual_i, states[qj])
                if got != (1 if qi == qj else 0):
                    return CheckResult(
                        "biorthogonality", False,
                        f"pairing ({qi},{qj}) = {got} at z={z}")
    return CheckResult("biorthogonality", True,
                       f"delta pairing exact for z <= {z_max}")


def _random_vector(z: int, rng: random.Random) -> SymmetricVector:
    coeffs = np.array([rng.uniform(-1, 1) for _ in range(basis(z).dimension)])
    return SymmetricVector(z, coeffs)


def check_bch_vs_oracle(z_values=(2, 3), s_values=(0.0, 0.3, 0.5, 0.9),
                        tau_values=(0.1, 0.5, 1.0, 2.0, 5.0),
                        tol=1e-8, seed=5) -> CheckResult:
    """Slab propagation (each q-slab times the symmetric power of the
    one-site map) embedded densely vs brute-force integration of the full
    master equation."""
    rng = random.Random(seed)
    t0 = time.perf_counter()
    worst = 0.0
    for z in z_values:
        starts = [_random_vector(z, rng)]
        if z == 2:
            starts.append(bell_initial())
        if z == 3:
            starts.append(ghz_initial())
        for v0 in starts:
            rho0 = v0.to_dense()
            for s in s_values:
                p = ModelParams(z=z, s=s)
                for tau in tau_values:
                    lhs = propagate_bch(v0, p, tau).to_dense()
                    rhs = do.dense_propagate(z, s, rho0, tau)
                    gap = np.abs(lhs - rhs).max()
                    worst = max(worst, gap)
                    if gap > tol:
                        return CheckResult(
                            "bch-vs-oracle", False,
                            f"z={z}, s={s}, tau={tau}: gap {gap:.2e}")
    dt = time.perf_counter() - t0
    return CheckResult("bch-vs-oracle", True,
                       f"max entrywise gap {worst:.1e} ({dt:.1f}s)")


def check_dephasing_vs_oracle(s_values=(0.0, 0.3), ctilde_values=(0.0, 0.8, 2.0),
                              tau_values=(0.5, 2.0), tol=1e-8, seed=6) -> CheckResult:
    """Full evolve() with ctilde != 1/2 against the dense oracle."""
    rng = random.Random(seed)
    v0 = _random_vector(2, rng)
    rho0 = v0.to_dense()
    for s in s_values:
        for ct in ctilde_values:
            p = ModelParams(z=2, s=s, ctilde=ct)
            for tau in tau_values:
                lhs = evolve(v0, p, tau).to_dense()
                rhs = do.dense_propagate(2, s, rho0, tau, ctilde=ct)
                gap = np.abs(lhs - rhs).max()
                if gap > tol:
                    return CheckResult(
                        "dephasing-vs-oracle", False,
                        f"s={s}, ctilde={ct}, tau={tau}: gap {gap:.2e}")
    return CheckResult("dephasing-vs-oracle", True,
                       "dephasing factor matches the oracle")


def check_decay_closed_form(z_values=(1, 2, 3, 4), tau_values=(0.0, 0.3, 1.0, 4.0),
                            tol=1e-12) -> CheckResult:
    """Pure-decay closed form vs the slab propagator at s=0, every
    basis state."""
    for z in z_values:
        p = ModelParams(z=z, s=0.0)
        for qn in ss.enumerate_basis(z):
            v0 = SymmetricVector.from_components(z, {qn: 1})
            for tau in tau_values:
                lhs = propagate_bch(v0, p, tau).coeffs
                rhs = propagate_decay_closed_form(qn, z, tau).coeffs
                gap = np.abs(lhs - rhs).max()
                if gap > tol:
                    return CheckResult(
                        "decay-closed-form", False,
                        f"z={z}, {qn}, tau={tau}: gap {gap:.2e}")
    return CheckResult("decay-closed-form", True,
                       "binomial decay formula matches the propagator")


def check_bell_weights(tol=1e-12) -> CheckResult:
    """Two-site Bell scenario: solver coefficients vs the closed-form
    weights (b1..b4), all other coefficients zero."""
    b = basis(2)
    support = [b.index[qnum(1, 1, 0)], b.index[qnum(1, 0, 0)],
               b.index[qnum(1, -1, 0)], b.index[qnum(0, 0, 0)]]
    v0 = bell_initial()
    for s in (0.0, 0.1, 0.5, 0.9, 1.0):
        p = ModelParams(z=2, s=s)
        for tau in [0.25 * k for k in range(41)]:
            got = propagate_bch(v0, p, tau).coeffs
            want = np.zeros(b.dimension)
            want[support] = bell_weights_reference(s, tau)
            gap = np.abs(got - want).max()
            if gap > tol:
                return CheckResult("bell-weights", False,
                                   f"s={s}, tau={tau}: gap {gap:.2e}")
    return CheckResult("bell-weights", True,
                       "closed-form weights reproduced to 1e-12")


def check_ghz_weights(tol=1e-12) -> CheckResult:
    """Three-site GHZ pure decay: ladder weights c1..c4 plus the coherence
    pair at -c5."""
    b = basis(3)
    h = Fraction(3, 2)
    ladder = [b.index[qnum(h, h - k, 0)] for k in range(4)]
    coh = [b.index[qnum(0, 0, h)], b.index[qnum(0, 0, -h)]]
    v0 = ghz_initial()
    p = ModelParams(z=3, s=0.0)
    for tau in [0.25 * k for k in range(41)]:
        got = propagate_bch(v0, p, tau).coeffs
        c = ghz_weights_reference(tau)
        want = np.zeros(b.dimension)
        want[ladder] = c[:4]
        want[coh] = -c[4]
        gap = np.abs(got - want).max()
        if gap > tol:
            return CheckResult("ghz-weights", False, f"tau={tau}: gap {gap:.2e}")
    return CheckResult("ghz-weights", True,
                       "decay weights (including negative coherences) reproduced")


def check_spectrum(z_max=10, s_values=(0.0, 0.25, 0.5, 0.75, 1.0),
                   tol_eig=1e-8, tol_stat=1e-10) -> CheckResult:
    """Leading-block eigenvalues {0,-1,...,-Z} and binomial stationary
    coefficients."""
    for z in range(1, z_max + 1):
        for s in s_values:
            vals, stat = spectrum(ModelParams(z=z, s=s))
            gap = np.abs(vals - (-np.arange(z + 1, dtype=float))).max()
            if gap > tol_eig:
                return CheckResult("spectrum", False,
                                   f"z={z}, s={s}: eigenvalue gap {gap:.2e}")
            want = np.array([math.comb(z, k) * s ** k * (1.0 - s) ** (z - k)
                             for k in range(z, -1, -1)])
            gap = np.abs(stat.coeffs[:z + 1] - want).max()
            if gap > tol_stat:
                return CheckResult("spectrum", False,
                                   f"z={z}, s={s}: stationary gap {gap:.2e}")
    return CheckResult("spectrum", True,
                       f"block spectrum and stationary weights verified to z={z_max}")


def check_block_rates(z_max=6, s_values=(0.0, 0.4, 1.0), tol=1e-8) -> CheckResult:
    """Sharper full-sector statement: the (q, sigma3) block has eigenvalues
    {-(Z/2 - q) - j : j = 0..2q}, independent of s and sigma3."""
    for z in range(1, z_max + 1):
        b = basis(z)
        for s in s_values:
            lv = liouvillian_matrix(ModelParams(z=z, s=s)).toarray()
            blocks: dict = {}
            for i, qn in enumerate(b.states):
                blocks.setdefault((qn.q, qn.sigma3), []).append(i)
            for (q, s3), idx in blocks.items():
                sub = lv[np.ix_(idx, idx)]
                got = np.sort_complex(np.linalg.eigvals(sub))
                sigma = 0.5 * z - float(q)
                want = np.sort_complex(-sigma - np.arange(len(idx), dtype=float)
                                       + 0j)
                if np.abs(got - want).max() > tol:
                    return CheckResult(
                        "block-rates", False,
                        f"z={z}, s={s}, block (q={q}, s3={s3}) spectrum off")
    return CheckResult("block-rates", True,
                       f"all block spectra are {{-(Z/2-q)-j}} up to z={z_max}")


def check_physicality(tau_values=None, tol=1e-10) -> CheckResult:
    """Trace, Hermiticity and positivity along propagated trajectories."""
    if tau_values is None:
        tau_values = [0.5 * k for k in range(21)]
    cases = [(bell_initial(), ModelParams(z=2, s=0.0)),
             (bell_initial(), ModelParams(z=2, s=0.5)),
             (bell_initial(), ModelParams(z=2, s=1.0)),
             (ghz_initial(), ModelParams(z=3, s=0.0)),
             (ghz_initial(), ModelParams(z=3, s=0.7))]
    for v0, p in cases:
        for tau in tau_values:
            v = evolve(v0, p, tau)
            if abs(v.trace() - 1.0) > tol:
                return CheckResult("physicality", False,
                                   f"trace drift at z={p.z}, s={p.s}, tau={tau}")
            rho = v.to_dense()
            if np.abs(rho - rho.conj().T).max() > tol:
                return CheckResult("physicality", False,
                                   f"Hermiticity defect at z={p.z}, s={p.s}, tau={tau}")
            low = float(np.linalg.eigvalsh(rho).min())
            if low < -tol:
                return CheckResult("physicality", False,
                                   f"negative eigenvalue {low:.2e} at z={p.z}, s={p.s}")
    return CheckResult("physicality", True,
                       "trajectories stay unit-trace, Hermitian, positive")


def check_inversion_formulas(tol=1e-10, tol_truncated=1e-8) -> CheckResult:
    """Pure-decay inversion curves and the collective-model Z=2 result."""
    taus = [0.2 * k for k in range(26)]
    z = 4
    top = SymmetricVector.from_components(z, {qnum(2, 2, 0): 1})
    mid = SymmetricVector.from_components(z, {qnum(2, 0, 0): 1})
    p = ModelParams(z=z, s=0.0)
    for tau in taus:
        got = atomic_inversion(evolve(top, p, tau)) / z
        if abs(got - (math.exp(-tau) - 0.5)) > tol:
            return CheckResult("inversion-formulas", False,
                               f"all-excited curve off at tau={tau}")
        got = atomic_inversion(evolve(mid, p, tau)) / z
        if abs(got - 0.5 * (math.exp(-tau) - 1.0)) > tol:
            return CheckResult("inversion-formulas", False,
                               f"q3=0 curve off at tau={tau}")
    rhos = truncated_dicke_propagate(2, 0.0, (1, 1), taus)
    m_diag = 1.0 - np.arange(3)
    for tau, rho in zip(taus, rhos):
        got = float(np.real(np.diag(rho) @ m_diag)) / 2
        want = (1.0 + tau) * math.exp(-2.0 * tau) - 0.5
        if abs(got - want) > tol_truncated:
            return CheckResult("inversion-formulas", False,
                               f"collective-model curve off at tau={tau}")
    return CheckResult("inversion-formulas", True,
                       "decay inversion curves and collective Z=2 formula hold")


def check_entropy_endpoints() -> CheckResult:
    """Entropy endpoints of the two scenarios: pure starts, 2-bit Bell
    asymptote at s=1/2, GHZ entropy rises then returns to zero."""
    bell = bell_initial()
    if abs(von_neumann_entropy(bell)) > 1e-9:
        return CheckResult("entropy-endpoints", False, "Bell start not pure")
    s_inf = von_neumann_entropy(evolve(bell, ModelParams(z=2, s=0.5), 40.0))
    if abs(s_inf - 2.0) > 1e-6:
        return CheckResult("entropy-endpoints", False,
                           f"Bell s=1/2 asymptote {s_inf} != 2 bits")
    ghz = ghz_initial()
    p = ModelParams(z=3, s=0.0)
    if abs(von_neumann_entropy(ghz)) > 1e-9:
        return CheckResult("entropy-endpoints", False, "GHZ start not pure")
    interior = max(von_neumann_entropy(evolve(ghz, p, 0.25 * k))
                   for k in range(1, 41))
    if interior <= 0.1:
        return CheckResult("entropy-endpoints", False,
                           "GHZ entropy shows no interior rise")
    s_end = von_neumann_entropy(evolve(ghz, p, 40.0))
    if s_end > 1e-6:
        return CheckResult("entropy-endpoints", False,
                           f"GHZ entropy {s_end} does not return to 0")
    return CheckResult("entropy-endpoints", True,
                       f"pure starts; 2-bit Bell plateau; GHZ peak {interior:.3f} then 0")


def run_all(z_max: int = 4, seed: int = 0, words_per_z: int = 25) -> list:
    """Full battery.  Checks needing sizes beyond z_max are skipped."""
    z_alg = tuple(range(1, min(z_max, 4) + 1))
    results = [
        check_commutator_table(z_alg, words_per_z, seed),
        check_dependency_identities(z_alg, max(10, words_per_z), seed + 1),
        check_linearity(z_alg[:3], 20, seed + 2),
        check_duality(z_alg[:3], 25, seed + 3),
        check_casimir(z_alg[:3], 8, seed + 4),
        check_dimension(20),
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
