"""Command-line behaviour: formats, exit codes, byte stability, env guards."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from dicke4 import cli, verification
from dicke4 import su4_algebra as su4
from dicke4 import symmetric_sector as sec

BASIS_Z2 = """\
q,q3,sigma3,alpha,beta,gamma,delta,multiplicity,trace
1,1,0,2,0,0,0,1,1
1,0,0,1,1,0,0,2,1
1,-1,0,0,2,0,0,1,1
1/2,1/2,1/2,1,0,1,0,2,0
1/2,1/2,-1/2,1,0,0,1,2,0
1/2,-1/2,1/2,0,1,1,0,2,0
1/2,-1/2,-1/2,0,1,0,1,2,0
0,0,1,0,0,2,0,1,0
0,0,0,0,0,1,1,2,0
0,0,-1,0,0,0,2,1,0
# dimension = 10
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------------- basis

def test_basis_csv_two_sites_golden(capsys):
    code, out, err = run(capsys, "basis", "--z", "2")
    assert code == 0 and err == ""
    assert out == BASIS_Z2


def test_basis_json_three_sites(capsys):
    code, out, _ = run(capsys, "basis", "--z", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["z"] == 3
    assert payload["dimension"] == 20
    assert len(payload["states"]) == 20
    top = payload["states"][0]
    assert top == {"q": "3/2", "q3": "3/2", "sigma3": "0",
                   "alpha": 3, "beta": 0, "gamma": 0, "delta": 0,
                   "multiplicity": 1, "trace": 1}


def expected_basis_rows(z):
    """(label, config, multiplicity, trace flag) in basis order, from a
    plain walk over slabs n, rows beta and columns delta."""
    rows = []
    for n in range(z, -1, -1):
        for beta in range(n + 1):
            for delta in range(z - n + 1):
                cfg = sec.Config(n - beta, beta, z - n - delta, delta)
                rows.append((sec.qn_from_config(cfg), cfg, sec.multiplicity(cfg),
                             int(cfg.gamma == cfg.delta == 0)))
    return rows


@pytest.mark.parametrize("z", range(1, 13))
def test_basis_output_is_pinned_to_the_labels(capsys, z):
    rows = expected_basis_rows(z)
    csv = ["q,q3,sigma3,alpha,beta,gamma,delta,multiplicity,trace"]
    csv += [f"{qn.q},{qn.q3},{qn.sigma3},{a},{b},{g},{d},{m},{t}"
            for qn, (a, b, g, d), m, t in rows]
    csv.append(f"# dimension = {len(rows)}")
    code, out, _ = run(capsys, "basis", "--z", str(z))
    assert code == 0 and out == "\n".join(csv) + "\n"
    payload = {"z": z, "dimension": len(rows), "states": [
        {"q": str(qn.q), "q3": str(qn.q3), "sigma3": str(qn.sigma3),
         "alpha": a, "beta": b, "gamma": g, "delta": d, "multiplicity": m, "trace": t}
        for qn, (a, b, g, d), m, t in rows]}
    code, out, _ = run(capsys, "basis", "--z", str(z), "--format", "json")
    assert code == 0 and out == json.dumps(payload, indent=2) + "\n"


def test_basis_dimension_footer_ten_sites(capsys):
    code, out, _ = run(capsys, "basis", "--z", "10")
    assert code == 0
    assert out.rstrip().endswith("# dimension = 286")


def test_basis_out_file_uses_lf_endings(tmp_path, capsys):
    target = tmp_path / "basis.csv"
    code, out, _ = run(capsys, "basis", "--z", "2", "--out", str(target))
    assert code == 0 and out == ""
    raw = target.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == BASIS_Z2


# ----------------------------------------------------------------- spectrum

def test_spectrum_json_payload(capsys):
    code, out, _ = run(capsys, "spectrum", "--z", "3", "--s", "0.7")
    assert code == 0
    payload = json.loads(out)
    assert payload["z"] == 3 and payload["s"] == 0.7
    assert np.abs(np.array(payload["eigenvalues"]) - [0, -1, -2, -3]).max() <= 1e-8
    weights = {row["q3"]: row["coeff"] for row in payload["stationary"]}
    assert set(weights) == {"3/2", "1/2", "-1/2", "-3/2"}
    for k, q3 in enumerate(("3/2", "1/2", "-1/2", "-3/2")):
        expect = math.comb(3, k) * 0.7 ** (3 - k) * 0.3 ** k
        assert weights[q3] == pytest.approx(expect, abs=1e-10)



def test_spectrum_at_sixty_sites(capsys):
    code, out, _ = run(capsys, "spectrum", "--z", "60", "--s", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert np.abs(np.array(payload["eigenvalues"]) + np.arange(61)).max() <= 1e-9
    assert sum(row["coeff"] for row in payload["stationary"]) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- propagate

def test_propagate_bell_csv(capsys):
    code, out, _ = run(capsys, "propagate", "--initial", "bell", "--s", "0.5",
                       "--tau-max", "2", "--steps", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "tau,trace,inversion"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first == ["0.0", "1.0", "0.0"]
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) == pytest.approx(1.0, abs=1e-10)



def test_propagate_long_horizon_at_sixty_sites(capsys):
    code, out, _ = run(capsys, "propagate", "--initial", "dicke:30", "--z", "60",
                       "--s", "0.4", "--tau-max", "40", "--steps", "5")
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    assert rows.shape == (5, 3) and np.all(np.isfinite(rows))
    assert np.abs(rows[:, 1] - 1.0).max() <= 1e-12
    # independent sites: inversion relaxes to Z (s - 1/2) at rate 1
    want = 60 * (0.4 - 0.5) + (30 - 60 * (0.4 - 0.5)) * np.exp(-rows[:, 0])
    assert np.abs(rows[:, 2] - want).max() <= 1e-9


def test_propagate_at_two_hundred_sites_needs_no_label_table(capsys):
    tables = sec.basis.cache_info().currsize
    code, out, _ = run(capsys, "propagate", "--initial", "dicke:0", "--z", "200")
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    assert rows.shape == (200, 3)
    assert np.abs(rows[:, 1] - 1.0).max() <= 1e-12
    # independent sites at s = 0: <S3> = Z (s - 1/2) + (q3 - Z (s - 1/2)) e^(-tau)
    want = -100.0 + 100.0 * np.exp(-rows[:, 0])
    assert np.abs(rows[:, 2] - want).max() <= 1e-9 * 200
    assert sec.basis.cache_info().currsize == tables


def test_propagate_output_is_byte_stable(capsys):
    args = ("propagate", "--initial", "ghz", "--tau-max", "3", "--steps", "7",
            "--observables", "trace,inversion,entropy")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "\r" not in first


def test_propagate_json_payload(capsys):
    code, out, _ = run(capsys, "propagate", "--initial", "dicke:1", "--z", "2",
                       "--format", "json", "--tau-max", "1", "--steps", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == "symmetric"
    assert payload["taus"] == [0.0, 0.5, 1.0]
    assert payload["values"]["inversion"][0] == pytest.approx(1.0, abs=1e-12)
    assert payload["values"]["trace"] == pytest.approx([1.0] * 3, abs=1e-12)


@pytest.mark.parametrize("start", [("bell",), ("ghz",), ("dicke:1/2", "--z", "3"),
                                   ("config:1,0,1,1",)],
                         ids=["bell", "ghz", "dicke", "config"])
@pytest.mark.parametrize("observable", cli.OBSERVABLE_NAMES)
def test_propagate_models_agree_on_every_readout(capsys, start, observable):
    # the same scenario through the sector solver and the dense oracle; the
    # traceless config start has negative eigenvalues, so both models must
    # refuse its entropy the same way
    shared = ("--initial", *start, "--s", "0.2", "--ctilde", "0.8",
              "--tau-max", "2", "--steps", "5", "--format", "json",
              "--observables", observable)
    sym, dense = (run(capsys, "propagate", *shared, "--model", model)
                  for model in ("symmetric", "dense-oracle"))
    assert (sym[0], sym[2]) == (dense[0], dense[2])
    if sym[0]:
        assert start == ("config:1,0,1,1",) and observable == "entropy"
        return
    a = json.loads(sym[1])["values"][observable]
    b = json.loads(dense[1])["values"][observable]
    assert np.abs(np.array(a) - b).max() <= 1e-8


def test_propagate_truncated_model(capsys):
    code, out, _ = run(capsys, "propagate", "--initial", "dicke:1", "--z", "2",
                       "--model", "dicke-truncated", "--format", "json",
                       "--tau-max", "1", "--steps", "3")
    assert code == 0
    payload = json.loads(out)
    got = payload["values"]["inversion"]
    # collective decay from the top rung: <S3> = 2(1+tau)e^(-2 tau) - 1
    expect = [2.0 * (1.0 + t) * math.exp(-2.0 * t) - 1.0
              for t in (0.0, 0.5, 1.0)]
    assert np.abs(np.array(got) - expect).max() <= 1e-12


def test_propagate_truncated_model_at_sixty_sites(capsys):
    code, out, _ = run(capsys, "propagate", "--initial", "dicke:30", "--z", "60",
                       "--model", "dicke-truncated")
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    assert rows.shape == (200, 3) and np.all(np.isfinite(rows))
    assert np.abs(rows[:, 1] - 1.0).max() <= 1e-12


def test_propagate_entropy_through_the_dense_model(capsys):
    code, out, _ = run(capsys, "propagate", "--initial", "ghz",
                       "--model", "dense-oracle", "--observables", "entropy",
                       "--tau-max", "2", "--steps", "3", "--format", "json")
    assert code == 0
    column = json.loads(out)["values"]["entropy"]
    assert column[0] == pytest.approx(0.0, abs=1e-9)
    assert column[1] > 0.1


# -------------------------------------------------------------- exit codes

@pytest.mark.parametrize("argv", [
    ("propagate", "--initial", "bogus"),
    ("propagate", "--initial", "dicke:1"),                      # missing --z
    ("propagate", "--initial", "dicke:5", "--z", "2"),          # q3 out of range
    ("propagate", "--initial", "bell", "--z", "3"),
    ("propagate", "--initial", "config:1,1", "--z", "2"),
    ("propagate", "--initial", "config:1,x,0,0"),
    ("propagate", "--initial", "bell", "--observables", "weirdness"),
    ("propagate", "--initial", "bell", "--steps", "0"),
    ("propagate", "--initial", "bell", "--tau-max", "-1"),
    ("propagate", "--initial", "dicke:1", "--z", "2",
     "--model", "dicke-truncated", "--ctilde", "0.9"),
    ("propagate", "--initial", "config:1,1,1,0",
     "--model", "dicke-truncated"),
    ("propagate", "--initial", "bell", "--model", "dicke-truncated", "--s", "1.5"),
    ("propagate", "--initial", "bell", "--model", "dense-oracle", "--s", "1.5"),
    ("propagate", "--initial", "bell", "--model", "dense-oracle", "--s", "nan"),
    ("propagate", "--initial", "bell", "--model", "dense-oracle", "--ctilde", "-1"),
    ("propagate", "--initial", "dicke:1", "--z", "4", "--tau-max", "inf"),
    ("propagate", "--initial", "dicke:1", "--z", "4", "--tau-max", "nan"),
    ("verify", "--words", "0"),
    ("verify", "--z-max", "0"),
    ("verify", "--z-max", "-1"),
    ("propagate", "--initial", "dicke:0", "--z", "2", "--tau-max", "5e-324",
     "--steps", "3"),                                           # linspace repeats a tau
])
@pytest.mark.filterwarnings("error")
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Warning" not in err
    if argv[-2:] in (("--tau-max", "inf"), ("--tau-max", "nan")):
        assert err == f"error: tau-max={argv[-1]} must be finite and positive\n"
    if argv[0] == "verify":
        name = {"--words": "words_per_z", "--z-max": "z_max"}[argv[1]]
        assert err == f"error: {name}={argv[2]} must be at least 1\n"
    if argv[-4:-2] == ("--tau-max", "5e-324"):
        assert err == "error: tau grid must be strictly increasing\n"


@pytest.mark.parametrize("q3, z", [("1", "11"), ("7", "4")])
def test_dicke_label_error_names_the_projection(capsys, q3, z):
    code, out, err = run(capsys, "propagate", "--initial", f"dicke:{q3}", "--z", z)
    assert (code, out) == (2, "")
    assert err == f"error: q3={q3} is not a spin projection of z={z} sites\n"


@pytest.mark.parametrize("z", ["-2", "0"])
def test_site_count_below_one_is_refused_first(capsys, z):
    code, out, err = run(capsys, "propagate", "--initial", "dicke:0", "--z", z)
    assert (code, out) == (2, "")
    assert err == f"error: need at least one site, got z={z}\n"


def test_argparse_errors_exit_two(capsys):
    assert run(capsys, "propagate")[0] == 2          # --initial is required
    assert run(capsys, "no-such-command")[0] == 2


def test_oracle_limit_env_blocks_dense_paths(capsys, monkeypatch):
    monkeypatch.setenv(su4.ORACLE_LIMIT_ENV, "2")
    code, _, err = run(capsys, "propagate", "--initial", "ghz",
                       "--observables", "entropy")
    assert code == 2 and "oracle limit" in err
    code, _, err = run(capsys, "propagate", "--initial", "ghz",
                       "--model", "dense-oracle")
    assert code == 2 and "oracle limit" in err
    # trace and inversion never touch the dense space
    code, _, _ = run(capsys, "propagate", "--initial", "ghz",
                     "--tau-max", "1", "--steps", "2")
    assert code == 0


def test_diagonal_entropy_runs_above_the_oracle_limit(capsys):
    code, out, err = run(capsys, "propagate", "--initial", "dicke:100", "--z", "200",
                         "--s", "0.3", "--steps", "20", "--observables", "trace,entropy")
    assert (code, err) == (0, "")
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in out.strip().split("\n")[1:]])
    assert rows.shape == (20, 3)
    # all-excited start: each site stays diagonal with excitation
    # p = s + (1 - s) e^(-tau), so S = Z H2(p)
    p = 0.3 + 0.7 * np.exp(-rows[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        want = np.nan_to_num(-200.0 * (p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p)))
    assert np.all(np.abs(rows[:, 2] - want) <= 1e-10 * want)
    # a start with coherences still needs the dense route
    code, out, err = run(capsys, "propagate", "--initial", "config:1,0,18,1", "--z", "20",
                         "--observables", "entropy")
    assert (code, out) == (2, "") and "oracle limit" in err


@pytest.mark.parametrize("raw", ["abc", "-3"])
def test_malformed_oracle_limit_is_a_usage_error(capsys, monkeypatch, raw):
    monkeypatch.setenv(su4.ORACLE_LIMIT_ENV, raw)
    code, out, err = run(capsys, "propagate", "--initial", "bell",
                         "--observables", "entropy")
    assert (code, out) == (2, "")
    assert err == f"error: {su4.ORACLE_LIMIT_ENV}={raw!r} must be an integer >= 1\n"


# ------------------------------------------------------------------ verify

def test_verify_passes_quickly(capsys):
    code, out, _ = run(capsys, "verify", "--z-max", "2", "--words", "6")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[-1].startswith("all ") and lines[-1].endswith("checks passed")
    assert all(line.startswith("PASS") for line in lines[:-1])


VERIFY_CHECKS = (
    "commutator-table", "dependency-identities", "linearity", "duality", "casimir",
    "dimension", "ladder-vs-dense", "biorthogonality", "spectrum", "block-rates",
    "decay-closed-form", "dephasing-vs-oracle", "bell-weights", "bch-vs-oracle",
    "ghz-weights", "physicality", "entropy-endpoints", "inversion-formulas",
)
VERIFY_LINE = re.compile(r"(PASS|FAIL)  ([a-z-]+): .+ \(\d+\.\d\ds\)")


def verify_report(out):
    """{check name: PASS or FAIL} in report order, and the summary line."""
    *lines, summary = out.strip().split("\n")
    status = {}
    for line in lines:
        match = VERIFY_LINE.fullmatch(line)
        assert match, line
        status[match[2]] = match[1]
    return status, summary


def test_verify_full_battery_passes(capsys):
    code, out, _ = run(capsys, "verify")
    status, summary = verify_report(out)
    assert code == 0 and summary == "all 18 checks passed"
    assert tuple(status) == VERIFY_CHECKS
    assert set(status.values()) == {"PASS"}


def nan_state(v, p, tau):
    return sec.SymmetricVector(v.z, np.full(v.coeffs.shape, np.nan))


def test_verify_fails_on_a_nan_propagator(capsys, monkeypatch):
    # every check that propagates must fail; the one that raises inside
    # (entropy of a NaN matrix) reports FAIL and the battery goes on
    monkeypatch.setattr(verification, "propagate_bch", nan_state)
    monkeypatch.setattr(verification, "evolve", nan_state)
    code, out, _ = run(capsys, "verify", "--words", "4")
    status, summary = verify_report(out)
    assert code == 1 and summary == "8 of 18 checks FAILED"
    assert tuple(status) == VERIFY_CHECKS
    assert [name for name, s in status.items() if s == "FAIL"] == [
        "decay-closed-form", "dephasing-vs-oracle", "bell-weights", "bch-vs-oracle",
        "ghz-weights", "physicality", "entropy-endpoints", "inversion-formulas"]


def test_verify_fails_on_nan_eigenvalues(capsys, monkeypatch):
    real = verification._leading_block_spectrum

    def nan_spectrum(p):
        vals, stat = real(p)
        return np.full_like(vals, np.nan), stat

    monkeypatch.setattr(verification, "_leading_block_spectrum", nan_spectrum)
    code, out, _ = run(capsys, "verify", "--z-max", "2", "--words", "4")
    status, _ = verify_report(out)
    assert code == 1
    assert [name for name, s in status.items() if s == "FAIL"] == ["spectrum"]


def test_verify_catches_an_injected_table_bug(capsys, monkeypatch):
    # corrupt one structure constant (test fixture) and expect a FAIL exit
    monkeypatch.setitem(su4.COMMUTATOR_TABLE, ("Q+", "Q-"),
                        ((2, "Q3"), (1, "M3")))
    code, out, _ = run(capsys, "verify", "--z-max", "1", "--words", "4")
    assert code == 1
    assert "FAIL  commutator-table" in out
    assert "FAILED" in out.strip().split("\n")[-1]


def failed_checks(capsys, *argv):
    code, out, _ = run(capsys, "verify", *argv)
    status, _ = verify_report(out)
    assert code == 1
    return [name for name, s in status.items() if s == "FAIL"]


def test_verify_catches_a_corrupted_mirrored_table_entry(capsys, monkeypatch):
    # [Q-,Q+] = -2 Q3; the (Q+, Q-) entry stays right, so a check that read
    # only one ordering, or reused one commutator for its mirror, would pass
    monkeypatch.setitem(su4.COMMUTATOR_TABLE, ("Q-", "Q+"), ((2, "Q3"),))
    assert failed_checks(capsys, "--z-max", "2") == ["commutator-table"]


def test_verify_catches_a_wrong_casimir_eigenvalue(capsys, monkeypatch):
    # give M the U family's paired-factor count
    monkeypatch.setitem(verification._CASIMIR_CONTENT, "M",
                        lambda c: Fraction(c.alpha + c.gamma, 2))
    assert failed_checks(capsys, "--z-max", "2") == ["casimir"]


def test_verify_catches_a_dual_label_that_is_not_flipped(capsys, monkeypatch):
    monkeypatch.setattr(sec, "dual_qn", lambda qn: qn)
    assert failed_checks(capsys, "--z-max", "2") == ["biorthogonality"]


def test_verify_catches_a_ladder_coefficient_off_by_one(capsys, monkeypatch):
    real = sec.apply_ladder

    def off_by_one(x, qn, z):
        coeff, target = real(x, qn, z)
        return coeff + 1, target

    monkeypatch.setattr(sec, "apply_ladder", off_by_one)
    assert failed_checks(capsys, "--z-max", "2") == ["ladder-vs-dense"]


def test_verify_catches_a_basis_order_swap(capsys, monkeypatch):
    # swap two generalized Dicke states at Z = 3; only `dimension` states
    # the order independently of `_slot_configs`
    real = sec.basis_configs

    def swapped(z):
        configs = real(z)
        if z == 3:
            configs[1], configs[2] = configs[2], configs[1]
        return configs

    monkeypatch.setattr(sec, "basis_configs", swapped)
    assert "dimension" in failed_checks(capsys)


@pytest.mark.parametrize("table, op, rule", [("SINGLE_SITE", "Q+", {"d": (1, "s")}),
                                              ("DIAGONAL_FACTORS", "M3", ("u", "d"))])
def test_verify_catches_a_wrong_single_site_rule(capsys, monkeypatch, table, op, rule):
    # the word and label routes both read su4's rules; the Pauli route does not
    monkeypatch.setitem(getattr(su4, table), op, rule)
    assert "ladder-vs-dense" in failed_checks(capsys, "--z-max", "2", "--words", "4")


# `dicke4 verify --seed 3` with the timing suffixes stripped: sharing word
# images between the comparisons of a check must not change any line
VERIFY_SEED_3 = """\
PASS  commutator-table: 32400 commutators match exactly
PASS  dependency-identities: N3/U3/V3 decompositions exact on random words
PASS  linearity: superoperators act linearly
PASS  duality: trace duality exact for all 18 maps
PASS  casimir: Casimir structure verified: [X^2,Y3]=0, partner pairs commute, \
sector eigenvalues mu(mu+1)
PASS  dimension: formula holds for z=1..20
PASS  ladder-vs-dense: 18 maps x all states agree (max dense gap 0.0e+00)
PASS  biorthogonality: delta pairing exact for z <= 4
PASS  spectrum: block spectrum and stationary weights verified to z=4
PASS  block-rates: all block spectra are {-(Z/2-q)-j} up to z=4
PASS  decay-closed-form: binomial decay formula matches the propagator
PASS  dephasing-vs-oracle: dephasing factor matches the oracle
PASS  bell-weights: closed-form weights reproduced to 1e-12
PASS  bch-vs-oracle: max entrywise gap 6.7e-16
PASS  ghz-weights: decay weights (including negative coherences) reproduced
PASS  physicality: trajectories stay unit-trace, Hermitian, positive
PASS  entropy-endpoints: pure starts; 2-bit Bell plateau; GHZ peak 1.970 then 0
PASS  inversion-formulas: decay inversion curves and collective Z=2 formula hold
all 18 checks passed
"""


def test_verify_report_is_unchanged(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "3")
    assert code == 0
    assert re.sub(r" \(\d+\.\d\ds\)$", "", out, flags=re.M) == VERIFY_SEED_3


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "--z-max", "1", "--words", "4",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().strip().endswith("checks passed")
