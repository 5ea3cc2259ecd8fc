import contextlib
import decimal
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import specsep
from specsep import __version__, cli
from specsep.cli import EXIT_INVALID, EXIT_OK, EXIT_PRECONDITION, MAX_TOTAL_DIM, main
from specsep.criteria import gibbs_threshold
from specsep.fileio import dumps, load_state, matrix_to_payload, save_state
from specsep.states import (
    NAMED_STATES,
    DensityMatrix,
    density_matrix,
    make_named_state,
    make_omega_t,
    make_rho_tilde,
    spectrum,
)


def _write(tmp_path, name, state):
    path = tmp_path / name
    save_state(path, state)
    return str(path)


def test_construct_werner(tmp_path, capsys):
    out = str(tmp_path / "w.state.json")
    assert main(["construct", "werner", "--output", out]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "0.625" in printed and "0.125" in printed
    rho = load_state(out)
    assert isinstance(rho, DensityMatrix)
    assert np.allclose(rho.matrix, make_named_state("werner").matrix, atol=1e-15)


def test_construct_omega_t_requires_valid_t(tmp_path):
    out = str(tmp_path / "o.state.json")
    assert main(["construct", "omega_t", "--t", "1.2", "--output", out]) == EXIT_OK
    rho = load_state(out)
    assert np.allclose(rho.matrix, make_omega_t(2, 2, 1.2).matrix, atol=1e-15)
    assert main(["construct", "omega_t", "--t", "2.5", "--output", out]) == EXIT_INVALID


def test_construct_takes_exactly_the_named_states(tmp_path):
    (name_arg,) = [a for a in cli._SUBPARSERS["construct"]._actions if a.dest == "name"]
    assert name_arg.choices is NAMED_STATES
    options = {"seed_state": [], "werner": [], "omega_t": ["--t", "1.5"]}
    for name in NAMED_STATES:
        argv = ["construct", name, "--output", str(tmp_path / "s.json")]
        assert main(argv + options.get(name, ["--d-b", "3"])) == EXIT_OK, name


def test_construct_rho_tilde_needs_unequal_dims(tmp_path):
    out = str(tmp_path / "r.state.json")
    args = ["construct", "rho_tilde", "--d-a", "2", "--output", out]
    assert main(args + ["--d-b", "3"]) == EXIT_OK
    assert main(args + ["--d-b", "2"]) == EXIT_INVALID


def test_classify_rho_tilde(tmp_path, capsys):
    state = _write(tmp_path, "rt.json", make_rho_tilde(2, 3))
    report = str(tmp_path / "report.json")
    assert main(["classify", state, "--output", report]) == EXIT_OK
    payload = json.loads(open(report).read())
    verdicts = {v["name"]: v["status"] for v in payload["verdicts"]}
    assert verdicts["ratio_cas"] == "detected"
    assert verdicts["appt_necessary"] == "detected"
    assert verdicts["purity_ball"] == "not-detected"  # purity 5/24 sits just outside
    assert payload["tool_version"]
    assert len(payload["input_digest"]) == 64


def test_classify_spectrum_file(tmp_path):
    from specsep.states import spectrum_from_values

    spec = spectrum_from_values([0.4, 0.3, 0.2, 0.1], (2, 2))
    state = _write(tmp_path, "s.json", spec)
    assert main(["classify", state]) == EXIT_OK


def test_classify_compare_criteria(tmp_path, capsys):
    state = _write(tmp_path, "rt.json", make_rho_tilde(2, 3))
    assert main(["classify", state, "--compare-criteria"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "maximally_mixed" in printed and "rho_tilde" in printed
    # only 2x2 tabulates the seed state and the Werner state, and has no rho_tilde
    state = _write(tmp_path, "w.json", make_named_state("werner"))
    assert main(["classify", state, "--compare-criteria"]) == EXIT_OK
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()
             if "detected-by:" in line]
    assert names == ["maximally_mixed", "seed_state", "werner"]


def test_classify_compare_criteria_refuses_dims_above_the_limit(tmp_path, capsys):
    # the comparison builds D x D named states; plain classify is O(D) and runs
    big_d = 2 * (MAX_TOTAL_DIM // 2 + 1)
    state = tmp_path / "s.json"
    state.write_text(dumps({"dims": {"locals": [2, big_d // 2]}, "spectrum": [1.0 / big_d] * big_d}))
    out = tmp_path / "out.json"
    assert main(["classify", str(state), "--compare-criteria", "--output", str(out)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the state's D is %d, above the limit" % big_d in captured.err
    assert not out.exists()
    assert main(["classify", str(state), "--output", str(out)]) == EXIT_OK


def test_classify_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == EXIT_INVALID
    missing = tmp_path / "missing.json"
    assert main(["classify", str(missing)]) == EXIT_INVALID
    both = tmp_path / "both.json"
    both.write_text('{"dims":{"locals":[2,2]},"matrix":[],"spectrum":[]}')
    assert main(["classify", str(both)]) == EXIT_INVALID


def _strict_json(path):
    def refuse(name):
        raise ValueError("non-finite constant %s" % name)

    with open(path) as fh:
        return json.load(fh, parse_constant=refuse)


def test_reports_on_singular_states_are_strict_json(tmp_path):
    # an infinite spectral ratio is written as null
    phi = _write(tmp_path, "phi.json", make_named_state("phi_plus"))
    report = str(tmp_path / "classify.json")
    assert main(["classify", phi, "--output", report]) == EXIT_OK
    verdicts = {v["name"]: v for v in _strict_json(report)["verdicts"]}
    assert verdicts["ratio_cas"]["computed"]["ratio"] is None
    seed = _write(tmp_path, "seed.json", make_named_state("seed_state"))
    werner = _write(tmp_path, "werner.json", make_named_state("werner"))
    report = str(tmp_path / "transform.json")
    assert main(["transform", seed, werner, "--output", report]) == EXIT_OK
    assert "plan" not in _strict_json(report)


@pytest.mark.parametrize("body", [
    '{"dims":{"locals":[2,2]},"spectrum":[NaN,NaN,NaN,NaN]}',
    '{"dims":{"locals":[2,2]},"spectrum":[Infinity,0,0,0]}',
    '{"dims":{"locals":[2,2]},"spectrum":[1e400,0,0,0]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[NaN,0],[0,0]],[[0,0],[0.5,0]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[1e400,0],[0,0]],[[0,0],[0.5,0]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],[0,0]],[[0,0],[0.5,NaN]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],[0,-1e400]],[[0,1e400],[0.5,0]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],[0,0]],[[0,0],[0.5,-1e400]]]}',
    '{"dims":{"locals":[2,2]},"spectrum":[0.5,0.5,0,-1e400]}',
], ids=["nan-spectrum", "infinity-spectrum", "overflow-spectrum", "nan-matrix",
        "overflow-matrix", "nan-imaginary-matrix", "overflow-off-diagonal-matrix",
        "overflow-last-matrix", "negative-overflow-spectrum"])
def test_non_finite_state_file_is_invalid(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert main(["classify", str(path)]) == EXIT_INVALID
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("body,message", [
    ('{"dims":{"locals":[2,2]},"spectrum":[1e308,1e308,0,0]}', "trace is inf, expected 1"),
    ('{"dims":{"locals":[2,2]},"spectrum":[1e308,1e308,-1e308,-1e308]}',
     "state is not PSD (eigenvalue -1.000e+308 below -1e-10)"),
    ('{"dims":{"locals":[2,2]},"spectrum":[1e400,-1e400,0,1]}',
     "spectrum has non-finite values"),
    ('{"dims":{"locals":[2,2]},"spectrum":[0.5,0.5,0.1,0.1]}',
     "trace is 1.2000000000000002, expected 1"),
    ('{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],[1e400,0]],[[0,0],[0.5,0]]]}',
     "matrix has non-finite entries"),
    ('{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],[0.1,0]],[[0.2,0],[0.5,0]]]}',
     "matrix is not Hermitian (residual 1.000e-01)"),
    # finite entries whose modulus overflows: the imaginary diagonal is caught
    ('{"dims":{"locals":[1,2]},"matrix":[[[1.5e308,1.5e308],[0,0]],[[0,0],[0.5,0]]]}',
     "matrix is not Hermitian (residual inf)"),
], ids=["overflowing-sum", "overflowing-negative", "two-infinities", "off-trace",
        "infinite-entry", "not-hermitian", "overflowing-modulus"])
def test_state_file_errors_keep_their_messages(tmp_path, capsys, body, message):
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert main(["classify", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("body", [
    '{"dims":{"locals":[2,2]},"spectrum":[1e308,1e308,0,0]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[1.5e308,1.5e308],[0,0]],[[0,0],[0.5,0]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[1.5e308,0],[0,0]],[[0,0],[1.5e308,0]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[1e308,0],[1.5e308,1.5e308]],[[1.5e308,-1.5e308],[1e308,0]]]}',
], ids=["overflowing-sum", "overflowing-modulus", "overflowing-diagonal-sum", "hermitian-overflowing-modulus"])
def test_overflowing_state_file_prints_only_its_error_line(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["classify", str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_transform_worked_example(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json",
                 density_matrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), (2, 2)))
    sigma = _write(tmp_path, "sigma.json", make_omega_t(2, 2, 1.2))
    report = str(tmp_path / "plan.json")
    assert main(["transform", rho, sigma, "--output", report]) == EXIT_OK
    printed = capsys.readouterr().out
    # p = q lambda_max(rho) / lambda_max(sigma) = (1/3)(0.4)(7/4) = 7/30
    assert "success probability: 0.233333333333" in printed
    payload = json.loads(open(report).read())
    assert payload["success_probability"] == pytest.approx(7 / 30, abs=1e-9)
    assert payload["verification"]["output_residual"] < 1e-9
    assert payload["verification"]["ratio_monotone"] is True


def test_transform_takes_no_c(tmp_path, capsys):
    rho = _write(tmp_path, "rho.json", make_named_state("seed_state"))
    sigma = _write(tmp_path, "sigma.json", make_named_state("werner"))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main(["transform", rho, sigma, "--c", "0.1", "--output", str(out)])
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments: --c 0.1" in capsys.readouterr().err
    assert not out.exists()


def test_transform_precondition_failure(tmp_path):
    # CAS input cannot reach a higher-ratio target
    rho = _write(tmp_path, "rho.json", make_rho_tilde(2, 3))
    sigma = _write(tmp_path, "sigma.json", make_omega_t(2, 3, 1.4))
    assert main(["transform", rho, sigma]) == EXIT_PRECONDITION


def test_transform_needs_matrix_files(tmp_path):
    from specsep.states import spectrum_from_values

    spec = spectrum_from_values([0.4, 0.3, 0.2, 0.1], (2, 2))
    s = _write(tmp_path, "spec.json", spec)
    m = _write(tmp_path, "m.json", make_omega_t(2, 2, 1.2))
    assert main(["transform", s, m]) == EXIT_INVALID


def test_witness_evaluate(tmp_path, capsys):
    state = _write(tmp_path, "rt.json", make_rho_tilde(2, 3))
    report = str(tmp_path / "w.json")
    rc = main(["witness", "separating", "--d-a", "2", "--d-b", "3",
               "--evaluate", state, "--output", report])
    assert rc == EXIT_OK
    # rho_tilde is CAS, hence separable: the separating witness is not block
    # positive, so its negative value does not say "entangled"
    printed = capsys.readouterr().out
    assert "(outside the regions W separates)" in printed
    assert "entangled" not in printed
    payload = json.loads(open(report).read())
    assert payload["expectation"] == pytest.approx(-0.019672, abs=1e-5)


@pytest.mark.parametrize("state,d_b,value,verdict", [
    (make_named_state("werner"), 2, -1 / 8, "entangled (NPT)"),
    (make_rho_tilde(2, 3), 3, 1 / 6, "no detection"),
], ids=["werner", "rho-tilde"])
def test_witness_ppt_verdict(tmp_path, capsys, state, d_b, value, verdict):
    path = _write(tmp_path, "s.json", state)
    report = tmp_path / "w.json"
    assert main(["witness", "ppt", "--d-a", "2", "--d-b", str(d_b),
                 "--evaluate", path, "--output", str(report)]) == EXIT_OK
    assert "(%s)" % verdict in capsys.readouterr().out
    assert json.loads(report.read_text())["expectation"] == pytest.approx(value, abs=1e-12)


def test_witness_evaluate_refuses_other_dims(tmp_path, capsys):
    state = _write(tmp_path, "phi.json", make_named_state("phi_plus", 2, 3))
    report = tmp_path / "w.json"
    assert main(["witness", "ppt", "--d-a", "3", "--d-b", "2",
                 "--evaluate", state, "--output", str(report)]) == EXIT_INVALID
    assert (capsys.readouterr().err
            == "error: witness dims (3, 2) differ from state dims (2, 3)\n")
    assert not report.exists()


def test_witness_evaluate_refuses_a_spectrum_file(tmp_path, capsys):
    state = _write(tmp_path, "s.json", spectrum(make_named_state("werner")))
    report = tmp_path / "w.json"
    assert main(["witness", "ppt", "--d-a", "2", "--d-b", "2",
                 "--evaluate", state, "--output", str(report)]) == EXIT_INVALID
    assert "witness evaluation needs a matrix state file" in capsys.readouterr().err
    assert not report.exists()


def test_witness_ppt_trace_norm(capsys):
    assert main(["witness", "ppt", "--d-a", "2", "--d-b", "2"]) == EXIT_OK
    assert "trace_norm=2" in capsys.readouterr().out


def test_witness_separating_equal_dims_invalid():
    assert main(["witness", "separating", "--d-a", "2", "--d-b", "2"]) == EXIT_INVALID


def test_bounds_copy_and_gibbs(tmp_path, capsys):
    report = str(tmp_path / "b.json")
    assert main(["bounds", "--copies", "3", "--output", report]) == EXIT_OK
    assert "n = 2" in capsys.readouterr().out
    payload = json.loads(open(report).read())
    assert payload["copy_bound"]["n"] == 2

    assert main(["bounds", "--h-norm", "1", "--l", "2"]) == EXIT_OK
    assert main(["bounds", "--copies", "2"]) == EXIT_OK
    assert main(["bounds", "--copies", "1"]) == EXIT_INVALID  # no finite copy bound
    assert main(["bounds"]) == EXIT_INVALID
    assert main(["bounds", "--h-norm", "1"]) == EXIT_INVALID  # missing --l


def test_bounds_gibbs_value(capsys):
    import math

    assert main(["bounds", "--h-norm", "1", "--l", "2"]) == EXIT_OK
    printed = capsys.readouterr().out
    assert format(2 / math.log(3), ".12g") in printed


def test_bounds_writes_a_zero_temperature_for_a_negative_zero_norm(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert main(["bounds", "--h-norm", "-0", "--l", "2", "--output", str(out)]) == EXIT_OK
    assert "T* = 0\n" in capsys.readouterr().out
    assert '"temperature":0}' in out.read_text()


@pytest.mark.parametrize("l", [2, 3, 4, 5, 6, 10**6, 10**17, 2**80])
def test_gibbs_threshold_is_accurate_for_large_l(tmp_path, l):
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        expected = float(2 / ((decimal.Decimal(l) + 1) / (decimal.Decimal(l) - 1)).ln())
    t_star = gibbs_threshold(1.0, l)
    assert abs(t_star - expected) <= 4 * np.finfo(float).eps * expected

    def refuse(name):
        raise ValueError("non-finite constant %s" % name)

    for h_norm, temperature in (("1", t_star), ("0", 0.0)):
        out = tmp_path / "b.json"
        argv = ["bounds", "--h-norm", h_norm, "--l", str(l), "--output", str(out)]
        assert main(argv) == EXIT_OK
        report = json.loads(out.read_text(), parse_constant=refuse)
        assert report["gibbs_threshold"]["temperature"] == temperature


def test_falsify_deterministic_reports(tmp_path):
    state = _write(tmp_path, "pure.json",
                   make_named_state("phi_plus"))
    r1, r2 = str(tmp_path / "f1.json"), str(tmp_path / "f2.json")
    assert main(["falsify", state, "--samples", "20", "--seed", "5",
                 "--output", r1]) == EXIT_OK
    assert main(["falsify", state, "--samples", "20", "--seed", "5",
                 "--output", r2]) == EXIT_OK
    assert open(r1, "rb").read() == open(r2, "rb").read()
    payload = json.loads(open(r1).read())
    assert payload["found"] is True
    assert payload["unitary_seed"] == 5
    assert payload["samples_used"] == payload["unitary_index"] + 1


def test_falsify_needs_a_positive_sample_count(tmp_path, capsys):
    state = _write(tmp_path, "pure.json", make_named_state("phi_plus"))
    report = tmp_path / "f.json"
    for samples in ("0", "-3"):
        assert main(["falsify", state, "--samples", samples,
                     "--output", str(report)]) == EXIT_INVALID
        assert "samples must be >= 1" in capsys.readouterr().err
    assert not report.exists()


def test_falsify_not_found_inconclusive(tmp_path, capsys):
    from specsep.states import bipartite_dims, maximally_mixed

    state = _write(tmp_path, "mm.json", maximally_mixed(bipartite_dims(2, 2)))
    assert main(["falsify", state, "--samples", "10"]) == EXIT_OK
    assert "inconclusive" in capsys.readouterr().out


def test_state_file_round_trip_bytes(tmp_path):
    rho = make_rho_tilde(2, 3)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_state(p1, rho)
    loaded = load_state(p1)
    save_state(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_spectrum_file_round_trip_bytes(tmp_path):
    spec = spectrum(make_rho_tilde(2, 4))
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_state(p1, spec)
    loaded = load_state(p1)
    save_state(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_off_trace_is_invalid_and_no_option_loosens_it(tmp_path, capsys):
    payload = '{"dims":{"locals":[2,2]},"spectrum":[0.25001,0.25,0.25,0.25]}\n'
    path = tmp_path / "off.json"
    path.write_text(payload)
    assert main(["classify", str(path)]) == EXIT_INVALID
    assert "trace is 1.00001" in capsys.readouterr().err
    # the tolerances are fixed: a scaling option is an unknown argument
    for scale in ("1", "1e7"):
        with pytest.raises(SystemExit) as exc:
            main(["classify", str(path), "--tol-override", scale])
        assert exc.value.code == EXIT_INVALID
        assert "unrecognized arguments: --tol-override" in capsys.readouterr().err


def test_construct_omega_t_without_t_is_invalid(tmp_path, capsys):
    out = tmp_path / "o.state.json"
    assert main(["construct", "omega_t", "--output", str(out)]) == EXIT_INVALID
    assert "requires the parameter t" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["werner", "--d-a", "3", "--d-b", "3"], "only at dims 2x2"),
    (["seed_state", "--d-b", "3"], "only at dims 2x2"),
    (["werner", "--t", "1.2"], "takes no parameter t"),
    (["phi_plus", "--t", "0.5"], "takes no parameter t"),
    (["maximally_mixed", "--d-a", "3", "--t", "1"], "takes no parameter t"),
    (["rho_tilde", "--d-b", "3", "--t", "1"], "takes no parameter t"),
    (["phi_plus", "--d-a", "-1"], "local dimensions must be >= 2"),
], ids=["werner-3x3", "seed-2x3", "werner-t", "phi-t", "mixed-t", "rho-tilde-t",
        "phi-negative-dims"])
def test_construct_refuses_options_the_state_ignores(tmp_path, capsys, argv, message):
    out = tmp_path / "s.state.json"
    assert main(["construct", *argv, "--output", str(out)]) == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["construct", "phi_plus"],
    ["construct", "maximally_mixed"],
    ["witness", "ppt"],
    ["witness", "separating"],
], ids=["construct-phi", "construct-mixed", "witness-ppt", "witness-separating"])
@pytest.mark.parametrize("d_a,d_b", [(100000, 100000), (2, MAX_TOTAL_DIM // 2 + 1)],
                         ids=["1e5x1e5", "just-above"])
def test_dimensions_above_the_limit_are_refused(tmp_path, capsys, argv, d_a, d_b):
    out = tmp_path / "out.json"
    assert main([*argv, "--d-a", str(d_a), "--d-b", str(d_b),
                 "--output", str(out)]) == EXIT_INVALID
    assert "above the limit D <= %d" % MAX_TOTAL_DIM in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dims,message", [
    ((2, MAX_TOTAL_DIM // 2 + 1), "above the limit D <= %d" % MAX_TOTAL_DIM),
    ((1, 4), "local dimensions must be >= 2"),
], ids=["just-above", "local-dim-1"])
def test_falsify_refuses_dims_it_cannot_search(tmp_path, capsys, dims, message):
    big_d = dims[0] * dims[1]
    state = tmp_path / "s.json"
    state.write_text(dumps({"dims": {"locals": list(dims)}, "spectrum": [1.0 / big_d] * big_d}))
    out = tmp_path / "out.json"
    assert main(["falsify", str(state), "--samples", "1", "--output", str(out)]) == EXIT_INVALID
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "s.json"],
    ["construct", "werner"],
    ["transform", "s.json", "s.json"],
    ["witness", "ppt"],
    ["bounds", "--copies", "3"],
], ids=["classify", "construct", "transform", "witness", "bounds"])
def test_only_falsify_takes_a_seed(tmp_path, capsys, argv):
    _write(tmp_path, "s.json", make_named_state("werner"))
    out = tmp_path / "out.json"
    argv = [str(tmp_path / a) if a == "s.json" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "5", "--output", str(out)])
    assert exc.value.code == EXIT_INVALID
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


def test_parser_reuse_carries_nothing_between_calls(tmp_path, capsys):
    state = _write(tmp_path, "pure.json", make_named_state("phi_plus"))
    first = tmp_path / "first.json"
    assert main(["falsify", state, "--samples", "20", "--seed", "5",
                 "--output", str(first)]) == EXIT_OK
    assert "unitary seed 5" in capsys.readouterr().out
    assert json.loads(first.read_text())["seed"] == 5
    first.unlink()

    assert main(["falsify", state, "--samples", "20"]) == EXIT_OK
    assert "unitary seed 0" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pure.json"]

    with pytest.raises(SystemExit) as exc:
        main(["falsify"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()

    second = tmp_path / "second.json"
    assert main(["falsify", state, "--samples", "20", "--output", str(second)]) == EXIT_OK
    assert "unitary seed 0" in capsys.readouterr().out
    payload = json.loads(second.read_text())
    assert payload["seed"] == payload["unitary_seed"] == 0


def test_falsify_names_a_negative_seed(tmp_path, capsys):
    state = _write(tmp_path, "pure.json", make_named_state("phi_plus"))
    report = tmp_path / "f.json"
    assert main(["falsify", state, "--seed", "-1", "--output", str(report)]) == EXIT_INVALID
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not report.exists()


def test_deeply_nested_state_file_is_invalid(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"dims":{"locals":[2,2]},"spectrum":%s}' % ("[" * 10**5 + "]" * 10**5))
    assert main(["classify", str(path)]) == EXIT_INVALID
    assert "cannot parse state file" in capsys.readouterr().err


def test_output_into_missing_directory_is_invalid(tmp_path, capsys):
    missing = tmp_path / "no" / "such"
    assert main(["construct", "werner", "--output", str(missing / "w.json")]) == EXIT_INVALID
    assert main(["bounds", "--copies", "3", "--output", str(missing / "b.json")]) == EXIT_INVALID
    assert capsys.readouterr().err.count("error: cannot write") == 2


@pytest.mark.parametrize("body,message", [
    ('{"dims":{"locals":[2.7,2]},"spectrum":[0.25,0.25,0.25,0.25]}', "dims.locals"),
    ('{"dims":{"locals":"22"},"spectrum":[0.25,0.25,0.25,0.25]}', "dims.locals"),
    ('{"dims":{"locals":[4294967296,4294967296]},"spectrum":[]}', "18446744073709551616"),
], ids=["float-dims", "string-dims", "overflowing-dims"])
def test_malformed_dims_state_file_is_invalid(tmp_path, capsys, body, message):
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert main(["classify", str(path)]) == EXIT_INVALID
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--h-norm", "nan", "--l", "2"],
    ["--h-norm", "inf", "--l", "2"],
    ["--h-norm", "1", "--l", "2", "--k-b", "nan"],
], ids=["nan-h-norm", "inf-h-norm", "nan-k-b"])
def test_bounds_rejects_non_finite_gibbs_inputs(tmp_path, capsys, flags):
    report = tmp_path / "b.json"
    assert main(["bounds", *flags, "--output", str(report)]) == EXIT_INVALID
    assert "need finite" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flags", [
    ["--h-norm", "1", "--l", str(10**400)],
    ["--h-norm", "1e308", "--l", "2"],
    ["--h-norm", "1", "--l", str(10**17), "--k-b", "5e-324"],
], ids=["huge-l", "huge-h-norm", "tiny-k-b"])
def test_bounds_rejects_overflowing_gibbs_threshold(tmp_path, capsys, flags):
    report = tmp_path / "b.json"
    assert main(["bounds", *flags, "--output", str(report)]) == EXIT_INVALID
    assert "overflows a double" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("flags", [
    ["--copies", "3", "--l", "5"],
    ["--copies", "3", "--k-b", "7"],
], ids=["l", "k-b"])
def test_bounds_refuses_gibbs_options_without_h_norm(tmp_path, capsys, flags):
    report = tmp_path / "b.json"
    assert main(["bounds", *flags, "--output", str(report)]) == EXIT_INVALID
    captured = capsys.readouterr()
    assert "--l and --k-b apply only with --h-norm" in captured.err
    assert captured.out == ""
    assert not report.exists()


@pytest.mark.parametrize("body", [
    '{"dims":{"locals":[2,2]},"spectrum":["0.25","0.25","0.25","0.25"]}',
    '{"dims":{"locals":[2,2]},"spectrum":[true,false,false,false]}',
    '{"dims":{"locals":[1,2]},"matrix":'
    '[[[true,false],[false,false]],[[false,false],[false,false]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],[0,0]],[[0,0],[0.5,true]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],["0",0]],[[0,0],[0.5,0]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[0.5,0],[0,0]],[[0,0],[0.5,[0]]]]}',
    '{"dims":{"locals":[1,2]},"matrix":[[[1%s,0],[0,0]],[[0,0],[0.5,0]]]}' % ("0" * 400),
    '{"dims":{"locals":[2,2]},"spectrum":null}',
    '{"dims":{"locals":[2,2]},"spectrum":[[0.25,0.25],[0.25,0.25]]}',
    '{"dims":{"locals":[2,2]},"spectrum":[[0.25],0.25,0.25,0.25]}',
    '{"dims":{"locals":[2,2]},"spectrum":0.25}',
    '{"dims":{"locals":[1,2]},"spectrum":[1%s,0]}' % ("0" * 400),
], ids=["string-spectrum", "bool-spectrum", "bool-matrix", "one-bool-matrix",
        "string-matrix", "nested-matrix", "overflowing-int-matrix", "null-spectrum",
        "nested-spectrum", "ragged-spectrum", "bare-number-spectrum",
        "overflowing-int-spectrum"])
def test_non_number_state_file_is_invalid(tmp_path, capsys, body):
    path = tmp_path / "bad.json"
    path.write_text(body)
    assert main(["classify", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("error: ")


def test_integer_spectrum_loads(tmp_path):
    path = tmp_path / "pure.json"
    path.write_text('{"dims":{"locals":[2,2]},"spectrum":[1,0,0,0]}')
    spec = load_state(str(path))
    assert list(spec.values) == [1.0, 0.0, 0.0, 0.0]
    assert main(["classify", str(path)]) == EXIT_OK


@pytest.mark.parametrize("min_eig", [-5e-11, -1e-10], ids=["default", "at-tolerance"])
def test_noise_negative_state_file_runs_every_command(tmp_path, min_eig):
    # the eigenvalue the file was admitted with is clamped, not checked again
    m = np.diag([0.4, 0.3, 0.3 - min_eig, min_eig]).astype(complex)
    path = tmp_path / "noisy.json"
    path.write_text(dumps({"dims": {"locals": [2, 2]}, "matrix": matrix_to_payload(m)}))
    state = str(path)
    for argv in (["classify", state], ["falsify", state, "--samples", "5"],
                 ["transform", state, state], ["witness", "ppt", "--evaluate", state]):
        assert main(argv) == EXIT_OK


def test_self_transform_of_near_singular_state(tmp_path):
    # R(rho) and R(sigma) come from one eigensolver and are compared within
    # their conditioning, as the oracle also allows for it: ratios near 5e9
    # are known to about 1e4.  Each rotation goes onto itself and onto a
    # second rotation of the same spectrum.
    from specsep.oracles import haar_unitaries

    vals = np.array([0.5, 0.3, 0.2 - 1e-10, 1e-10])
    for seed in range(20):
        a, b = (_write(tmp_path, name, density_matrix((u * vals) @ u.conj().T, (2, 2)))
                for name, u in (("a.json", haar_unitaries(4, seed, 1)[0]),
                                ("b.json", haar_unitaries(4, seed + 100, 1)[0])))
        for target in (a, b):
            report = str(tmp_path / "t.json")
            assert main(["transform", a, target, "--output", report]) == EXIT_OK
            verification = _strict_json(report)["verification"]
            assert verification["ratio_monotone"] is True
            assert verification["output_residual"] < 1e-9


def test_transform_refuses_dims_above_the_limit(tmp_path, capsys, monkeypatch):
    werner = _write(tmp_path, "werner.json", make_named_state("werner"))
    monkeypatch.setattr(cli, "MAX_TOTAL_DIM", 3)
    out = tmp_path / "t.json"
    assert main(["transform", werner, werner, "--output", str(out)]) == EXIT_INVALID
    assert capsys.readouterr().err == "error: the state's D is 4, above the limit D <= 3\n"
    assert not out.exists()


def test_transform_refuses_transposed_local_dims(tmp_path, capsys):
    phi = _write(tmp_path, "phi.json", make_named_state("phi_plus", 2, 3))
    relabelled = _write(tmp_path, "rt32.json", density_matrix(make_rho_tilde(2, 3).matrix, (3, 2)))
    assert main(["transform", phi, relabelled, "--output", str(tmp_path / "t.json")]) == EXIT_INVALID
    assert (capsys.readouterr().err
            == "error: input dims (2, 3) differ from target dims (3, 2)\n")
    assert not (tmp_path / "t.json").exists()


def test_eigensolver_call_budget(tmp_path, monkeypatch):
    # each state file is eigendecomposed once, by its validation; transform
    # adds one eigvalsh per branch state, three in make_map (one per effect
    # and one for their sum) and one in the ratio-monotone oracle, and one
    # eigh each for rho's and sigma's eigenvectors
    werner = _write(tmp_path, "werner.json", make_named_state("werner"))
    omega = _write(tmp_path, "om.json", make_omega_t(2, 2, 1.2))
    calls = {}
    for name in ("eigvalsh", "eigh"):
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    # witness computes its trace norm once; a built-in state is validated once
    for argv, eigvalsh, eigh in ((["classify", werner], 1, 0),
                                 (["transform", werner, omega], 8, 2),
                                 (["witness", "ppt", "--d-a", "2", "--d-b", "3"], 1, 0),
                                 (["construct", "omega_t", "--t", "1.2", "--d-a", "2",
                                   "--d-b", "3"], 1, 0)):
        calls.update(eigvalsh=0, eigh=0)
        assert main(argv + ["--output", str(tmp_path / "r.json")]) == EXIT_OK
        assert calls == {"eigvalsh": eigvalsh, "eigh": eigh}


def _values_for(action):
    """Strings a command's option or positional may be given: its choices,
    numbers of its type, a file name, and values of the wrong type."""
    if action.choices:
        good = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        good = st.integers(-3, 2000).map(str)
    elif action.type is float:
        good = st.floats().map(repr)
    else:
        good = st.sampled_from(["s.json", "out.json", "-1", "a b"])
    return good | st.sampled_from(["abc", "1.5", "nan", "-1e3", ""])


# unknown flags, the separator, help and version, a token ambiguous among the
# top-level options, an abbreviation ambiguous in every command, a stray positional
_NOISE = st.sampled_from(["--bogus", "-x", "--", "-h", "--help", "--version", "--ver",
                          "--=x", "--h", "extra.json", "-1", ""])


@st.composite
def command_argvs(draw):
    """An argv built from one command's own options and values, each flag now
    and then abbreviated or joined to its value by '=', mixed with noise in
    any order (so positionals may follow options), and now and then headed
    by something other than the command."""
    name = draw(st.sampled_from(sorted(cli._SUBPARSERS)))
    groups = []
    for action in cli._SUBPARSERS[name]._actions:
        if action.dest == "help" or draw(st.booleans()):
            continue
        if not action.option_strings:
            groups.append([draw(_values_for(action))])
            continue
        flag = draw(st.sampled_from(action.option_strings))
        if flag.startswith("--") and draw(st.booleans()):
            flag = flag[:draw(st.integers(3, len(flag)))]
        if action.nargs == 0:
            groups.append([flag])
        elif draw(st.booleans()):
            groups.append(["%s=%s" % (flag, draw(_values_for(action)))])
        else:
            groups.append([flag, draw(_values_for(action))])
    groups += [[token] for token in draw(st.lists(_NOISE, max_size=2))]
    head = draw(st.sampled_from([[name]] * 6 + [[], ["bogus"], ["--version"], ["-h"]]))
    return head + [token for group in draw(st.permutations(groups)) for token in group]


def _outcome(parse, argv):
    """What ``parse(argv)`` does: the namespace as (name, repr) pairs, so that
    NaN equals NaN, or the SystemExit code; and what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = sorted((k, repr(v)) for k, v in vars(parse(argv)).items())
    except SystemExit as exc:
        result = exc.code
    return result, out.getvalue(), err.getvalue()


_FRESH_PARSER = cli.build_parser()  # the public build, apart from main's own parser


@settings(max_examples=400, deadline=None)
@given(argv=command_argvs())
def test_one_parse_per_command_matches_the_top_level_parse(argv):
    outcome = _outcome(cli._parse, argv)
    assert outcome == _outcome(cli._PARSER.parse_args, argv)
    assert outcome == _outcome(_FRESH_PARSER.parse_args, argv)


def _run_module(tmp_path, *argv):
    """``python -m specsep.cli ARGV`` on the specsep under test, so that main
    reads its argv from sys.argv."""
    env = {**os.environ, "PYTHONPATH": str(Path(specsep.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "specsep.cli", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_reads_sys_argv(tmp_path, capsys):
    assert main(["bounds", "--copies", "3"]) == EXIT_OK
    done = _run_module(tmp_path, "bounds", "--copies", "3")
    assert (done.returncode, done.stdout, done.stderr) == (EXIT_OK, capsys.readouterr().out, "")
    done = _run_module(tmp_path, "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, __version__ + "\n", "")
    done = _run_module(tmp_path, "bounds", "--copies", "3", "--bogus")
    assert done.returncode == EXIT_INVALID and done.stdout == ""
    assert done.stderr.startswith("usage: specsep [-h] [--version]")
    assert done.stderr.endswith("\nspecsep: error: unrecognized arguments: --bogus\n")
