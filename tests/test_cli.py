"""Command-line interface: configs, manifests, determinism, exit codes."""
from __future__ import annotations

import json

import numpy as np
import pytest
from test_engine import _corner_tol

from torusflow.algebraic import parse_literal
from torusflow.cli import (
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_VALIDATION,
    ExperimentConfig,
    compare_discrete_continuous,
    load_config,
    main,
    run_experiment,
)
from torusflow.diophantine import block_capacity
from torusflow.engine import FlowInstance, delta_T_exact
from torusflow.errors import ValidationError
from torusflow.geometry import Polytope

TRIANGLE_CONFIG = {
    "name": "triangle-silver",
    "direction": ["sqrt(2) - 1", "1"],
    "start": ["0", "0"],
    "polytope": {"vertices": [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9]]},
    "schedule": {"t_max": 500.0, "n_samples": 100, "kind": "linear"},
    "series_n_max": 2000,
}
PARALLELOGRAM_CONFIG = {
    "name": "tangent-parallelogram",
    "direction": ["sqrt(2)", "1"],
    "start": ["0", "0"],
    "polytope": {"vertices": [[0.05, 0.05], [0.35, 0.05],
                              [0.7990731195102494, 0.3675426480542942],
                              [0.4990731195102494, 0.3675426480542942]]},
    "schedule": {"t_max": 200.0, "n_samples": 50, "kind": "linear"},
    "quadrature_step": 1e-3,
}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_round_trip():
    cfg = ExperimentConfig.parse(json.dumps(TRIANGLE_CONFIG))
    again = ExperimentConfig.parse(cfg.serialize())
    assert cfg == again
    assert cfg.sha256() == again.sha256()


def test_config_hash_tracks_fields():
    cfg = ExperimentConfig.parse(json.dumps(TRIANGLE_CONFIG))
    other = ExperimentConfig.parse(json.dumps(TRIANGLE_CONFIG))
    assert cfg.sha256() == other.sha256()
    other.schedule = dict(other.schedule, t_max=600.0)
    assert cfg.sha256() != other.sha256()


def test_unknown_config_key_rejected():
    payload = dict(TRIANGLE_CONFIG, typo_field=1)
    with pytest.raises(ValidationError):
        ExperimentConfig.parse(json.dumps(payload))


def test_polytope_builders(tmp_path):
    for spec, volume in [({"unit_cube": 2}, 1.0),
                         ({"box": {"lo": [0.2, 0.3], "hi": [0.7, 0.8]}}, 0.25),
                         ({"box": [[0.2, 0.3], [0.7, 0.8]]}, 0.25)]:
        cfg = ExperimentConfig.parse(json.dumps(dict(TRIANGLE_CONFIG, polytope=spec)))
        np.testing.assert_allclose(cfg.build_polytope().volume, volume, rtol=1e-12)
    bad = ExperimentConfig.parse(json.dumps(dict(TRIANGLE_CONFIG,
                                                 polytope={"box": [0.2, 0.3]})))
    with pytest.raises(ValidationError):
        bad.build_polytope()
    seeded = dict(TRIANGLE_CONFIG, polytope={"random": {"n_vertices": 5}}, seed=3)
    p1 = ExperimentConfig.parse(json.dumps(seeded)).build_polytope()
    p2 = ExperimentConfig.parse(json.dumps(seeded)).build_polytope()
    np.testing.assert_allclose(np.asarray(p1.vertices, dtype=float),
                               np.asarray(p2.vertices, dtype=float), atol=0)


def test_compute_prints_value(tmp_path, capsys):
    code = main(["compute", "--config", _write_config(tmp_path, TRIANGLE_CONFIG)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    val = float(out.split("=")[1].split()[0])
    np.testing.assert_allclose(val, -0.0534421238337807, atol=1e-9)


def test_trace_outputs_and_determinism(tmp_path):
    cfg1 = dict(TRIANGLE_CONFIG, out=str(tmp_path / "run1"))
    cfg2 = dict(TRIANGLE_CONFIG, out=str(tmp_path / "run2"))
    assert main(["trace", "--config", _write_config(tmp_path, cfg1, "a.json")]) == EXIT_OK
    assert main(["trace", "--config", _write_config(tmp_path, cfg2, "b.json")]) == EXIT_OK
    t1 = (tmp_path / "run1" / "trace.csv").read_bytes()
    t2 = (tmp_path / "run2" / "trace.csv").read_bytes()
    assert t1 == t2
    cert = json.loads((tmp_path / "run1" / "certificate.json").read_text())
    np.testing.assert_allclose(cert["bound_value"], 8.968142537766536, atol=1e-9)
    manifest = json.loads((tmp_path / "run1" / "manifest.json").read_text())
    # the manifest hashes the effective config (precision filled in)
    expect = load_config(str(tmp_path / "a.json"), {}).sha256()
    assert manifest["config_sha256"] == expect


def test_manifest_tracks_config_and_precision(tmp_path):
    base = dict(TRIANGLE_CONFIG, out=str(tmp_path / "m1"))
    changed = dict(TRIANGLE_CONFIG, out=str(tmp_path / "m2"))
    changed["schedule"] = dict(changed["schedule"], t_max=800.0)
    main(["trace", "--config", _write_config(tmp_path, base, "m1.json")])
    main(["trace", "--config", _write_config(tmp_path, changed, "m2.json")])
    h1 = json.loads((tmp_path / "m1" / "manifest.json").read_text())["config_sha256"]
    h2 = json.loads((tmp_path / "m2" / "manifest.json").read_text())["config_sha256"]
    assert h1 != h2
    main(["trace", "--config", _write_config(tmp_path, base, "m1.json"),
          "--out", str(tmp_path / "m3"), "--precision", "320"])
    m3 = json.loads((tmp_path / "m3" / "manifest.json").read_text())
    assert m3["precision_bits"] == 320


def test_exit_codes_for_tangent_polytope(tmp_path, capsys):
    path = _write_config(tmp_path, PARALLELOGRAM_CONFIG)
    assert main(["compute", "--config", path]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "transversal" in err
    assert main(["compute", "--config", path, "--engine", "quadrature"]) == EXIT_OK


def test_malformed_json_is_a_validation_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["compute", "--config", str(path)]) == EXIT_VALIDATION


def test_precision_error_exit_code(tmp_path, monkeypatch, capsys):
    """Any precision failure inside a command maps to the dedicated code."""
    import torusflow.cli as cli_mod
    from torusflow.errors import TailNotCertifiableError

    def raiser(cfg):
        raise TailNotCertifiableError("series tail not certifiable")

    monkeypatch.setitem(cli_mod._COMMANDS, "bound", raiser)
    code = main(["bound", "--config", _write_config(tmp_path, TRIANGLE_CONFIG)])
    assert code == EXIT_PRECISION
    assert "precision" in capsys.readouterr().err


def test_boxsup_command(tmp_path, capsys):
    cfg = dict(PARALLELOGRAM_CONFIG, out=str(tmp_path / "bs"))
    assert main(["boxsup", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    val = float(out.split(":")[1].split()[0])
    np.testing.assert_allclose(val, 0.104369631881, atol=1e-9)
    blob = json.loads((tmp_path / "bs" / "boxsup.json").read_text())
    np.testing.assert_allclose(blob["sup"], val, atol=1e-9)  # stdout is rounded


def test_boxsup_3d_from_a_rational_start(tmp_path, capsys):
    """The corner table in 3d: the printed box holds Python floats and the
    box in boxsup.json reproduces the sup through the exact engine."""
    cfg = dict(TRIANGLE_CONFIG, direction=["sqrt(2) - 1", "sqrt(3) - 1", "1"],
               start=["1/3", "2/7", "1/5"], polytope={"unit_cube": 3},
               schedule={"t_max": 20.0}, grid=4, out=str(tmp_path / "bs"))
    assert main(["boxsup", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    assert "np.float64" not in capsys.readouterr().out
    blob = json.loads((tmp_path / "bs" / "boxsup.json").read_text())
    direction = [parse_literal(v) for v in cfg["direction"]]
    inst = FlowInstance.build(direction, [parse_literal(v) for v in cfg["start"]],
                              Polytope.box(blob["box_lo"], blob["box_hi"]))
    assert abs(abs(delta_T_exact(inst, 20.0)) - blob["sup"]) <= _corner_tol(direction, 20.0)


@pytest.mark.parametrize("command", ["compute", "boxsup"])
def test_literal_outside_the_float_range_is_a_validation_error(tmp_path, capsys, command):
    path = _write_config(tmp_path, dict(TRIANGLE_CONFIG, direction=["1e400*sqrt(2)", "1"]))
    assert main([command, "--config", path]) == EXIT_VALIDATION
    assert "literal '1e400*sqrt(2)' is outside the float range" in capsys.readouterr().err


def test_discrete_command(tmp_path, capsys):
    cfg = {
        "name": "golden-box",
        "direction": ["(sqrt(5) - 1) / 2"],
        "start": ["0"],
        "polytope": {"box": [[0.0], [0.5]]},
        "discrete": {"n_max": 10000},
    }
    assert main(["discrete", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max |D_N| = 2" in out


def test_dioph_command(tmp_path, capsys):
    cfg = dict(TRIANGLE_CONFIG, out=str(tmp_path / "d"))
    assert main(["dioph", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "[0, 2, 2" in out
    assert (tmp_path / "d" / "exponent_scan.csv").exists()


def test_fourier_command(tmp_path, capsys):
    cfg = dict(TRIANGLE_CONFIG, out=str(tmp_path / "f"))
    assert main(["fourier", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    assert (tmp_path / "f" / "coefficients.csv").exists()
    capsys.readouterr()


def test_bound_command(tmp_path, capsys):
    assert main(["bound", "--config", _write_config(tmp_path, TRIANGLE_CONFIG)]) == EXIT_OK
    blob = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(blob["bound_value"], 8.968142537766536, atol=1e-9)


def test_commands_agree_on_a_negative_alpha1(tmp_path, capsys):
    """Normalized, ["sqrt(3)", "-sqrt(2)"] flows along alpha_1 = -0.816:
    fourier dumps its coefficients, and trace certifies what bound does."""
    base = dict(TRIANGLE_CONFIG, direction=["sqrt(3)", "-sqrt(2)"])
    runs = {}
    for command in ("fourier", "bound", "trace"):
        cfg = dict(base, out=str(tmp_path / command))
        assert main([command, "--config",
                     _write_config(tmp_path, cfg, f"{command}.json")]) == EXIT_OK
        runs[command] = tmp_path / command
    capsys.readouterr()
    assert (runs["fourier"] / "coefficients.csv").exists()
    cert = (runs["trace"] / "certificate.json").read_bytes()
    assert cert == (runs["bound"] / "certificate.json").read_bytes()
    deltas = np.loadtxt(runs["trace"] / "trace.csv", delimiter=",", skiprows=1,
                        usecols=1)
    assert np.abs(deltas).max() <= json.loads(cert)["bound_value"]


def test_compare_growth_table(tmp_path):
    cfg = ExperimentConfig.parse(json.dumps({
        "name": "golden-compare",
        "direction": ["(sqrt(5) - 1) / 2", "1"],
        "start": ["0", "0"],
        "polytope": {"box": [[0.0, 0.0], [0.5, 0.5]]},
        "schedule": {"t_max": 10000.0, "n_samples": 4000, "kind": "geometric"},
        "discrete": {"alpha": ["(sqrt(5) - 1) / 2"], "start": ["0"],
                     "box_lo": [0.0], "box_hi": [0.5], "n_max": 10000},
    }))
    report = compare_discrete_continuous(cfg)
    rows = report["rows"]
    assert [r["decade_upper"] for r in rows] == [10.0, 100.0, 1000.0, 10000.0]
    # continuous side plateaus while the discrete side keeps growing
    cont = [r["continuous_sup"] for r in rows]
    assert cont[-1] <= 1.1 * max(cont[:2])
    disc = [r["discrete_max"] for r in rows]
    assert disc[-1] > disc[1]
    np.testing.assert_allclose(disc, [1.0, 1.5, 1.5, 2.0], atol=1e-12)


def test_compare_and_discrete_share_a_2d_rotation(tmp_path, capsys):
    """Without a start, both commands start a 2-d rotation at the origin,
    so their tables agree; a start of the wrong length is rejected."""
    cfg = {
        "name": "silver-2d",
        "direction": ["sqrt(2) - 1", "1"],
        "polytope": {"vertices": [[0.1, 0.1], [0.9, 0.1], [0.1, 0.9]]},
        "schedule": {"t_max": 1000.0, "n_samples": 50, "kind": "geometric"},
        "discrete": {"alpha": ["sqrt(2) - 1", "sqrt(3) - 1"]},
    }
    rows = compare_discrete_continuous(ExperimentConfig.parse(json.dumps(cfg)))["rows"]
    assert [r["discrete_max"] for r in rows] == [1.25, 1.75, 4.5]
    assert main(["discrete", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "decade <=      1000: max |D_N| = 4.5\n" in out
    cfg["discrete"]["start"] = ["0"]
    assert main(["compare", "--config", _write_config(tmp_path, cfg)]) == EXIT_VALIDATION
    assert "alpha and s dimension mismatch" in capsys.readouterr().err


def test_compare_empty_schedule(tmp_path, capsys):
    cfg = {
        "name": "empty",
        "direction": ["(sqrt(5) - 1) / 2", "1"],
        "start": ["0", "0"],
        "polytope": {"box": [[0.0, 0.0], [0.5, 0.5]]},
        "schedule": {},
        "out": str(tmp_path / "cmp"),
    }
    assert main(["compare", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    body = (tmp_path / "cmp" / "compare.csv").read_text().strip()
    assert body == "decade_upper,continuous_sup,discrete_max"
    capsys.readouterr()


def test_audit_command(tmp_path, capsys):
    cfg = {
        "name": "silver-audit",
        "direction": ["sqrt(2) - 1", "1"],
        "start": ["0", "0"],
        "polytope": {"unit_cube": 2},
        "audit": {"gamma": 0.5, "scan_n_max": 2000, "forms": [[1.0]],
                  "levels": [[2, [2]], [3, [3]], [4, [4]]]},
    }
    assert main(["audit", "--config", _write_config(tmp_path, cfg)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS" in out and "violations 0" in out


def _audit_output(tmp_path, capsys, direction):
    cfg = {"name": "audit", "direction": direction, "start": ["0", "0"],
           "polytope": {"unit_cube": 2},
           "audit": {"gamma": 0.5, "scan_n_max": 500, "forms": [[1.0]],
                     "levels": [[2, [2]], [3, [3]]]}}
    code = main(["audit", "--config", _write_config(tmp_path, cfg)])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("direction, normalized", [
    (["1", "sqrt(2)"], ["1/sqrt(2)", "1"]),
    (["sqrt(2)", "sqrt(3)"], ["sqrt(2)/sqrt(3)", "1"]),
    (["sqrt(3)", "-sqrt(2)"], ["-sqrt(2)/sqrt(3)", "1"]),
])
def test_audit_normalizes_the_direction(tmp_path, capsys, direction, normalized):
    """The audit scans the rotation of the normalized flow, as every other
    command does: ["1", "sqrt(2)"] used to scan alpha* = 1 and crash."""
    code, out, _ = _audit_output(tmp_path, capsys, direction)
    assert code == EXIT_OK and "audit: PASS" in out
    assert (code, out) == _audit_output(tmp_path, capsys, normalized)[:2]


def test_audit_of_a_rational_rotation_is_a_validation_error(tmp_path, capsys):
    """alpha* = 1/2 fits c = 0, which leaves no block capacity."""
    code, out, err = _audit_output(tmp_path, capsys, ["1/2", "1"])
    assert code == EXIT_VALIDATION and "fitted c = 0 " in out
    assert "block capacity needs a positive finite fitted c, got 0.0" in err
    for c in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="positive finite fitted c"):
            block_capacity(c, 0.5, 2, (2,))


def test_run_experiment_quadrature_summary(tmp_path):
    cfg = ExperimentConfig.parse(json.dumps(dict(PARALLELOGRAM_CONFIG,
                                                 engine="quadrature")))
    result = run_experiment(cfg)
    assert result["engine"] == "quadrature"
    assert np.isfinite(result["sup_abs_delta"])
    assert "bound_value" not in result  # no certificate without transversality


def test_precision_flag_does_not_leak(tmp_path, monkeypatch, capsys):
    """--precision applies to its own run only and is checked like the
    environment variable."""
    import os
    monkeypatch.delenv("TORUSFLOW_PRECISION_BITS", raising=False)
    path = _write_config(tmp_path, TRIANGLE_CONFIG)
    assert main(["dioph", "--config", path, "--precision", "10"]) == EXIT_VALIDATION
    assert "precision_bits must be an integer >= 64" in capsys.readouterr().err
    assert main(["dioph", "--config", path, "--precision", "256"]) == EXIT_OK
    assert "TORUSFLOW_PRECISION_BITS" not in os.environ
    assert main(["dioph", "--config", path]) == EXIT_OK
    bad = _write_config(tmp_path, dict(TRIANGLE_CONFIG, precision_bits=63), "bad.json")
    assert main(["dioph", "--config", bad]) == EXIT_VALIDATION
    with pytest.raises(ValidationError):
        load_config(None, {"precision_bits": "256"})
    capsys.readouterr()


@pytest.mark.parametrize("step", [-1.0, 0.0])
@pytest.mark.parametrize("command", ["compute", "trace"])
def test_bad_quadrature_step_is_a_validation_error(tmp_path, capsys, command, step):
    cfg = dict(TRIANGLE_CONFIG, quadrature_step=step,
               schedule={"t_max": 50.0, "n_samples": 10, "kind": "linear"})
    path = _write_config(tmp_path, cfg)
    assert main([command, "--config", path, "--engine", "quadrature"]) == EXIT_VALIDATION
    assert "quadrature step must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("engine", ["exact", "quadrature"])
def test_negative_compute_time_is_a_validation_error(tmp_path, capsys, engine):
    cfg = dict(TRIANGLE_CONFIG, schedule={"t_max": -5.0, "n_samples": 100, "kind": "linear"})
    path = _write_config(tmp_path, cfg)
    assert main(["compute", "--config", path, "--engine", engine]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "time must be finite and non-negative, got -5.0" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n_samples", [0, -5])
@pytest.mark.parametrize("kind", ["linear", "geometric", "integer"])
def test_bad_sample_count_is_a_validation_error(tmp_path, capsys, kind, n_samples):
    cfg = dict(TRIANGLE_CONFIG, schedule={"t_max": 500.0, "n_samples": n_samples,
                                          "kind": kind})
    path = _write_config(tmp_path, cfg)
    assert main(["trace", "--config", path]) == EXIT_VALIDATION
    assert "n_samples must be >= 1" in capsys.readouterr().err
    assert main(["trace", "--config", path, "--engine", "quadrature"]) == EXIT_VALIDATION
    assert "n_samples must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("t_max, message", [(-5.0, "t_max must be positive"),
                                            (0.0, "t_max must be positive"),
                                            (1e-4, "shorter than one sample spacing")])
def test_quadrature_trace_without_samples_is_a_validation_error(tmp_path, capsys,
                                                                t_max, message):
    cfg = dict(TRIANGLE_CONFIG, schedule={"t_max": t_max, "n_samples": 100,
                                          "kind": "linear"})
    path = _write_config(tmp_path, cfg)
    assert main(["trace", "--config", path, "--engine", "quadrature"]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value, message", [
    ("quadrature_step", "1e-3", "quadrature_step must be a finite number, got '1e-3'"),
    ("series_n_max", True, "series_n_max must be an integer, got True"),
    ("grid", 8.0, "grid must be an integer, got 8.0"),
    ("schedule", {"t_max": "50", "n_samples": 10}, "schedule.t_max must be a finite number"),
    ("schedule", {"t_max": 50.0, "n_samples": 10.0}, "schedule.n_samples must be an integer"),
])
def test_config_numbers_are_type_checked(tmp_path, capsys, field, value, message):
    path = _write_config(tmp_path, dict(TRIANGLE_CONFIG, **{field: value}))
    assert main(["compute", "--config", path, "--engine", "quadrature"]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, value", [
    ("audit", {"levels": [["x", [2]]]}),
    ("audit", {"levels": 5}),
    ("audit", {"levels": [[2]]}),
    ("audit", {"levels": [[2.5, []]]}),
    ("audit", {"levels": [[2, [-1]]]}),
    ("audit", {"gamma": "x"}),
    ("audit", {"scan_n_max": "x"}),
    ("audit", {"forms": [["a"]]}),
    ("audit", {"forms": [[1, 2]]}),
    ("audit", "x"),
    ("discrete", {"n_max": "x"}),
    ("discrete", {"n_max": 12.7}),
    ("discrete", {"box_lo": ["a"]}),
    ("discrete", {"start": [1]}),
    ("discrete", "x"),
])
def test_malformed_audit_and_discrete_sections_are_validation_errors(tmp_path, capsys,
                                                                    section, value):
    """Each of these crashed with a traceback (exit 1) or ran on a silently
    changed value: a fractional n_max or level, a form cut to the rotation's
    dimension."""
    path = _write_config(tmp_path, dict(TRIANGLE_CONFIG, **{section: value}))
    assert main([section, "--config", path]) == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error (validation): ")
