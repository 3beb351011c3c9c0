import json
from pathlib import Path

import numpy as np
import pytest

import disd
from disd.cli import cmd_make_model, cmd_simulate, main, sweep_rows
from disd.config import matrix_from_json, parse_config
from disd.evolve import perturbation_data
from disd.model import assemble_hamiltonian
from disd.qcore import haar_unitary


def base_config(**overrides):
    doc = {
        "dims": {"a": 2, "c": 3, "b": 3},
        "seed": 1,
        "couplings": {"c1": 8.0, "c2": 0.1},
        "model": {"family": "disd-canonical"},
        "initial": {
            "alpha": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
            "chi": [[0.5773502691896258, 0.0], [0.5773502691896258, 0.0],
                    [0.5773502691896258, 0.0]],
            "robust_index": 0,
        },
        "time": {"t_max": 2.0, "steps": 5},
        "locality": {"n_samples": 4, "threshold_bits": 0.01},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for line in lines[1:]:
        for h, v in zip(header, line.split(",")):
            cols[h].append(float(v) if v else None)
    return header, cols


class TestSimulate:
    def test_header_and_shape(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        text = Path(out).read_text()
        header, cols = parse_csv(text)
        assert header == ["t", "mi_ab_bits", "entropy_a_bits", "entropy_b_bits",
                          "residual_eq4", "norm_error"]
        assert len(cols["t"]) == 5

    def test_two_steps_endpoint_grid(self, tmp_path):
        doc = base_config(time={"t_max": 3.0, "steps": 2})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        _, cols = parse_csv(Path(out).read_text())
        assert cols["t"] == [0.0, 3.0]

    def test_decoupled_columns(self, tmp_path):
        doc = base_config(couplings={"c1": 8.0, "c2": 0.0})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        _, cols = parse_csv(Path(out).read_text())
        assert max(cols["mi_ab_bits"]) <= 1e-10
        assert max(cols["residual_eq4"]) <= 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["simulate", "--config", cfg, "--out", out1]) == 0
        assert main(["simulate", "--config", cfg, "--seed", "2", "--out", out2]) == 0
        assert Path(out1).read_text() != Path(out2).read_text()

    def test_warn_column_on_gap_collision(self, tmp_path):
        # planted robust/orthogonal eigenvalue collision (all-diagonal model)
        matrices = {
            "h_a": [[[0.6, 0], [0, 0]], [[0, 0], [-0.2, 0]]],
            "h_c": [[[0.3, 0], [0, 0]], [[0, 0], [-0.9, 0]]],
            "h_b": [[[0.4, 0], [0, 0]], [[0, 0], [-0.7, 0]]],
            "h_ac": [[[1.0, 0], [0, 0], [0, 0], [0, 0]],
                     [[0, 0], [-0.5, 0], [0, 0], [0, 0]],
                     [[0, 0], [0, 0], [0.25, 0], [0, 0]],
                     [[0, 0], [0, 0], [0, 0], [-1.0, 0]]],
            "h_cb": [[[1.0, 0], [0, 0], [0, 0], [0, 0]],
                     [[0, 0], [-1.0, 0], [0, 0], [0, 0]],
                     [[0, 0], [0, 0], [1.0, 0], [0, 0]],
                     [[0, 0], [0, 0], [0, 0], [-0.6, 0]]],
        }
        doc = base_config(
            dims={"a": 2, "c": 2, "b": 2},
            couplings={"c1": 2.0, "c2": 0.3},
            model={"family": "explicit", "matrices": matrices},
            initial={"alpha": [[0.7071067811865476, 0], [0.7071067811865476, 0]],
                     "chi": [[0.7071067811865476, 0], [0.7071067811865476, 0]]},
        )
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "out.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        header, cols = parse_csv(Path(out).read_text())
        assert header[-1] == "warn"
        assert all(v == 1.0 for v in cols["warn"])


class TestSweep:
    def test_single_point_matches_simulate(self, tmp_path):
        doc = base_config(sweep={"c1_values": [8.0]})
        cfg = parse_config(doc)
        rows = sweep_rows(cfg)
        assert len(rows) == 1
        _, cols = parse_csv(cmd_simulate(cfg))
        assert rows[0].max_residual == pytest.approx(max(cols["residual_eq4"]), abs=1e-15)
        spec = disd.build_canonical(cfg.dims, cfg.seed, 8.0, 0.1)
        assert rows[0].lambda_sup == perturbation_data(spec).lambda_sup

    def test_grid_order_and_ratio(self, tmp_path):
        doc = base_config(sweep={"c1_values": [2.0, 16.0, 4.0]})
        rows = sweep_rows(parse_config(doc))
        assert [r.c1 for r in rows] == [2.0, 16.0, 4.0]
        for r in rows:
            assert r.ratio == pytest.approx(r.c2 / r.c1, abs=1e-12)

    def test_ratio_sweep_varies_c2(self):
        doc = base_config(sweep={"ratio_values": [0.0, 0.05]})
        rows = sweep_rows(parse_config(doc))
        assert [r.c2 for r in rows] == [0.0, pytest.approx(0.4)]
        assert rows[0].lambda_sup == 0.0

    def test_csv_output(self, tmp_path):
        doc = base_config(sweep={"c1_values": [2.0, 8.0]})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        header, cols = parse_csv(Path(out).read_text())
        assert header == ["c1", "c2", "ratio", "lambda_sup", "max_residual",
                          "tau_est", "gap_warnings"]
        assert cols["c1"] == [2.0, 8.0]

    def test_requires_sweep_section(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        assert main(["sweep", "--config", cfg]) == 1

    def test_scaling_slopes_over_c1_grid(self):
        doc = base_config(couplings={"c1": 1.0, "c2": 0.05},
                          time={"t_max": 5.0, "steps": 200},
                          sweep={"c1_values": [1.0, 4.0, 16.0, 64.0]})
        rows = sweep_rows(parse_config(doc))
        logs = np.log([r.c1 for r in rows])
        slope_res = np.polyfit(logs, np.log([r.max_residual for r in rows]), 1)[0]
        slope_lam = np.polyfit(logs, np.log([r.lambda_sup for r in rows]), 1)[0]
        assert -1.3 <= slope_res <= -0.7
        assert -1.3 <= slope_lam <= -0.7
        assert all(r.gap_warnings == 0 for r in rows)


class TestLocality:
    def test_header_and_decoupled_column(self, tmp_path):
        doc = base_config(couplings={"c1": 8.0, "c2": 0.0})
        cfg = write_config(tmp_path, doc)
        out = str(tmp_path / "loc.csv")
        assert main(["locality", "--config", cfg, "--out", out]) == 0
        header, cols = parse_csv(Path(out).read_text())
        assert header == ["t", "signal_b_to_a", "signal_a_to_b", "mi_ab_bits"]
        assert max(cols["signal_b_to_a"]) <= 1e-10

    def test_sample_count_nondecreasing(self, tmp_path):
        outs = {}
        for n in (1, 8):
            doc = base_config(locality={"n_samples": n, "threshold_bits": 0.01})
            cfg = write_config(tmp_path, doc, name=f"cfg{n}.json")
            out = str(tmp_path / f"loc{n}.csv")
            assert main(["locality", "--config", cfg, "--out", out]) == 0
            _, outs[n] = parse_csv(Path(out).read_text())
        for a, b in zip(outs[1]["signal_b_to_a"], outs[8]["signal_b_to_a"]):
            assert b >= a - 1e-15

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["locality", "--config", cfg, "--out", out1]) == 0
        assert main(["locality", "--config", cfg, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestDecompose:
    def test_plant_recovery(self, tmp_path, capsys):
        assert main(["decompose", "--plant", "seed=7"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"residual", "iterations", "converged", "restarts_used"}
        assert report["residual"] <= 1e-6
        assert report["converged"] is True

    def test_identity_input_file(self, tmp_path, capsys):
        doc = {"dims": {"a": 2, "c": 2, "b": 2},
               "u": [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(8)]
                     for i in range(8)]}
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residual"] <= 1e-10

    def test_haar_input_stays_far(self, tmp_path, capsys):
        from disd.config import matrix_to_json
        u = haar_unitary(8, 5)
        doc = {"dims": {"a": 2, "c": 2, "b": 2}, "u": matrix_to_json(u)}
        path = tmp_path / "haar.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["residual"] > 0.05

    def test_dump_factors(self, tmp_path, capsys):
        assert main(["decompose", "--plant", "seed=3", "--dump-factors"]) == 0
        report = json.loads(capsys.readouterr().out)
        v = matrix_from_json(report["v_ac"])
        w = matrix_from_json(report["w_cb"])
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-9
        assert np.abs(w.conj().T @ w - np.eye(4)).max() <= 1e-9

    def test_requires_input(self):
        assert main(["decompose"]) == 1

    def test_bad_plant_syntax(self):
        assert main(["decompose", "--plant", "7"]) == 1

    def test_non_unitary_file(self, tmp_path):
        doc = {"dims": {"a": 2, "c": 2, "b": 2},
               "u": [[[1.0, 0.0]] * 8 for _ in range(8)]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 2

    def test_mismatched_dims_in_file(self, tmp_path):
        doc = {"dims": {"a": 2, "c": 2, "b": 2},
               "u": [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(6)]
                     for i in range(6)]}
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 1


class TestMakeModel:
    def test_roundtrip_identical_hamiltonian(self, tmp_path):
        cfg = parse_config(base_config())
        dump = cmd_make_model(cfg)
        spec = disd.build_canonical(cfg.dims, cfg.seed, cfg.c1, cfg.c2)
        doc = base_config(model={"family": "explicit", "matrices": dump["matrices"],
                                 "robust_index": dump["robust_index"]})
        loaded = parse_config(doc)
        from disd.config import model_from_config
        spec2 = model_from_config(loaded)
        h1 = assemble_hamiltonian(spec)
        h2 = assemble_hamiltonian(spec2)
        assert np.abs(h1 - h2).max() <= 1e-15

    def test_roundtrip_bit_exact(self, tmp_path):
        cfg = parse_config(base_config())
        dump = cmd_make_model(cfg)
        for name in ("h_a", "h_c", "h_b", "h_ac", "h_cb"):
            spec_m = getattr(disd.build_canonical(cfg.dims, cfg.seed, cfg.c1, cfg.c2), name)
            recovered = matrix_from_json(json.loads(json.dumps(dump))["matrices"][name])
            assert np.array_equal(spec_m, recovered)

    def test_dump_passes_robustness_and_norms(self, tmp_path):
        from disd.model import validate_robustness
        from disd.qcore import spectral_norm
        cfg = parse_config(base_config())
        dump = cmd_make_model(cfg)
        h_cb = matrix_from_json(dump["matrices"]["h_cb"])
        assert validate_robustness(h_cb, cfg.dims, dump["robust_index"]).passed
        for name in ("h_ac", "h_cb"):
            m = matrix_from_json(dump["matrices"][name])
            assert abs(spectral_norm(m) - 1.0) <= 1e-9

    def test_cli_writes_json(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = str(tmp_path / "model.json")
        assert main(["make-model", "--config", cfg, "--out", out]) == 0
        dump = json.loads(Path(out).read_text())
        assert dump["family"] == "disd-canonical"
        assert set(dump["matrices"]) == {"h_a", "h_c", "h_b", "h_ac", "h_cb"}


class TestPreset:
    def test_ion_cage_preset_loads_and_runs(self, tmp_path):
        import pathlib
        preset = pathlib.Path(__file__).resolve().parent.parent / "presets" / "ion-cage.json"
        doc = json.loads(preset.read_text())
        assert doc["couplings"]["c1"] / doc["couplings"]["c2"] == 100.0
        assert (doc["dims"]["a"], doc["dims"]["c"], doc["dims"]["b"]) == (2, 3, 4)
        doc["time"] = {"t_max": 1.0, "steps": 3}   # keep the smoke run short
        doc["output"] = {"path": None, "format": "csv"}
        cfg = write_config(tmp_path, doc, name="preset.json")
        out = str(tmp_path / "preset.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 0
        _, cols = parse_csv(Path(out).read_text())
        assert len(cols["t"]) == 3


# (command, config section or None for top level, key, bad value, field named in the error)
BAD_FIELDS = [
    ("sweep", "sweep", "c1_values", 5, "sweep.c1_values"),
    ("sweep", "sweep", "ratio_values", [[1]], "sweep.ratio_values[0]"),
    ("locality", "locality", "threshold_bits", [1], "locality.threshold_bits"),
    ("locality", "locality", "n_samples", True, "locality.n_samples"),
    ("simulate", "couplings", "c1", float("inf"), "couplings.c1"),
    ("simulate", "couplings", "c2", float("nan"), "couplings.c2"),
    ("simulate", None, "seed", True, "seed"),
    ("simulate", "dims", "a", True, "dims.a"),
    ("simulate", "time", "steps", True, "time.steps"),
    ("simulate", "initial", "alpha", [[float("nan"), 0.0], [1.0, 0.0]], "initial.alpha"),
]


class TestExitCodes:
    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 3

    def test_invalid_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 1

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(bogus=1))
        assert main(["simulate", "--config", cfg]) == 1

    def test_bad_couplings_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config(couplings={"c1": 0.0, "c2": 0.0}))
        assert main(["simulate", "--config", cfg]) == 1

    def test_nonhermitian_explicit_is_validation_error(self, tmp_path):
        doc = base_config(dims={"a": 2, "c": 2, "b": 2})
        m_bad = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        ident = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        ident4 = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
                  for i in range(4)]
        doc["model"] = {"family": "explicit",
                        "matrices": {"h_a": m_bad, "h_c": ident, "h_b": ident,
                                     "h_ac": ident4, "h_cb": ident4}}
        doc["initial"] = {"alpha": [[1.0, 0.0], [0.0, 0.0]],
                          "chi": [[1.0, 0.0], [0.0, 0.0]]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = str(tmp_path / "missing-dir" / "out.csv")
        assert main(["simulate", "--config", cfg, "--out", out]) == 3

    def test_missing_initial_is_config_error(self, tmp_path):
        doc = base_config()
        del doc["initial"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 1

    @pytest.mark.parametrize("command, section, key, value, field", BAD_FIELDS,
                             ids=[case[-1] for case in BAD_FIELDS])
    def test_bad_field_is_named_config_error(self, tmp_path, capsys,
                                             command, section, key, value, field):
        doc = base_config()
        (doc if section is None else doc.setdefault(section, {}))[key] = value
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err
