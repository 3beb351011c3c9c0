import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import disd
from disd import locality
from disd.cli import cmd_make_model, cmd_simulate, main, sweep_columns
from disd.config import (
    ConfigError,
    initial_from_config,
    matrix_from_json,
    matrix_to_json,
    model_from_config,
    parse_config,
    times_from_config,
)
from disd.evolve import Chebyshev, Propagator, perturbation_data
from disd.decompose import planted_sequential, sequential_residual
from disd.locality import (MAX_SAMPLES, locality_columns, signaling_test_unitary,
                           tau_estimate)
from disd.model import InitialSpec, ModelSpec, assemble_hamiltonian, build_canonical, initial_state
from disd.qcore import Dims, ValidationError, haar_unitary

from oracles import evolved_states
from test_model import cross_blocks


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


LAPACK_GUARD = Path(__file__).resolve().with_name("lapack_guard.py")


def run_guarded(module, args, flags=(), **kwargs):
    """``python [flags] -m module args`` in a subprocess, under the non-finite LAPACK input
    guard of the tests: a NaN or inf that reaches LAPACK fails the run, which otherwise keeps
    its own exit status."""
    return subprocess.run([sys.executable, *flags, str(LAPACK_GUARD), "-m", module, *args],
                          capture_output=True, text=True, **kwargs)


class TestLapackGuardModuleRuns:
    def test_a_nan_reaching_lapack_fails_the_run(self, tmp_path):
        # eigh may answer a NaN matrix without an error; the module itself exits 0
        (tmp_path / "nan_eigh.py").write_text("import numpy as np\n"
                                              "try:\n"
                                              "    np.linalg.eigh(np.full((2, 2), np.nan))\n"
                                              "except np.linalg.LinAlgError:\n"
                                              "    pass\n")
        proc = run_guarded("nan_eigh", [], cwd=tmp_path, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == "non-finite input reached LAPACK in np.linalg.eigh\n"

    def test_a_clean_run_keeps_its_exit_status_and_arguments(self, tmp_path):
        (tmp_path / "exits.py").write_text("import sys\n"
                                           "print(sys.argv[1:])\n"
                                           "sys.exit(3)\n")
        proc = run_guarded("exits", ["--out", "x"], cwd=tmp_path, timeout=60)
        assert proc.returncode == 3
        assert proc.stdout == "['--out', 'x']\n"


def _preset():
    return json.loads((Path(__file__).resolve().parent.parent / "presets" / "ion-cage.json").read_text())


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
        cols = sweep_columns(cfg)
        assert len(cols["c1"]) == 1
        _, sim = parse_csv(cmd_simulate(cfg))
        assert cols["max_residual"][0] == pytest.approx(max(sim["residual_eq4"]), abs=1e-15)
        spec = disd.build_canonical(cfg.dims, cfg.seed, 8.0, 0.1)
        assert cols["lambda_sup"][0] == perturbation_data(spec).lambda_sup

    def test_grid_order_and_ratio(self, tmp_path):
        doc = base_config(sweep={"c1_values": [2.0, 16.0, 4.0]})
        cols = sweep_columns(parse_config(doc))
        assert cols["c1"] == [2.0, 16.0, 4.0]
        for c1, c2, ratio in zip(cols["c1"], cols["c2"], cols["ratio"]):
            assert ratio == pytest.approx(c2 / c1, abs=1e-12)

    def test_ratio_sweep_varies_c2(self):
        doc = base_config(sweep={"ratio_values": [0.0, 0.05]})
        cols = sweep_columns(parse_config(doc))
        assert cols["c2"] == [0.0, pytest.approx(0.4)]
        assert cols["lambda_sup"][0] == 0.0

    def test_raw_fields_of_a_ratio_sweep(self, tmp_path):
        # read as text: ratio 0 never correlates A and B, so its tau_est field is empty,
        # and gap_warnings is an integer count
        doc = base_config(sweep={"ratio_values": [0.0, 0.05]},
                          time={"t_max": 20.0, "steps": 41})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        lines = out.read_text().split("\n")
        assert lines[0] == "c1,c2,ratio,lambda_sup,max_residual,tau_est,gap_warnings"
        assert lines[-1] == "" and len(lines) == 4
        zero, coupled = (line.split(",") for line in lines[1:3])
        assert zero[:3] == ["8", "0", "0"] and zero[5:] == ["", "0"]
        assert coupled[5] != "" and coupled[6] == "0"

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
        cols = sweep_columns(parse_config(doc))
        logs = np.log(cols["c1"])
        slope_res = np.polyfit(logs, np.log(cols["max_residual"]), 1)[0]
        slope_lam = np.polyfit(logs, np.log(cols["lambda_sup"]), 1)[0]
        assert -1.3 <= slope_res <= -0.7
        assert -1.3 <= slope_lam <= -0.7
        assert cols["gap_warnings"] == [0, 0, 0, 0]


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

    def test_route_is_priced_for_every_state_of_the_job(self, tmp_path, monkeypatch):
        # the trajectory's state alone, or the d_B = 3, then the d_A = 2 source states
        priced = []
        route = disd.evolve._route

        def spy(spec, times, stacks):
            priced.append(tuple(stacks))
            return route(spec, times, stacks)

        monkeypatch.setattr(disd.evolve, "_route", spy)
        for command, stacks in (("simulate", (1,)), ("locality", (3, 2))):
            cfg = write_config(tmp_path, base_config())
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
            assert priced.pop() == stacks

    def test_one_eigensystem_per_run(self, tmp_path, propagator_builds):
        cfg = write_config(tmp_path, base_config())
        assert main(["locality", "--config", cfg, "--out", str(tmp_path / "loc.csv")]) == 0
        assert len(propagator_builds) == 1

    def test_deterministic(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["locality", "--config", cfg, "--out", out1]) == 0
        assert main(["locality", "--config", cfg, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()


class TestLocalityGolden:
    """The ion-cage locality run against the benchmark's recorded reference."""

    def test_ion_cage_seed_7_matches_reference(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        out = tmp_path / "locality.csv"
        assert main(["locality", "--config", str(root / "presets" / "ion-cage.json"),
                     "--seed", "7", "--out", str(out)]) == 0
        ref_text = (root / "bench" / "refs" / "locality-ion-cage" / "7" / "locality.csv").read_text()
        header, cols = parse_csv(out.read_text())
        ref_header, ref_cols = parse_csv(ref_text)
        assert header == ref_header == ["t", "signal_b_to_a", "signal_a_to_b", "mi_ab_bits"]
        for h in header:
            assert_allclose(cols[h], ref_cols[h], rtol=0, atol=1e-12)
        threshold = json.loads((root / "presets" / "ion-cage.json").read_text())[
            "locality"]["threshold_bits"]
        crossing = [np.argmax(np.array(c["mi_ab_bits"]) >= threshold) for c in (cols, ref_cols)]
        assert crossing[0] == crossing[1] > 0

    def test_ion_cage_takes_the_spectral_route(self):
        # the states are those of the one eigensystem, bit for bit, so the output is unchanged
        root = Path(__file__).resolve().parent.parent
        cfg = parse_config(json.loads((root / "presets" / "ion-cage.json").read_text()))
        spec, init, times = model_from_config(cfg), initial_from_config(cfg), times_from_config(cfg)
        psi0 = initial_state(init, spec.dims, spec.robust_index)
        spectral = Propagator(assemble_hamiltonian(spec)).evolve_many(psi0, times)
        assert np.array_equal(evolved_states(spec, init, times), spectral)


def dense_config():
    """The benchmark's dim-1024 simulate config (8 x 4 x 32), seed 7."""
    a, b = 8, 32
    return {
        "dims": {"a": a, "c": 4, "b": b},
        "seed": 7,
        "couplings": {"c1": 50.0, "c2": 0.5},
        "model": {"family": "disd-canonical", "robust_index": 0},
        "initial": {"alpha": [[1 / np.sqrt(a), 0.0]] * a,
                    "chi": [[1 / np.sqrt(b), 0.0]] * b,
                    "robust_index": 0},
        "time": {"t_max": 20.0, "steps": 200},
    }


class TestSimulateGolden:
    """The dense simulate run against the benchmark's recorded reference."""

    def test_dense_seed_7_matches_reference(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        out = tmp_path / "simulate.csv"
        assert main(["simulate", "--config", write_config(tmp_path, dense_config()),
                     "--out", str(out)]) == 0
        ref_text = (root / "bench" / "refs" / "simulate-dense" / "7" / "simulate.csv").read_text()
        header, cols = parse_csv(out.read_text())
        ref_header, ref_cols = parse_csv(ref_text)
        assert header == ref_header == ["t", "mi_ab_bits", "entropy_a_bits", "entropy_b_bits",
                                        "residual_eq4", "norm_error"]
        for h in header:
            assert_allclose(cols[h], ref_cols[h], rtol=0, atol=1e-12)

    def test_dense_run_forms_no_hamiltonian(self, tmp_path, monkeypatch, propagator_builds):
        def refuse(spec):
            raise AssertionError("the Chebyshev route assembled the dense H")

        monkeypatch.setattr(disd.model, "assemble_hamiltonian", refuse)
        monkeypatch.setattr(disd.evolve, "assemble_hamiltonian", refuse)
        assert main(["simulate", "--config", write_config(tmp_path, dense_config()),
                     "--out", str(tmp_path / "simulate.csv")]) == 0
        assert propagator_builds == []

    def test_dense_run_works_out_each_grid_plan_once(self, tmp_path, monkeypatch):
        # the route's count plans the blocks that the job then runs, once, and every row of
        # them is planned, with the series of its own offset t - t_anchor; each distinct
        # offset is worked out once, and the uniform grid's 200 rows repeat all but 103
        series, plans = [], []
        coefficients = disd.evolve._chebyshev_coefficients
        planner = disd.evolve.Chebyshev._plans

        def recorded(z):
            series.extend(np.ravel(z).tolist())
            return coefficients(z)

        def planned(cheb, times, max_rows):
            plans.append((cheb, times, planner(cheb, times, max_rows)))
            return plans[-1][2]

        monkeypatch.setattr(disd.evolve, "_chebyshev_coefficients", recorded)
        monkeypatch.setattr(disd.evolve.Chebyshev, "_plans", planned)
        out = tmp_path / "simulate.csv"
        assert main(["simulate", "--config", write_config(tmp_path, dense_config()),
                     "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) - 1 == 200
        ((cheb, times, made),) = plans
        assert [row for _, rows, _ in made for row in range(rows.start, rows.stop)] == list(
            range(200))
        anchors = [0.0] + [times[rows.stop - 1] for _, rows, _ in made[:-1]]
        offsets = {t - anchor for anchor, (_, rows, _) in zip(anchors, made) for t in times[rows]}
        assert all(steps == 1 for steps, _, _ in made) and len(offsets) == 103
        assert sorted(series) == sorted(cheb._half * offset for offset in offsets)


class TestMemory:
    def test_peak_does_not_grow_with_the_run_length(self, tmp_path, propagator_builds):
        # simulate at 8x4x32 on the Chebyshev route at a fixed step, dt = 0.02, so that its
        # recurrences keep their length: 1000 steps to t = 20, then 2000 to t = 40. The second
        # run may peak higher by less than half of what its 1000 extra trajectory rows take
        peaks = []
        for steps, t_max in ((1000, 20.0), (2000, 40.0)):
            cfg = write_config(tmp_path, dict(dense_config(), time={"t_max": t_max,
                                                                    "steps": steps}))
            tracemalloc.start()
            try:
                assert main(["simulate", "--config", cfg,
                             "--out", str(tmp_path / "simulate.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert propagator_builds == []
        assert peaks[1] - peaks[0] < 1000 * (8 * 4 * 32) * 16 / 2


class TestThreadCount:
    """Output at one and at two BLAS threads: the same header, every number within 1e-12."""

    @staticmethod
    def _run(args, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
                   PYTHONPATH=str(Path(disd.__file__).resolve().parents[1]))
        proc = run_guarded("disd.cli", args, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("command, want_header, want_rows", [
        ("simulate", ["t", "mi_ab_bits", "entropy_a_bits", "entropy_b_bits", "residual_eq4",
                      "norm_error"], 200),
        ("locality", ["t", "signal_b_to_a", "signal_a_to_b", "mi_ab_bits"], 401)],
        ids=["simulate", "locality"])
    def test_one_and_two_threads_agree(self, tmp_path, command, want_header, want_rows):
        # simulate on the dim-1024 config (the Chebyshev route), locality on the preset; each
        # run writes its own file, as the preset's output.path names one in the working directory
        config = (write_config(tmp_path, dense_config()) if command == "simulate"
                  else str(Path(__file__).resolve().parent.parent / "presets" / "ion-cage.json"))
        runs = []
        for threads in (1, 2):
            out = tmp_path / f"{command}-{threads}.csv"
            assert self._run([command, "--config", config, "--out", str(out)], threads) == ""
            runs.append(parse_csv(out.read_text()))
        (header, one), (header_two, two) = runs
        assert header == header_two == want_header
        assert len(one["t"]) == len(two["t"]) == want_rows
        for h in header:
            assert [x is None for x in one[h]] == [x is None for x in two[h]]
            assert_allclose(np.array(one[h], dtype=float), np.array(two[h], dtype=float),
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("source", ["haar-4x4x8", "plant"])
    def test_decompose_one_and_two_threads_agree(self, tmp_path, source):
        # the Haar unitary at the benchmark's dims runs the full 5 x 200 iterations
        if source == "plant":
            args = ["decompose", "--plant", "seed=7"]
        else:
            path = tmp_path / "haar.json"
            path.write_text(json.dumps({"dims": {"a": 4, "c": 4, "b": 8},
                                        "u": matrix_to_json(haar_unitary(128, 7))}))
            args = ["decompose", str(path)]
        one, two = (json.loads(self._run(args, threads)) for threads in (1, 2))
        assert one.keys() == two.keys()
        assert {k: v for k, v in one.items() if k != "residual"} == \
            {k: v for k, v in two.items() if k != "residual"}
        assert abs(one["residual"] - two["residual"]) <= 1e-12


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

    @pytest.mark.parametrize("value", ["7", "seed=x", "seed=", "seed=-3"])
    def test_bad_plant_syntax(self, capsys, value):
        assert main(["decompose", "--plant", value]) == 1
        assert capsys.readouterr().err.startswith("config error: argument --plant: ")

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

    @pytest.mark.parametrize("doc, message", [
        ({"u": [["x"] * 8] * 8}, "u: expected a number or [re, im] pair, got 'x'"),
        ({"u": [[[1.0, 0.0]] * 8] * 7 + [[[1.0, 0.0]] * 7]}, "u: matrix rows have inconsistent lengths"),
        ({"dims": {"a": 2, "c": 3, "b": 2}, "u": [[[1.0, 0.0]] * 8] * 8},
         "unitary has shape (8, 8), expected (12, 12)"),
        ({"u": [[[1.0, 0.0]] * 8] * 8, "seed": 3}, "unknown configuration keys: ['seed']"),
    ], ids=["entry", "ragged", "shape", "unknown-key"])
    def test_bad_unitary_file_names_the_field(self, tmp_path, capsys, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


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
        # the dumped matrices build a ModelSpec, whose check of the robust-state block
        # structure passes; the cross blocks are not just small but exactly 0
        from disd.qcore import spectral_norm
        for r in (0, 2):
            doc = base_config(model={"family": "disd-canonical", "robust_index": r})
            doc["initial"]["robust_index"] = r
            dump = cmd_make_model(parse_config(doc))
            matrices = {name: matrix_from_json(m) for name, m in dump["matrices"].items()}
            dims = disd.Dims(**dump["dims"])
            spec = ModelSpec(dims=dims, c1=dump["c1"], c2=dump["c2"],
                             robust_index=dump["robust_index"], **matrices)
            assert spec.robust_index == r
            assert not cross_blocks(spec.h_cb, dims, r).any()
            for name in ("h_ac", "h_cb"):
                assert abs(spectral_norm(matrices[name]) - 1.0) <= 1e-9

    def test_cli_writes_json(self, tmp_path):
        cfg = write_config(tmp_path, base_config())
        out = str(tmp_path / "model.json")
        assert main(["make-model", "--config", cfg, "--out", out]) == 0
        dump = json.loads(Path(out).read_text())
        assert dump["family"] == "disd-canonical"
        assert set(dump["matrices"]) == {"h_a", "h_c", "h_b", "h_ac", "h_cb"}


    def test_explicit_model_is_dumped_bit_for_bit(self, tmp_path):
        # the seed-5 canonical matrices, given explicitly in a seed-1 config
        matrices = cmd_make_model(parse_config(base_config(seed=5)))["matrices"]
        doc = base_config(model={"family": "explicit", "matrices": matrices})
        out = tmp_path / "model.json"
        assert main(["make-model", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        dump = json.loads(out.read_text())
        assert dump["family"] == "explicit"
        assert json.dumps(dump["matrices"]) == json.dumps(matrices)

    def test_invalid_explicit_matrices_are_validation_error(self, tmp_path, capsys):
        matrices = cmd_make_model(parse_config(base_config()))["matrices"]
        matrices["h_a"][0][1] = [0.5, 0.0]  # no longer Hermitian
        doc = base_config(model={"family": "explicit", "matrices": matrices})
        assert main(["make-model", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith(
            "validation error: model.matrices.h_a is not Hermitian")


class TestInitialSection:
    @pytest.mark.parametrize("entry", [1e200, 1e-200, 5e-324])
    def test_normalize_scales_extreme_vectors(self, tmp_path, entry):
        doc = base_config()
        doc["initial"].update(alpha=[[entry, 0.0], [0.0, entry]], normalize=True)
        assert np.array_equal(parse_config(doc).initial.alpha, np.array([1.0, 1j]) / np.sqrt(2))
        assert main(["simulate", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("key, n", [("alpha", 2), ("chi", 3)])
    def test_normalize_rejects_zero_vector(self, tmp_path, capsys, key, n):
        doc = base_config()
        doc["initial"].update({key: [[0.0, 0.0]] * n, "normalize": True})
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == (
            f"config error: initial.{key} is zero and cannot be normalized\n")

    @pytest.mark.parametrize("args", [["simulate"], ["make-model"],
                                      ["decompose", "--plant", "seed=1"]],
                             ids=["simulate", "make-model", "decompose"])
    def test_non_unit_vector_is_named_validation_error(self, tmp_path, capsys, args):
        doc = base_config()
        doc["initial"]["alpha"] = [[1.0, 0.0], [1.0, 0.0]]
        assert main([*args, "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "validation error: initial.alpha norm off by 4.142e-01\n"

    def test_robust_index_must_match_the_model(self, tmp_path, capsys):
        doc = base_config()
        doc["initial"]["robust_index"] = 1
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        assert "initial.robust_index must match model.robust_index" in capsys.readouterr().err


def _nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


class TestBoundedErrorValues:
    """An error line that echoes a rejected value stays short, whatever the value's size."""

    @pytest.mark.parametrize("section, key, value, field", [
        (None, "time", _nested(980), "config.time"),
        ("output", "format", [1] * 10**5, "output.format"),
        ("model", "family", "x" * 10**5, "model.family"),
        ("initial", "alpha", [[0.5] * 10**5, [0.5, 0.0]], "initial.alpha"),
        (None, "seed", -10**4000, "seed"),
        ("model", "robust_index", 10**4000, "model.robust_index"),
    ], ids=["deep-list", "long-list", "long-string", "long-entry", "long-int", "long-robust-index"])
    def test_error_line_is_short_and_names_the_field(self, section, key, value, field):
        doc = base_config()
        (doc if section is None else doc.setdefault(section, {}))[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert len(f"config error: {info.value}") < 200
        assert field in str(info.value)

    @pytest.mark.parametrize("section, key, value, message", [
        (None, "seed", -10 ** 5000, "seed must be an integer in [0, 2**64), got <negative int of "
                                    "5001 digits>"),
        ("couplings", "c1", 10 ** 5000, "couplings.c1 must be a finite number, got <int of 5001 "
                                        "digits>"),
        ("model", "robust_index", 10 ** 5000, "model.robust_index <int of 5001 digits> out of "
                                              "range for d_c = 3")],
        ids=["seed", "c1", "robust-index"])
    def test_an_int_past_the_string_limit_is_echoed_by_its_digit_count(self, section, key, value,
                                                                         message):
        # no JSON file can hold such an int (the parser refuses it), but parse_config takes
        # one directly; the echo counts its digits, since Python refuses to turn it into a
        # string past 4300 of them
        doc = base_config()
        (doc if section is None else doc[section])[key] = value
        with pytest.raises(ConfigError) as info:
            parse_config(doc)
        assert str(info.value) == message

    def test_long_list_from_a_file(self, tmp_path, capsys):
        doc = base_config(output={"format": [1] * 10**5})
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert len(err) < 200 and err.startswith("config error: output.format must be 'csv'")


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
    ("sweep", "sweep", "ratio_values", [0.5, 1e308],
     "sweep.ratio_values[1]: c2 must be non-negative and finite, got inf"),
    ("locality", "locality", "threshold_bits", [1], "locality.threshold_bits"),
    ("locality", "locality", "n_samples", True, "locality.n_samples"),
    ("locality", "locality", "n_samples", 10**13,
     f"locality.n_samples must be an integer in [1, {MAX_SAMPLES}]"),
    ("simulate", "couplings", "c1", float("inf"), "couplings.c1"),
    ("simulate", "couplings", "c2", float("nan"), "couplings.c2"),
    ("simulate", None, "seed", True, "seed"),
    ("simulate", "dims", "a", True, "dims.a"),
    ("simulate", "time", "steps", True, "time.steps"),
    ("simulate", "initial", "alpha", [[float("nan"), 0.0], [1.0, 0.0]], "initial.alpha"),
    ("simulate", "output", "format", "json", "output.format"),
    ("locality", "locality", "n_sample", 8, "locality.n_sample"),
    ("simulate", "dims", "d", 5, "dims.d"),
    ("simulate", "couplings", "c3", 1.0, "couplings.c3"),
    ("simulate", "model", "familly", "explicit", "model.familly"),
    ("simulate", "initial", "beta", [1.0], "initial.beta"),
    ("simulate", "time", "dt", 0.1, "time.dt"),
    ("sweep", "sweep", "c2_values", [0.1], "sweep.c2_values"),
    ("simulate", "output", "paths", "x.csv", "output.paths"),
    ("simulate", "dims", "a", 3, "initial.alpha has length (2,), expected 3"),
    ("simulate", "dims", "b", 2, "initial.chi has length (3,), expected 2"),
    ("simulate", "time", "t_max", 5e-324, "time.t_max"),
]


DROP = object()  # an edit that deletes its key


def edited_config(edits):
    """``base_config()`` with each dotted path of ``edits`` set to its value, or deleted."""
    doc = base_config()
    for dotted, value in edits.items():
        *parents, key = dotted.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        if value is DROP:
            del node[key]
        else:
            node[key] = value
    return doc


EXPLICIT = {"model.family": "explicit", "model.matrices": {}}
NO_ENTRIES = dict.fromkeys(("h_a", "h_c", "h_b", "h_ac", "h_cb"), [])
# A rejection of every config check that no other case reaches: (command, the document,
# the message after "config error: "). A decompose document is the unitary file.
CONFIG_REJECTIONS = [
    pytest.param("simulate", edited_config({"initial.alpha": []}),
                 "initial.alpha: vector must be a non-empty list", id="empty-alpha"),
    pytest.param("simulate", edited_config({"initial.alpha": [10 ** 400, 0]}),
                 "initial.alpha: vector entry out of range: int too large to convert to float",
                 id="huge-alpha-entry"),
    pytest.param("simulate", edited_config({**EXPLICIT, "model.matrices": NO_ENTRIES}),
                 "model.matrices.h_a: matrix must be a non-empty list of rows", id="empty-matrix"),
    pytest.param("decompose", [], "unitary file must be an object with a 'u' matrix",
                 id="unitary-file-not-object"),
    pytest.param("simulate", [], "configuration must be a JSON object", id="config-not-object"),
    pytest.param("simulate", edited_config({"couplings.c2": -1}),
                 "couplings.c2 must be non-negative and finite, got -1.0", id="negative-c2"),
    pytest.param("simulate", edited_config({"model.robust_index": 3}),
                 "model.robust_index 3 out of range for d_c = 3", id="robust-index-out-of-range"),
    pytest.param("simulate", edited_config(EXPLICIT),
                 "model.matrices missing ['h_a', 'h_c', 'h_b', 'h_ac', 'h_cb']", id="no-matrices"),
    pytest.param("simulate", edited_config({"time.steps": 1}), "time.steps must be >= 2, got 1",
                 id="one-step"),
    pytest.param("sweep", edited_config({"sweep.c1_values": []}),
                 "sweep.c1_values must be a non-empty list", id="empty-c1-values"),
    pytest.param("sweep", edited_config({"sweep.c1_values": [2.0, 0]}),
                 "sweep.c1_values[1]: c1 must be positive and finite, got 0.0",
                 id="zero-c1-value"),
    pytest.param("sweep", edited_config({"sweep.ratio_values": [-1]}),
                 "sweep.ratio_values[0]: c2 must be non-negative and finite, got -8.0",
                 id="negative-ratio"),
    pytest.param("simulate", edited_config({"output.path": 5}), "output.path must be a string",
                 id="output-path-not-string"),
    pytest.param("simulate", edited_config({"time": DROP}),
                 "this command requires a 'time' section", id="no-time-section"),
]


def identity_matrices(sizes):
    return {k: [[[float(i == j), 0.0] for j in range(n)] for i in range(n)] for k, n in sizes.items()}


DIMS = Dims(2, 3, 3)
ALPHA, CHI = np.full(2, 2 ** -0.5), np.full(3, 3 ** -0.5)
WRONG_H_A = {"h_a": 3, "h_c": 3, "h_b": 3, "h_ac": 6, "h_cb": 9}  # dims 2x3x3 want h_a 2x2
# (config edits, the field the CLI names, a model-layer call with the same value)
CONTRACTS = [
    pytest.param({"model.robust_index": 3}, "model",
                 lambda: build_canonical(DIMS, 1, 8.0, 0.1, robust_index=3), id="robust-index"),
    pytest.param({"couplings.c1": 0.0}, "couplings", lambda: build_canonical(DIMS, 1, 0.0, 0.1),
                 id="couplings"),
    pytest.param({"dims.a": 3}, "initial",
                 lambda: initial_state(InitialSpec(ALPHA, CHI), Dims(3, 3, 3), 0),
                 id="amplitude-length"),
    pytest.param({"model.family": "explicit", "model.matrices": identity_matrices(WRONG_H_A)},
                 "model.matrices",
                 lambda: ModelSpec(dims=DIMS, c1=8.0, c2=0.1,
                                   **{k: np.eye(n) for k, n in WRONG_H_A.items()}),
                 id="matrix-shape"),
]


def locality_job(n_samples):
    return locality_columns(build_canonical(DIMS, 1, 8.0, 0.1), InitialSpec(ALPHA, CHI),
                            [0.0, 1.0], n_samples=n_samples)


# The inputs whose one check the library owns: each one's (config path, the prefix config puts
# before the check's message, a command that uses the value, a library call that takes it)
CHECKED_INPUTS = {
    "seed": ("seed", "", "make-model", lambda v: build_canonical(DIMS, v, 8.0, 0.1)),
    "n_samples": ("locality.n_samples", "locality.", "locality", locality_job),
    "threshold_bits": ("locality.threshold_bits", "locality.", "sweep",
                       lambda v: tau_estimate([0.0, 1.0], [0.0, 0.02], v)),
}
# one table per input: (value, whether the library, parse_config and main() all accept it)
SEED_VALUES = [(0, True), (2 ** 64 - 1, True), (-1, False), (2 ** 64, False), (1.5, False)]
N_SAMPLES_VALUES = [(1, True), (MAX_SAMPLES, True), (0, False), (MAX_SAMPLES + 1, False),
                    (2.5, False)]
THRESHOLD_VALUES = [(1e-300, True), (0, False), (-1, False), (float("nan"), False)]
CHECKED_VALUES = [pytest.param(name, value, ok, id=f"{name}={value!r}")
                  for name, table in (("seed", SEED_VALUES), ("n_samples", N_SAMPLES_VALUES),
                                      ("threshold_bits", THRESHOLD_VALUES))
                  for value, ok in table]


class TestOneCheckPerInput:
    """The library, parse_config and main() accept and refuse the same values, by one message."""

    @pytest.mark.parametrize("name, value, ok", CHECKED_VALUES)
    def test_library_config_and_cli_agree(self, tmp_path, capsys, monkeypatch, name, value, ok):
        # the samples themselves are not drawn: MAX_SAMPLES of them would take seconds
        monkeypatch.setattr(locality, "_signaling_reducer",
                            lambda *args: lambda phi: np.zeros(len(phi)))
        path, prefix, command, call = CHECKED_INPUTS[name]
        doc = edited_config({path: value, "sweep.c1_values": [8.0]})
        argv = [command, "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]
        if ok:
            call(value)
            assert getattr(parse_config(doc), name) == value
            assert main(argv) == 0
            assert capsys.readouterr().err == ""
            return
        with pytest.raises(ValueError) as info:
            call(value)
        assert type(info.value) is ValueError
        with pytest.raises(ConfigError) as config_info:
            parse_config(doc)
        assert str(config_info.value) == f"{prefix}{info.value}"
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: {prefix}{info.value}\n"

    @pytest.mark.parametrize("value", [-1, 2 ** 64])
    @pytest.mark.parametrize("flag", ["--seed", "--plant"])
    def test_seed_flags_give_the_library_message(self, tmp_path, capsys, flag, value):
        # 2**64 once ran as seed 0: derive_seed kept its low 64 bits
        with pytest.raises(ValueError) as info:
            build_canonical(DIMS, value, 8.0, 0.1)
        argv = (["decompose", "--plant", f"seed={value}"] if flag == "--plant" else
                ["simulate", "--config", write_config(tmp_path, base_config()), "--seed", str(value)])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"config error: argument {flag}: {info.value}\n"

    def test_seed_flags_take_the_largest_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["make-model", "--config", cfg, "--seed", str(2 ** 64 - 1)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 2 ** 64 - 1
        assert main(["decompose", "--plant", f"seed={2 ** 64 - 1}"]) == 0

    @pytest.mark.parametrize("job", [
        lambda seed: build_canonical(DIMS, seed, 8.0, 0.1),
        lambda seed: planted_sequential(Dims(2, 2, 2), seed),
        lambda seed: sequential_residual(np.eye(8), Dims(2, 2, 2), seed=seed),
        lambda seed: locality_columns(build_canonical(DIMS, 1, 8.0, 0.1), InitialSpec(ALPHA, CHI),
                                      [0.0], seed=seed),
        lambda seed: signaling_test_unitary(np.eye(DIMS.total), InitialSpec(ALPHA, CHI), DIMS, 0,
                                            "b_to_a", seed=seed),
    ], ids=["build_canonical", "planted_sequential", "sequential_residual", "locality_columns",
            "signaling_test_unitary"])
    def test_every_seeded_call_refuses_a_seed_past_64_bits(self, job):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), "
                                             r"got 18446744073709551616$"):
            job(2 ** 64)


class TestExitCodes:
    @pytest.mark.parametrize("edits, field, call", CONTRACTS)
    def test_cli_names_the_field_of_the_model_layer_message(self, tmp_path, capsys,
                                                             edits, field, call):
        with pytest.raises(ValueError) as info:
            call()
        kind, code = ("validation", 2) if isinstance(info.value, ValidationError) else ("config", 1)
        assert main(["simulate", "--config", write_config(tmp_path, edited_config(edits))]) == code
        assert capsys.readouterr().err == f"{kind} error: {field}.{info.value}\n"

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path, capsys):
        # json.loads raises a plain ValueError there, not a JSONDecodeError
        preset = (Path(__file__).resolve().parent.parent / "presets" / "ion-cage.json").read_text()
        doc = json.loads(preset)
        doc["model"]["robust_index"] = -1
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"robust_index": -1', '"robust_index": 1' + "0" * 5000))
        assert main(["locality", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: invalid JSON: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("command, doc, message", CONFIG_REJECTIONS)
    def test_config_rejection_names_the_field(self, tmp_path, capsys, command, doc, message):
        path = write_config(tmp_path, doc)
        assert main([command, path] if command == "decompose" else [command, "--config", path]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_all_denominators_degenerate_is_validation_error(self, tmp_path, capsys):
        # h_ac = h_cb = I: every robust-sector energy of h_cb equals every orthogonal one, so
        # each second-order denominator is 0 and no shift is defined at c2 > 0
        def diag(*entries):
            return matrix_to_json(np.diag(entries))

        doc = edited_config({"dims.b": 2, "couplings.c2": 0.3, "model.family": "explicit",
                             "initial.chi": [[1.0, 0.0], [0.0, 0.0]]})
        doc["model"]["matrices"] = {"h_a": diag(0.6, -0.2), "h_c": diag(0.3, -0.9, 0.5),
                                    "h_b": diag(0.4, -0.7), "h_ac": diag(*[1.0] * 6),
                                    "h_cb": diag(*[1.0] * 6)}
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "validation error: all denominators degenerate: perturbation theory undefined\n")

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

    @pytest.mark.parametrize("command", ["simulate", "sweep", "locality", "make-model",
                                         "decompose"])
    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, base_config(sweep={"c1_values": [8.0]}))
        args = ["--plant", "seed=1"] if command == "decompose" else ["--config", cfg]
        assert main([command, *args, "--seed", "-5"]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--plant", "seed=1", "/nonexistent.json"],
        ["/nonexistent.json", "--plant", "seed=1"],
    ], ids=["plant-first", "file-first"])
    def test_unitary_file_with_plant_is_config_error(self, capsys, argv):
        assert main(["decompose", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: argument ")
        assert "not allowed with argument" in err

    @staticmethod
    def _spoil_the_second_block(monkeypatch, eigh_cost, factor):
        """Scale every block after the first by ``factor``, on either route; return their rows."""
        monkeypatch.setattr(disd.evolve, "EIGH_FLOPS_PER_N3", eigh_cost)
        monkeypatch.setattr(disd.evolve, "BLOCK_NUMBERS", 3 * 18)  # 3 rows of dim 18 at most
        yielded = []
        for route in (Propagator, Chebyshev):
            def spoiled(self, psi, times, max_rows, blocks=route.blocks):
                for rows, states in blocks(self, psi, times, max_rows):
                    yielded.append(rows)
                    yield rows, states * factor if len(yielded) > 1 else states

            monkeypatch.setattr(route, "blocks", spoiled)
        return yielded

    @pytest.mark.parametrize("eigh_cost", [disd.evolve.EIGH_FLOPS_PER_N3, np.inf],
                             ids=["spectral", "chebyshev"])
    @pytest.mark.parametrize("command", ["simulate", "locality"])
    def test_drift_after_the_first_block_is_validation_error(self, tmp_path, capsys, monkeypatch,
                                                              command, eigh_cost):
        # the check reads psi0's rows block by block, so it fires mid-stream: the first block
        # has been reduced, no output has been formed, and none is written
        yielded = self._spoil_the_second_block(monkeypatch, eigh_cost, 1 + 1e-6)
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, base_config(time={"t_max": 2.0, "steps": 20}))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: propagation norm drift 1.0")
        assert len(yielded) == 2
        assert not out.exists()

    @pytest.mark.parametrize("eigh_cost", [disd.evolve.EIGH_FLOPS_PER_N3, np.inf],
                             ids=["spectral", "chebyshev"])
    @pytest.mark.parametrize("command", ["simulate", "locality"])
    def test_nan_block_is_validation_error(self, tmp_path, capsys, monkeypatch, command,
                                           eigh_cost):
        # a NaN norm is no drift within the bound: the block never reaches a reduction
        yielded = self._spoil_the_second_block(monkeypatch, eigh_cost, np.nan)
        out = tmp_path / "out.csv"
        cfg = write_config(tmp_path, base_config(time={"t_max": 2.0, "steps": 20}))
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("validation error: propagation norm drift nan > 1.0e-08")
        assert len(yielded) == 2
        assert not out.exists()

    @pytest.mark.parametrize("d", [2, 8])
    def test_subnormal_spectral_width_runs_clean(self, tmp_path, d):
        # c1 = 1e-310 puts the Chebyshev half-width at 5e-311, where 2 / half overflows: no
        # warning fires, and the job takes the spectral route even where the count would
        # pick Chebyshev (at 8x8x8 over t up to 1e305)
        zero = [[0.0] * d for _ in range(d)]
        robust = [[float(i == j == 0) for j in range(d * d)] for i in range(d * d)]
        doc = base_config(
            dims={"a": d, "c": d, "b": d}, couplings={"c1": 1e-310, "c2": 0.0},
            model={"family": "explicit",
                   "matrices": {"h_a": zero, "h_c": zero, "h_b": zero, "h_ac": robust,
                                "h_cb": robust}},
            initial={"alpha": [d ** -0.5] * d, "chi": [d ** -0.5] * d},
            time={"t_max": 1e305, "steps": 50})
        out = tmp_path / "out.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(disd.__file__).resolve().parents[1]))
        proc = run_guarded("disd.cli", ["locality", "--config", write_config(tmp_path, doc),
                                        "--out", str(out)], flags=("-W", "error"), env=env,
                           timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, cols = parse_csv(out.read_text())
        assert len(cols["t"]) == 50
        assert all(np.isfinite(cols[h]).all() for h in header)

    def test_overflowing_spectral_bounds_are_validation_error(self, tmp_path):
        # at c1 = c2 = 1e308 the sums of the blocks' extreme eigenvalues, the Chebyshev
        # spectral bounds, pass the largest double: they become inf with no overflow warning,
        # and the phase guard refuses the job
        doc = base_config(couplings={"c1": 1e308, "c2": 1e308})
        out = tmp_path / "out.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(disd.__file__).resolve().parents[1]))
        proc = run_guarded("disd.cli", ["locality", "--config", write_config(tmp_path, doc),
                                        "--out", str(out)], flags=("-W", "error"), env=env,
                           timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("validation error: phases lose their precision: ")
        assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_subnormal_c1_at_zero_c2_simulates(self, tmp_path):
        # at c2 = 0 every second-order shift is exactly 0, though the weights 1 / gap overflow
        # at c1 = 1e-310: the product form must not form 0 * inf
        doc = base_config(dims={"a": 2, "c": 2, "b": 2}, couplings={"c1": 1e-310, "c2": 0.0},
                          initial={"alpha": [2 ** -0.5] * 2, "chi": [2 ** -0.5] * 2},
                          time={"t_max": 20.0, "steps": 11})
        out = tmp_path / "out.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(disd.__file__).resolve().parents[1]))
        proc = run_guarded("disd.cli", ["simulate", "--config", write_config(tmp_path, doc),
                                        "--out", str(out)], flags=("-W", "error"), env=env,
                           timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        header, cols = parse_csv(out.read_text())
        assert len(cols["t"]) == 11
        assert all(np.isfinite(cols[h]).all() for h in header)
        assert np.abs(cols["residual_eq4"]).max() <= 1e-12

    def test_unallocatable_time_grid_is_config_error(self, tmp_path, capsys):
        # 10**13 float64 times need 72.8 TiB; the allocator refuses that at once
        doc = base_config(time={"t_max": 2.0, "steps": 10**13})
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory")
        assert "Traceback" not in err

    @pytest.mark.parametrize("dims, field", [
        ({"a": 2.9, "c": 2, "b": 2}, "dims.a"),
        ({"a": 2, "c": True, "b": 2}, "dims.c"),
        ({"a": 2, "c": 2}, "'b' in dims"),
        ([2, 2, 2], "unitary file.dims"),
    ], ids=["float", "bool", "missing", "not-an-object"])
    def test_bad_unitary_file_dims_is_named_config_error(self, tmp_path, capsys, dims, field):
        doc = {"dims": dims,
               "u": [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(8)]
                     for i in range(8)]}
        path = tmp_path / "unit.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 1
        err = capsys.readouterr().err
        assert field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("n_samples", [0, MAX_SAMPLES + 1, 10**13])
    def test_n_samples_out_of_range_is_rejected_at_parse(self, n_samples):
        doc = base_config(locality={"n_samples": n_samples, "threshold_bits": 0.01})
        with pytest.raises(ConfigError, match=rf"locality\.n_samples .*{MAX_SAMPLES}"):
            parse_config(doc)

    def test_n_samples_cap_is_accepted(self):
        doc = base_config(locality={"n_samples": MAX_SAMPLES, "threshold_bits": 0.01})
        assert parse_config(doc).n_samples == MAX_SAMPLES

    def test_unknown_matrix_key_is_named_config_error(self, tmp_path, capsys):
        cfg = parse_config(base_config())
        matrices = dict(cmd_make_model(cfg)["matrices"], h_ab=[[0.0]])
        doc = base_config(model={"family": "explicit", "matrices": matrices})
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        assert "model.matrices.h_ab" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["h_a", "h_c", "h_b", "h_ac", "h_cb"])
    def test_matrix_of_wrong_size_is_named_config_error(self, tmp_path, capsys, name):
        # dims 2x3x3 want sizes 2, 3, 3, 6, 9; the named matrix is one larger
        sizes = {"h_a": 2, "h_c": 3, "h_b": 3, "h_ac": 6, "h_cb": 9}
        sizes[name] += 1
        doc = base_config(model={"family": "explicit", "matrices": identity_matrices(sizes)})
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 1
        n = sizes[name]
        assert capsys.readouterr().err == (f"config error: model.matrices.{name} has shape "
                                           f"({n}, {n}), expected ({n - 1}, {n - 1})\n")

    @pytest.mark.parametrize("command", ["simulate", "decompose"])
    def test_deeply_nested_json_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text('{"u": ' + "[" * 100_000 + "]" * 100_000 + "}")
        args = [str(path)] if command == "decompose" else ["--config", str(path)]
        assert main([command, *args]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "nested too deeply" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", [1e308, -1e308, 1.7e308])
    def test_huge_unitary_entries_are_not_unitary(self, tmp_path, capsys, value):
        doc = {"dims": {"a": 2, "c": 2, "b": 2},
               "u": [[[value, value]] * 8 for _ in range(8)]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert main(["decompose", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not unitary" in err and "Traceback" not in err

    def test_linalg_error_is_numerical_error(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("disd.cli.sequential_residual", fail)
        assert main(["decompose", "--plant", "seed=1"]) == 2
        assert capsys.readouterr().err == "numerical error: SVD did not converge\n"

    @pytest.mark.parametrize("command, guard", [
        ("simulate", "product-form phases lose their precision at c1 = 8.000e+00"),
        ("sweep", "product-form phases lose their precision at c1 = 8.000e+00"),
        ("locality", "phases lose their precision")])
    def test_lost_phase_precision_is_validation_error(self, tmp_path, capsys, command, guard):
        # both guards fail here; simulate and sweep check the product form's first,
        # before any propagation, and locality reads no product form
        doc = base_config(time={"t_max": 1e13, "steps": 5}, sweep={"c1_values": [8.0]})
        assert main([command, "--config", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {guard}: eps*max|E|*max|t| = ")

    @pytest.mark.parametrize("c1", [1e-310, 5e-324])
    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_tiny_c1_is_named_validation_error(self, tmp_path, capsys, command, c1):
        # 1/(c1 * gap) overflows: the shift table would hold inf and nan
        doc = base_config(couplings={"c1": c1, "c2": 0.1}, sweep={"c1_values": [c1]})
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: c1 = {c1:.3e} is too small for c2 = 1.000e-01: "
            f"the second-order shifts overflow\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, code", [("simulate", 2), ("sweep", 2), ("locality", 0)])
    def test_product_form_phase_guard(self, tmp_path, capsys, command, code):
        # lambda_i0j ~ c2^2 / c1 = 2.5e9 leaves about five correct digits in the
        # product-form phases; locality reads no product form
        doc = _preset()
        doc.update(couplings={"c1": 1e-10, "c2": 0.5}, time={"t_max": 20.0, "steps": 5},
                   sweep={"c1_values": [1e-10]})
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("validation error: product-form phases lose their precision "
                                  "at c1 = 1.000e-10: eps*max|E|*max|t| = 2.709e-05")
            assert not out.exists()
        else:
            assert err == "" and out.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_product_form_guard_runs_before_any_route(self, tmp_path, capsys, monkeypatch,
                                                      propagator_builds, command):
        # the benchmark's dim-1024 simulate input at c1 = 1e-10 fails the product-form
        # guard, which needs only pd.energies and the times: no route is built
        cheb_builds = []
        build = Chebyshev.__init__

        def counted(self, spec):
            cheb_builds.append(spec.dims.total)
            build(self, spec)

        monkeypatch.setattr(Chebyshev, "__init__", counted)
        doc = dense_config()
        doc["couplings"]["c1"] = 1e-10
        doc["sweep"] = {"c1_values": [1e-10]}
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "validation error: product-form phases lose their precision at c1 = 1.000e-10: "
            "eps*max|E|*max|t| = 8.835e-05 > 1.0e-08\n")
        assert propagator_builds == [] and cheb_builds == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "locality"])
    def test_nearly_hermitian_explicit_model_runs(self, tmp_path, command):
        # h_cb is accepted 0.9e-12 from Hermitian; c1 = 50 would scale that past the
        # Hamiltonian's own bound unless the model keeps the Hermitian part
        doc = _preset()
        matrices = cmd_make_model(parse_config(doc))["matrices"]
        matrices["h_cb"][0][1][0] += 0.9e-12
        doc["model"] = {"family": "explicit", "matrices": matrices}
        doc["time"] = {"t_max": 2.0, "steps": 5}
        doc["locality"]["n_samples"] = 2
        out = tmp_path / "out.csv"
        assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0

    def test_large_couplings_pass_the_commutator_bound(self, tmp_path):
        # the canonical model commutes to ~1e-17 relative, while the absolute
        # norm of [h_a, c2 A0] at c2 = 1e10 is ~1e-7
        doc = _preset()
        doc.update(couplings={"c1": 1e13, "c2": 1e10}, time={"t_max": 1e-12, "steps": 5})
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        _, cols = parse_csv(out.read_text())
        assert all(np.isfinite(v).all() for v in cols.values())

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
