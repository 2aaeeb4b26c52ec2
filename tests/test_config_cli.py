import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qregsim import (
    BellMixPrep,
    ConfigError,
    CosineCoupling,
    ExplicitCoupling,
    LinearDispersion,
    MomentumPrep,
    SymmetricPrep,
    UniformCoupling,
    build_h1,
    diagonalize,
    format_config,
    parse_config,
    parse_config_file,
    prep_vector,
)
from qregsim.cli import main

MINIMAL = """
# minimal weak-coupling run
register.n_qubits = 2
register.n_modes = 200
coupling.type = uniform
coupling.g0 = 0.01
prep.type = symmetric
grid.t_max = 2000
grid.n_steps = 2001
output.path = out.csv
"""


class TestParseConfig:
    def test_minimal_document(self):
        cfg = parse_config(MINIMAL)
        assert cfg.params.shape.n_qubits == 2
        assert cfg.params.shape.n_modes == 200
        assert cfg.params.epsilon == 1.0
        assert cfg.params.coupling == UniformCoupling(0.01)
        assert isinstance(cfg.params.dispersion, LinearDispersion)
        assert cfg.prep == SymmetricPrep()
        assert cfg.grid.t_max == 2000.0
        assert cfg.grid.n_steps == 2001
        assert cfg.output_path == "out.csv"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2.*unknown key.*'register.qubits'"):
            parse_config("register.n_qubits = 2\nregister.qubits = 2\n")

    def test_duplicate_key_rejected(self):
        text = MINIMAL + "coupling.g0 = 0.02\n"
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(text)

    def test_xi_under_uniform_coupling_rejected(self):
        text = MINIMAL + "coupling.xi = 5\n"
        with pytest.raises(ConfigError, match="unknown key for uniform coupling"):
            parse_config(text)

    def test_single_step_grid_rejected(self):
        text = MINIMAL.replace("grid.n_steps = 2001", "grid.n_steps = 1")
        with pytest.raises(ConfigError, match="n_steps"):
            parse_config(text)

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("n_qubits = 2", "n_qubits = 0", "line 3: register.n_qubits must be at least 1"),
            ("n_modes = 200", "n_modes = -5", "line 4: register.n_modes must be at least 1"),
            (
                "g0 = 0.01",
                "g0 = 0.01\nmodel.epsilon = 0",
                "line 7: model.epsilon must be positive",
            ),
            (
                "coupling.type = uniform",
                "coupling.type = cosine\ncoupling.xi = -1",
                "line 6: coupling.xi must be positive",
            ),
            ("t_max = 2000", "t_max = -10", "line 8: grid.t_max must be positive"),
            ("t_max = 2000", "t_max = 0", "line 8: grid.t_max must be positive"),
            ("n_steps = 2001", "n_steps = 1", "line 9: grid.n_steps must be at least 2"),
        ],
        ids=["n_qubits", "n_modes", "epsilon", "xi", "t_max_negative", "t_max_zero", "n_steps"],
    )
    def test_out_of_range_value_names_key_and_line(self, old, new, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL.replace(old, new))

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (
                "coupling.type = uniform",
                "coupling.type = dicke",
                "line 5: coupling.type must be uniform, cosine, or explicit, got 'dicke'",
            ),
            (
                "coupling.type = uniform",
                "coupling.type = explicit\ncoupling.file = g.dat",
                "line 7: unknown key for explicit coupling: 'coupling.g0'",
            ),
            (
                "output.path = out.csv",
                "output.path = out.csv\ndispersion.type = quadratic",
                "line 11: dispersion.type must be linear or explicit, got 'quadratic'",
            ),
            (
                "output.path = out.csv",
                "output.path = out.csv\ndispersion.file = w.dat",
                "line 11: unknown key for linear dispersion: 'dispersion.file'",
            ),
            (
                "prep.type = symmetric",
                "prep.type = ghz",
                "line 7: prep.type must be symmetric, momentum, m_superposition, "
                "bell_mix, or explicit, got 'ghz'",
            ),
        ],
        ids=[
            "coupling_type",
            "coupling_g0_under_explicit",
            "dispersion_type",
            "dispersion_file_under_linear",
            "prep_type",
        ],
    )
    def test_family_variant_errors(self, tmp_path, old, new, message):
        np.savetxt(tmp_path / "g.dat", np.full((200, 2), 0.01))
        np.savetxt(tmp_path / "w.dat", np.linspace(0.1, 6.0, 200))
        with pytest.raises(ConfigError) as info:
            parse_config(MINIMAL.replace(old, new), base_dir=tmp_path)
        assert str(info.value) == message

    def test_missing_required_key(self):
        text = MINIMAL.replace("coupling.g0 = 0.01\n", "")
        with pytest.raises(ConfigError, match="missing required key 'coupling.g0'"):
            parse_config(text)

    def test_cosine_coupling(self):
        text = MINIMAL.replace(
            "coupling.type = uniform\ncoupling.g0 = 0.01",
            "coupling.type = cosine\ncoupling.g0 = 0.01\ncoupling.xi = 5",
        )
        cfg = parse_config(text)
        assert cfg.params.coupling == CosineCoupling(0.01, 5.0)

    def test_momentum_prep_range(self):
        text = MINIMAL.replace(
            "prep.type = symmetric", "prep.type = momentum\nprep.n = 1"
        )
        assert parse_config(text).prep == MomentumPrep(1)
        bad = MINIMAL.replace("prep.type = symmetric", "prep.type = momentum\nprep.n = 2")
        with pytest.raises(ConfigError, match="prep.n"):
            parse_config(bad)

    def test_bell_mix_normalization(self):
        text = MINIMAL.replace(
            "prep.type = symmetric",
            "prep.type = bell_mix\nprep.cs = 0.6\nprep.ca = 0.8",
        )
        cfg = parse_config(text)
        assert cfg.prep == BellMixPrep(0.6 + 0j, 0.8 + 0j)
        bad = text.replace("prep.ca = 0.8", "prep.ca = 0.9")
        with pytest.raises(ConfigError, match=r"\|cs\|\^2 \+ \|ca\|\^2"):
            parse_config(bad)

    def test_explicit_prep_amplitudes(self):
        text = MINIMAL.replace(
            "prep.type = symmetric",
            "prep.type = explicit\nprep.amplitudes = 0.6+0j, 0+0.8j",
        )
        cfg = parse_config(text)
        vec = prep_vector(cfg.prep, 2)
        assert np.allclose(vec, [0.6, 0.8j])
        bad = text.replace("0.6+0j, 0+0.8j", "1+0j, 1+0j")
        with pytest.raises(ConfigError, match="unit norm"):
            parse_config(bad)

    def test_prep_key_mismatch_rejected(self):
        text = MINIMAL + "prep.m = 2\n"
        with pytest.raises(ConfigError, match="unknown key for symmetric preparation"):
            parse_config(text)

    def test_explicit_files(self, tmp_path):
        gfile = tmp_path / "g.dat"
        gfile.write_text("0.01 0.02\n0.03 0.04\n0.05 0.06\n")
        wfile = tmp_path / "w.dat"
        wfile.write_text("0.5\n1.0\n1.5\n")
        text = """
register.n_qubits = 2
register.n_modes = 3
coupling.type = explicit
coupling.file = g.dat
dispersion.type = explicit
dispersion.file = w.dat
prep.type = symmetric
grid.t_max = 10
grid.n_steps = 11
output.path = out.csv
"""
        cfg = parse_config(text, base_dir=tmp_path)
        assert isinstance(cfg.params.coupling, ExplicitCoupling)
        assert cfg.params.coupling.g.shape == (3, 2)
        assert cfg.params.coupling.g[1, 1] == 0.04
        assert np.array_equal(cfg.params.dispersion.omegas, [0.5, 1.0, 1.5])
        assert cfg.coupling_path == str(gfile.resolve())

    def test_bad_shape_coupling_file(self, tmp_path):
        gfile = tmp_path / "g.dat"
        gfile.write_text("0.01 0.02\n")
        text = """
register.n_qubits = 2
register.n_modes = 3
coupling.type = explicit
coupling.file = g.dat
prep.type = symmetric
grid.t_max = 10
grid.n_steps = 11
output.path = out.csv
"""
        with pytest.raises(ConfigError, match="shape"):
            parse_config(text, base_dir=tmp_path)

    def test_data_file_under_hash_directory_rejected(self, tmp_path):
        data_dir = tmp_path / "runs#1"
        data_dir.mkdir()
        np.savetxt(data_dir / "g.dat", np.full((200, 2), 0.01))
        text = MINIMAL.replace(
            "coupling.type = uniform\ncoupling.g0 = 0.01",
            "coupling.type = explicit\ncoupling.file = g.dat",
        )
        with pytest.raises(ConfigError, match=r"^line 6: coupling.file .* cannot be echoed"):
            parse_config(text, base_dir=data_dir)

    @pytest.mark.parametrize(
        "field,key,path",
        [
            ("output_path", "output.path", "runs#1/fig1.csv"),
            ("output_path", "output.path", "runs\nfig1.csv"),
            ("output_path", "output.path", " fig1.csv"),
            ("output_path", "output.path", ""),
            ("coupling_path", "coupling.file", "/data/g.dat "),
            ("dispersion_path", "dispersion.file", "/data/#w.dat"),
        ],
        ids=["hash", "newline", "leading_space", "empty", "trailing_space", "data_hash"],
    )
    def test_path_that_cannot_round_trip_rejected(self, field, key, path):
        with pytest.raises(ValueError, match=f"^{key} .* cannot be echoed"):
            replace(parse_config(MINIMAL), **{field: path})

    def test_format_round_trip(self):
        cfg = parse_config(MINIMAL)
        text = format_config(cfg)
        again = parse_config(text)
        assert again.params.coupling == cfg.params.coupling
        assert again.prep == cfg.prep
        assert again.grid == cfg.grid
        assert again.output_path == cfg.output_path


class TestCli:
    def _write(self, tmp_path, n_modes=20, t_max=20.0, n_steps=41, extra=""):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"""
register.n_qubits = 2
register.n_modes = {n_modes}
coupling.type = uniform
coupling.g0 = 0.01
prep.type = symmetric
grid.t_max = {t_max}
grid.n_steps = {n_steps}
output.path = {tmp_path / 'series.csv'}
{extra}
"""
        )
        return cfg

    def test_run_writes_csv_and_sidecar(self, tmp_path, capsys):
        cfg = self._write(tmp_path)
        assert main(["run", str(cfg)]) == 0
        out = (tmp_path / "series.csv").read_text()
        lines = out.splitlines()
        assert lines[0] == "t,fidelity,entropy_bits,p0,p1,d_re,d_im"
        assert len(lines) == 42
        meta = (tmp_path / "series.csv.meta").read_text()
        assert "fidelity_mean" in meta
        assert "wrote" in capsys.readouterr().out

    def test_runs_are_byte_identical(self, tmp_path):
        cfg = self._write(tmp_path)
        main(["run", str(cfg)])
        first = (tmp_path / "series.csv").read_bytes()
        main(["run", str(cfg)])
        assert (tmp_path / "series.csv").read_bytes() == first

    def test_sidecar_round_trips(self, tmp_path):
        cfg = self._write(tmp_path)
        main(["run", str(cfg)])
        first = (tmp_path / "series.csv").read_bytes()
        meta = tmp_path / "series.csv.meta"
        assert main(["run", str(meta)]) == 0
        assert (tmp_path / "series.csv").read_bytes() == first

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("register.n_qubits = 2\n")
        assert main(["run", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_dispersion_file_exit_code(self, tmp_path, capsys):
        (tmp_path / "w.dat").write_text("abc\n")
        cfg = self._write(tmp_path, extra="dispersion.type = explicit\ndispersion.file = w.dat")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: line 11: malformed dispersion.file file" in err

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (
                "prep.type = symmetric",
                "prep.type = bell_mix\nprep.cs = nan+0j\nprep.ca = 1",
                "line 7: prep.cs must be finite",
            ),
            (
                "prep.type = symmetric",
                "prep.type = explicit\nprep.amplitudes = nan+0j, 1+0j",
                "line 7: prep.amplitudes must be finite",
            ),
            (
                "coupling.type = uniform\ncoupling.g0 = 0.01",
                "coupling.type = explicit\ncoupling.file = g.dat",
                "line 5: coupling.file: coupling matrix must be finite",
            ),
        ],
        ids=["bell_mix", "explicit_prep", "coupling_file"],
    )
    def test_non_finite_value_exit_code(self, tmp_path, capsys, old, new, message):
        (tmp_path / "g.dat").write_text("nan 0.01\n0.01 0.01\n")
        cfg = self._write(tmp_path, n_modes=2)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["run", str(cfg)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "series.csv").exists()

    @pytest.mark.parametrize(
        "old,new,message",
        [
            (
                "coupling.type = uniform\ncoupling.g0 = 0.01",
                "coupling.type = explicit\ncoupling.file = empty.dat",
                "line 5: coupling.file file",
            ),
            (
                "output.path",
                "dispersion.type = explicit\ndispersion.file = empty.dat\noutput.path",
                "line 10: dispersion.file file",
            ),
        ],
        ids=["coupling_file", "dispersion_file"],
    )
    def test_empty_data_file_exit_code(self, tmp_path, capsys, old, new, message):
        (tmp_path / "empty.dat").write_text("# no data, only a comment\n\n")
        cfg = self._write(tmp_path, n_modes=2)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {message}" in err
        assert "holds no numbers" in err
        assert "Warning" not in err
        assert not (tmp_path / "series.csv").exists()

    def test_preset_out_with_hash_writes_nothing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["preset", "fig1", "--out", "a#b"]) != 0
        assert "output.path 'a#b/" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def _spectrum_config(self, tmp_path, n_qubits=2, n_modes=10):
        cfg = tmp_path / "spectrum.cfg"
        cfg.write_text(
            f"""
register.n_qubits = {n_qubits}
register.n_modes = {n_modes}
coupling.type = uniform
coupling.g0 = 0.05
prep.type = symmetric
grid.t_max = 10
grid.n_steps = 11
output.path = {tmp_path / 'spec'}
"""
        )
        return cfg

    def test_spectrum_writes_both_files(self, tmp_path):
        cfg = self._spectrum_config(tmp_path)
        assert main(["spectrum", str(cfg)]) == 0
        evals = np.loadtxt(tmp_path / "spec" / "eigenvalues.csv")
        roots = np.loadtxt(tmp_path / "spec" / "secular_roots.csv")
        assert evals.size == 12
        assert roots.size == 11
        assert np.all(np.diff(evals) >= 0)
        assert np.all(np.diff(roots) > 0)
        # the eigenvalues, assembled from the roots and the dark state at
        # epsilon = 1, are those of the dense eigensolve
        dense = diagonalize(build_h1(parse_config_file(cfg).params)).eigenvalues
        assert np.max(np.abs(evals - dense)) <= 1e-12
        dark = np.argsort(np.abs(dense - 1.0))[:1]
        assert np.max(np.abs(np.delete(dense, dark) - roots)) <= 1e-12

    def test_uniform_spectrum_makes_no_eigensolve(self, tmp_path, monkeypatch):
        def no_eigh(_):
            raise AssertionError("np.linalg.eigh called")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        assert main(["spectrum", str(self._spectrum_config(tmp_path))]) == 0
        assert np.loadtxt(tmp_path / "spec" / "eigenvalues.csv").size == 12

    def test_spectrum_memory_is_linear_in_modes(self, tmp_path):
        # N_b = 3000: the dense route's d x d float64 matrix alone would take
        # 3004^2 x 8 B = 72 MB; the secular route's chunked buffers, its
        # O(N_b) arrays and the CSV text stay far below 16 MiB
        cfg = self._spectrum_config(tmp_path, n_qubits=4, n_modes=3000)
        tracemalloc.start()
        try:
            assert main(["spectrum", str(cfg)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.loadtxt(tmp_path / "spec" / "eigenvalues.csv").size == 3004
        assert peak < 16 * 2**20

    def test_spectrum_skips_roots_for_cosine(self, tmp_path, capsys):
        out_dir = tmp_path / "spec"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"""
register.n_qubits = 2
register.n_modes = 10
coupling.type = cosine
coupling.g0 = 0.05
coupling.xi = 2
prep.type = symmetric
grid.t_max = 10
grid.n_steps = 11
output.path = {out_dir}
"""
        )
        assert main(["spectrum", str(cfg)]) == 0
        assert (out_dir / "eigenvalues.csv").exists()
        assert not (out_dir / "secular_roots.csv").exists()
        assert "skipped" in capsys.readouterr().out

    def test_spectrum_rejects_existing_file_as_output(self, tmp_path, capsys):
        target = tmp_path / "already_a_file"
        target.write_text("data\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"""
register.n_qubits = 2
register.n_modes = 4
coupling.type = uniform
coupling.g0 = 0.05
prep.type = symmetric
grid.t_max = 10
grid.n_steps = 11
output.path = {target}
"""
        )
        assert main(["spectrum", str(cfg)]) == 1
        assert "directory" in capsys.readouterr().err

    def test_preset_fig2_asymptotics(self, tmp_path):
        assert main(["preset", "fig2", "--out", str(tmp_path / "runs")]) == 0
        for m, f_want in ((1, 0.5625), (2, 0.25)):
            meta = (tmp_path / "runs" / f"fig2_M{m}.csv.meta").read_text()
            line = next(l for l in meta.splitlines() if "fidelity_mean" in l)
            fbar = float(line.split("=")[1])
            assert abs(fbar - f_want) < 0.05

    def test_preset_fig5_ordering(self, tmp_path):
        assert main(["preset", "fig5", "--out", str(tmp_path / "runs")]) == 0
        sym = np.genfromtxt(
            tmp_path / "runs" / "fig5_sym.csv", delimiter=",", skip_header=1
        )
        anti = np.genfromtxt(
            tmp_path / "runs" / "fig5_antisym.csv", delimiter=",", skip_header=1
        )
        assert anti[:, 1].mean() > sym[:, 1].mean()
