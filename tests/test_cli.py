import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_fbl.cli import (
    EMIT_BLOCK_ROWS,
    RunConfig,
    emit_report,
    emit_trace,
    main,
    parse_config,
)
from adaptive_fbl.errors import ConfigParseError, OutOfRangeError, UnknownKeyError
from adaptive_fbl.simulator import Metrics, Trace

W_STAR = np.array([1.0, -1.0, 0.5])


def load_trace_csv(path) -> dict[str, np.ndarray]:
    """Read an emitted trace back as a mapping of column name -> array."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [[] for _ in header]
        for line in fh:
            for cell, col in zip(line.strip().split(","), data):
                col.append(float(cell))
    return {name: np.array(col) for name, col in zip(header, data)}


def tiny_trace(n_rows=3):
    rng = np.random.default_rng(0)
    n = n_rows
    return Trace(
        case_id="a",
        h=1e-3,
        t1=10.0,
        t2=20.0,
        w_star=W_STAR.copy(),
        ref_amplitude=0.5,
        t=np.arange(n) * 1e-3,
        x=rng.standard_normal((n, 2)),
        x_ref=rng.standard_normal((n, 2)),
        e=rng.standard_normal((n, 2)),
        u_total=rng.standard_normal(n),
        u_fbl=rng.standard_normal(n),
        u_sfb=rng.standard_normal(n),
        u_ref=rng.standard_normal(n),
        u_gp=rng.standard_normal(n),
        u_rob=rng.standard_normal(n),
        w=rng.standard_normal((n, 3)),
        gp_mean=rng.standard_normal(n),
        gp_var=np.abs(rng.standard_normal(n)),
        d_true=rng.standard_normal(n),
        v=np.abs(rng.standard_normal(n)),
        vdot=rng.standard_normal(n),
        stage=(np.arange(n) % 3) + 1,
    )


def per_cell_csv(tr) -> bytes:
    """The CSV that formatting each cell on its own gives: the reference
    for emit_trace's block-wise formatting."""
    names, cols = zip(*tr.named_columns())
    stage_col = len(cols) - 1
    lines = [",".join(names)]
    for i in range(tr.n_rows):
        lines.append(",".join(
            str(int(col[i])) if j == stage_col else repr(float(col[i]))
            for j, col in enumerate(cols)
        ))
    return ("\n".join(lines) + "\n").encode()


def metrics_for(case_id, s1, s2, s3):
    overall = (s1 + s2 + s3) / 3.0
    return Metrics(case_id, (s1, s2, s3), overall, 0.01)


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.cases == ("a", "b", "c", "d", "e")
        assert cfg.gains == [20.0, 20.0]
        assert cfg.gamma_w == 3.0
        assert cfg.rho == 0.01
        assert cfg.amplitude == 0.5
        assert cfg.omega == 1.0
        assert cfg.gp_window == 100
        assert cfg.h == 1e-3

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nseed = 42  # trailing\n")
        assert cfg.seed == 42

    def test_standard_gains(self):
        cfg = parse_config("gains = [20, 20]")
        assert cfg.gains == [20.0, 20.0]

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(OutOfRangeError):
            parse_config("gamma_w = -1")

    def test_negative_seed_rejected(self):
        with pytest.raises(OutOfRangeError):
            parse_config("seed = -1")

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKeyError):
            parse_config("gamm_w = 3")

    def test_malformed_line_reports_position(self):
        with pytest.raises(ConfigParseError) as exc:
            parse_config("seed = 1\nnot a key value line\n")
        assert "line 2" in str(exc.value)

    def test_empty_case_list_rejected(self):
        with pytest.raises(OutOfRangeError):
            parse_config('cases = []')

    def test_bare_case_list(self):
        cfg = parse_config("cases = a,c")
        assert cfg.cases == ("a", "c")

    def test_unknown_case_rejected(self):
        with pytest.raises(OutOfRangeError):
            parse_config("cases = a,z")

    def test_matrix_value(self):
        cfg = parse_config("Q = [[2, 0], [0, 2]]")
        assert cfg.q == [[2.0, 0.0], [0.0, 2.0]]

    def test_boolean_value(self):
        cfg = parse_config("m_auto = true\nrob_enabled = false")
        assert cfg.m_auto is True
        assert cfg.rob_enabled is False

    def test_builtin_plant_selected_by_name(self):
        cfg = parse_config("plant = benchmark_5717148\nreference = sine")
        assert cfg.plant == "benchmark_5717148"
        with pytest.raises(OutOfRangeError):
            parse_config("plant = pendulum")

    def test_flag_keys_confirm_case_profiles(self):
        cfg = parse_config("gp_enabled = false")
        cfg.scenario("a")  # case a is gp-off: consistent
        with pytest.raises(OutOfRangeError):
            cfg.scenario("e")
        cfg2 = parse_config("cl_enabled = true")
        cfg2.scenario("b")
        with pytest.raises(OutOfRangeError):
            cfg2.scenario("d")


# the special values a trace cell can hold (nan only in its one canonical
# form: every nan prints as "nan"), and runs of one value per column
SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 2.2250738585072014e-308, 0.1]
cell_value = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(allow_nan=False))
column_runs = st.lists(st.tuples(cell_value, st.integers(1, 700)), min_size=1, max_size=4)
stage_value_runs = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 700)), min_size=1, max_size=3)


def from_runs(runs, n_rows):
    """n_rows values: each (value, count) run in turn, repeated to fill."""
    values = np.concatenate([np.full(count, value) for value, count in runs])
    return np.resize(values, n_rows)


class TestEmitTrace:
    def test_row_count(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_trace(tiny_trace(3), path)
        assert path.read_text().count("\n") == 4

    def test_column_schema(self, tmp_path):
        path = tmp_path / "t.csv"
        tr = tiny_trace()
        emit_trace(tr, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == [
            "t", "x1", "x2", "x1_ref", "x2_ref", "e1", "e2",
            "u_total", "u_fbl", "u_sfb", "u_ref", "u_gp", "u_rob",
            "w1", "w2", "w3", "gp_mean", "gp_var", "d_true", "V", "Vdot", "stage",
        ]
        # 3n + m + 13 columns for n states and m weights
        assert len(header) == 3 * 2 + 3 + 13

    def test_round_trip_is_lossless(self, tmp_path):
        path = tmp_path / "t.csv"
        tr = tiny_trace(5)
        emit_trace(tr, path)
        loaded = load_trace_csv(path)
        for name, col in tr.named_columns():
            np.testing.assert_array_equal(loaded[name], col.astype(float), err_msg=name)


    def test_matches_per_cell_formatter(self, tmp_path):
        """Block-wise formatting writes the same bytes as formatting each
        cell on its own, across block boundaries, for special values and
        for constant blocks, which are formatted once."""
        tr = tiny_trace(2 * EMIT_BLOCK_ROWS + 3)
        tr.u_gp[:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]
        tr.x[EMIT_BLOCK_ROWS - 1 : EMIT_BLOCK_ROWS + 1, 0] = [0.1, 1e22]
        tr.gp_var[:] = 0.0
        tr.d_true[:] = 0.0
        tr.d_true[EMIT_BLOCK_ROWS + 7] = -0.0  # equal to 0.0, but not the same cell
        tr.w[EMIT_BLOCK_ROWS - 100 :] = tr.w[EMIT_BLOCK_ROWS - 100]
        tr.stage[:] = 2
        path = tmp_path / "t.csv"
        emit_trace(tr, path)
        assert path.read_bytes() == per_cell_csv(tr)

    @settings(max_examples=20)
    @given(
        n_rows=st.integers(EMIT_BLOCK_ROWS - 3, 2 * EMIT_BLOCK_ROWS + 3),
        columns=st.lists(column_runs, min_size=1, max_size=5),
        stage_runs=stage_value_runs,
    )
    def test_round_trip_of_runs_and_special_values(
        self, tmp_path_factory, n_rows, columns, stage_runs
    ):
        """Columns made of runs of one value, some longer than a block,
        with signed zeros, infinities, nan and subnormals: every cell parses
        back to the same bits, and the file is the per-cell formatter's."""
        tr = tiny_trace(n_rows)
        named = tr.named_columns()
        for k, (name, col) in enumerate(named[:-1]):
            col[:] = from_runs(columns[k % len(columns)], n_rows)
        tr.stage[:] = from_runs(stage_runs, n_rows)
        path = tmp_path_factory.mktemp("emit") / "t.csv"
        emit_trace(tr, path)
        assert path.read_bytes() == per_cell_csv(tr)
        loaded = load_trace_csv(path)
        for name, col in named[:-1]:
            bits = np.asarray(col, dtype=float).view(np.int64)
            np.testing.assert_array_equal(loaded[name].view(np.int64), bits, err_msg=name)
        np.testing.assert_array_equal(loaded["stage"], tr.stage)


class TestEmitReport:
    def test_parity_ratio_present_for_b_and_e(self, tmp_path):
        path = tmp_path / "r.txt"
        metrics = {"b": metrics_for("b", 0.05, 0.01, 0.01), "e": metrics_for("e", 0.05, 5.0, 0.02)}
        emit_report(metrics, RunConfig(cases=("b", "e")), path)
        text = path.read_text()
        assert "ratio name=e_stage3_over_b_stage1" in text
        assert "check" not in text.replace("all_checks_pass", "")

    def test_single_case_has_no_ordering_checks(self, tmp_path):
        path = tmp_path / "r.txt"
        emit_report({"a": metrics_for("a", 1.0, 1.0, 1.0)}, RunConfig(cases=("a",)), path)
        text = path.read_text()
        assert "check name=" not in text
        assert "summary all_checks_pass=yes" in text

    def test_all_cases_reports_three_checks(self, tmp_path):
        path = tmp_path / "r.txt"
        metrics = {
            "a": metrics_for("a", 1.5, 1.5, 1.5),
            "b": metrics_for("b", 0.05, 0.001, 0.001),
            "c": metrics_for("c", 0.05, 5.0, 5.5),
            "d": metrics_for("d", 1.5, 4.0, 0.012),
            "e": metrics_for("e", 0.05, 5.0, 0.011),
        }
        ok = emit_report(metrics, RunConfig(), path)
        text = path.read_text()
        assert ok
        for name in ("cl_benefit", "gp_vs_disturbed", "mismatch_absorbed"):
            assert f"check name={name}" in text
        assert "summary all_checks_pass=yes" in text

    def test_failed_ordering_reported(self, tmp_path):
        path = tmp_path / "r.txt"
        metrics = {
            "a": metrics_for("a", 0.01, 0.01, 0.01),  # better than b: check must fail
            "b": metrics_for("b", 0.05, 0.05, 0.05),
        }
        ok = emit_report(metrics, RunConfig(cases=("a", "b")), path)
        assert not ok
        assert "pass=no" in path.read_text()

    def test_config_echo(self, tmp_path):
        path = tmp_path / "r.txt"
        cfg = RunConfig(cases=("a",), seed=9, gamma_w=2.5)
        emit_report({"a": metrics_for("a", 1.0, 1.0, 1.0)}, cfg, path)
        text = path.read_text()
        assert "config seed=9" in text
        assert "config gamma_w=2.5" in text
        assert "config gains=[20.0, 20.0]" in text


class TestMain:
    def test_single_case_smoke(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--cases", "a", "--out", str(out), "--h", "0.01"])
        assert code == 0
        assert (out / "case_a.csv").exists()
        assert (out / "report.txt").exists()
        assert "case" in capsys.readouterr().out

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma_w = -3\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            "gains = [20, 20, 20]",  # three gains on the order-2 plant
            "Q = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]",  # 3x3 Q with two gains
            "cases = a,e\ngp_enabled = false",  # case e defines gp_enabled = true
            "h = 25",  # round(t1 / h) == 0 leaves stage 1 without rows
        ],
    )
    def test_inconsistent_config_exits_2_before_any_case(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"cases = a\nh = 0.01\n{text}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text",
        [
            "gains = [-1, -1]",  # closed-loop poles in the right half-plane
            "Q = [[1, 2], [0, 1]]",  # not symmetric
        ],
    )
    def test_unsolvable_matrix_equation_exits_2_before_any_case(self, tmp_path, capsys, text):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"cases = a\nh = 0.01\n{text}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("cases = a\nseed = -1\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o1")]) == 2
        assert main(["--cases", "a", "--seed", "-1", "--out", str(tmp_path / "o2")]) == 2
        assert not (tmp_path / "o1").exists() and not (tmp_path / "o2").exists()

    @pytest.mark.parametrize(
        "text", ["gamma_w = NaN", "m = Infinity", "h = -Infinity", "rho = NaN"]
    )
    def test_non_finite_config_value_exits_2(self, tmp_path, capsys, text):
        """NaN and Infinity parse as JSON numbers; they are config errors,
        not failures in the middle of a run."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"cases = a\nh = 0.01\n{text}\n")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert "finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_step_on_command_line_exits_2(self, tmp_path, capsys, h):
        out = tmp_path / "o"
        assert main(["--cases", "a", "--h", h, "--out", str(out)]) == 2
        assert "h must be a positive finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_case_failing_mid_run_exits_1_without_report(self, tmp_path, capsys):
        """At h = 0.05 case a runs to the end and case b's state escapes in
        stage 1: the finished trace stays, and no report is written."""
        cfg = tmp_path / "c.cfg"
        cfg.write_text("cases = a,b\nh = 0.05\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 1
        assert "case b failed: state left" in capsys.readouterr().err
        assert (out / "case_a.csv").exists()
        assert not (out / "case_b.csv").exists()
        assert not (out / "report.txt").exists()

    def test_cli_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("cases = a,b\nh = 0.01\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--cases", "a", "--out", str(out)])
        assert code == 0
        assert not (out / "case_b.csv").exists()
        assert "config cases=[\"a\"]" in (out / "report.txt").read_text()
