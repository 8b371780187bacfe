"""Cloud files, synthetic generators, and the command-line pipeline."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wqisa import (ParseError, PointCloud, gen_synthetic, load_cloud,
                   save_cloud, variable_noise_scale)
from wqisa.cli import load_model, main

from _oracles import line_parse_cloud

# Tokens that float() and numpy's reader read alike (no underscores, no
# non-ASCII digits), and tokens neither accepts or that are not finite.
GOOD_TOKENS = st.floats(allow_nan=False, allow_infinity=False).map(repr) | st.sampled_from(
    ["0", "-0", "+1.5", ".5", "5.", "1e5", "1E-3", "-2.5e+10", "4.9e-324", "2.5e-324"])
BAD_TOKENS = st.sampled_from(
    ["foo", "1.2.3", "0x10", "--1", "1e", "e5", ".", "", "nan", "-inf", "Infinity", "1e400"])


@st.composite
def cloud_texts(draw):
    """Cloud file text with one separator style per file: comment, blank
    and whitespace-only lines, leading and trailing blanks, ragged rows and
    bad tokens, LF or CRLF."""
    sep = draw(st.sampled_from([" ", "\t", "  \t", ",", ", ", " ,\t"]))
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 5 + ["ragged", "bad", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", " \t ", "\t"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# header", "  # indented, with comma", "#"])))
        else:
            w = draw(st.integers(1, 5)) if kind == "ragged" else width
            toks = draw(st.lists(GOOD_TOKENS, min_size=w, max_size=w))
            if kind == "bad":
                toks[draw(st.integers(0, w - 1))] = draw(BAD_TOKENS)
            lines.append(draw(st.sampled_from(["", " ", "\t"])) + sep.join(toks)
                         + draw(st.sampled_from(["", " ", "\t", " # c, d", "#x"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestCloudFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(-5, 5, (40, 2)),
                           rng.standard_normal(40) * 1e-7)
        for fmt in ("xyz", "csv"):
            path = tmp_path / f"c.{fmt}"
            save_cloud(cloud, path, format=fmt)
            back = load_cloud(path)
            assert np.array_equal(back.x, cloud.x)
            assert np.array_equal(back.y, cloud.y)

    def test_comments_blanks_and_separators(self, tmp_path):
        path = tmp_path / "mixed.txt"
        path.write_text(
            "# a header comment\n"
            "\n"
            "0.5 1.5  2.5\n"
            "1.0 2.0 3.0 # trailing comment\n")
        cloud = load_cloud(path)
        assert cloud.n == 2 and cloud.d == 2
        assert np.array_equal(cloud.y, [2.5, 3.0])

        csv = tmp_path / "c.csv"
        csv.write_text("0.5, 1.5, 2.5\n1.0,2.0,3.0\n")
        other = load_cloud(csv)
        assert np.array_equal(other.records, cloud.records)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("1.0 2.0\n2.0 3.0\nfoo bar\n")
        with pytest.raises(ParseError) as exc:
            load_cloud(path)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_inconsistent_columns_rejected(self, tmp_path):
        path = tmp_path / "ragged.xyz"
        path.write_text("1.0 2.0\n1.0 2.0 3.0\n")
        with pytest.raises(ParseError) as exc:
            load_cloud(path)
        assert exc.value.line == 2

    def test_single_column_rejected(self, tmp_path):
        path = tmp_path / "thin.xyz"
        path.write_text("1.0\n")
        with pytest.raises(ParseError, match="2 columns"):
            load_cloud(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.xyz"
        path.write_text("# nothing here\n")
        with pytest.raises(ParseError, match="no data"):
            load_cloud(path)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_cloud(tmp_path / "x", format="parquet")

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_its_line(self, tmp_path, token):
        path = tmp_path / "nan.xyz"
        path.write_text(f"1.0 2.0\n# note\n0.5 {token}\n3.0 4.0\n")
        with pytest.raises(ParseError, match="non-finite") as exc:
            load_cloud(path)
        assert exc.value.line == 3

    @pytest.mark.parametrize("text, line", [
        ("1.0 2.0\n3.0 4.0\n5.0,6.0\n", 3),
        ("1.0,2.0\n\n3.0 4.0\n", 3),
        ("# x, y\n1.0 2.0\n3.0, 4.0\n", 3),
    ])
    def test_separator_is_chosen_once_per_file(self, tmp_path, text, line):
        path = tmp_path / "mixed.txt"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            load_cloud(path)
        assert exc.value.line == line

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff12.5"])
    def test_tokens_outside_ascii_decimal_syntax_rejected(self, tmp_path, token):
        path = tmp_path / "odd.xyz"
        path.write_text(f"1.0 2.0\n{token} 2.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match="cannot parse") as exc:
            load_cloud(path)
        assert exc.value.line == 2

    def test_csv_skips_whitespace_only_and_indented_comment_lines(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1,2\n   \n  # indented\n\t\n3, 4 # tail\n")
        assert np.array_equal(load_cloud(path).records, [[1.0, 2.0], [3.0, 4.0]])

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 3]), st.integers(1, 12), st.data())
    @example(1, 4, None)
    def test_save_then_load_is_bit_exact(self, tmp_path_factory, d, n, data):
        extremes = [5e-324, -2.2250738585072e-308, 1e-310, 1e308, -1e308, -0.0]
        if data is None:  # subnormals, +-1e308 and -0.0 in every column
            rec = np.resize(extremes, (n, d + 1))
        else:
            value = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(extremes)
            rec = np.array(data.draw(st.lists(st.lists(value, min_size=d + 1, max_size=d + 1),
                                              min_size=n, max_size=n)))
        cloud = PointCloud(rec[:, :-1], rec[:, -1])
        for fmt in ("xyz", "csv"):
            path = tmp_path_factory.getbasetemp() / f"round.{fmt}"
            save_cloud(cloud, path, format=fmt)
            assert same_bits(load_cloud(path).records, cloud.records)

    @settings(max_examples=300, deadline=None)
    @given(cloud_texts(), st.sampled_from(["auto", "auto", "xyz", "csv"]))
    def test_matches_line_by_line_reader(self, tmp_path_factory, text, fmt):
        path = tmp_path_factory.getbasetemp() / "cloud.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = line_parse_cloud(path, fmt)
        except ParseError as err:
            with pytest.raises(ParseError) as exc:
                load_cloud(path, fmt)
            assert exc.value.line == err.line
        else:
            assert same_bits(load_cloud(path, fmt).records, want)

    def test_parse_memory_stays_small(self, tmp_path):
        rng = np.random.default_rng(4)
        cloud = PointCloud(rng.uniform(-1, 1, (20000, 2)), rng.standard_normal(20000))
        path = tmp_path / "big.xyz"
        save_cloud(cloud, path)
        tracemalloc.start()
        try:
            back = load_cloud(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_bits(back.records, cloud.records)
        assert peak < 2_000_000, f"load_cloud peaked at {peak} bytes"


class TestGenerators:
    def test_same_seed_same_cloud(self):
        a = gen_synthetic("sine", 100, seed=7)
        b = gen_synthetic("sine", 100, seed=7)
        assert np.array_equal(a.cloud.records, b.cloud.records)
        c = gen_synthetic("sine", 100, seed=8)
        assert not np.array_equal(a.cloud.y, c.cloud.y)

    def test_sine_truth_and_noise_level(self):
        data = gen_synthetic("sine", 20000, seed=1, sigma=0.25)
        res = data.cloud.y - data.truth(data.cloud.x[:, 0])
        assert abs(res.std() - 0.25) < 0.01
        assert abs(res.mean()) < 0.01
        assert data.cloud.x.min() >= -2 and data.cloud.x.max() <= 2

    def test_outliers_replace_expected_fraction(self):
        data = gen_synthetic("sine_outliers", 400, seed=2,
                             outlier_fraction=0.05, outlier_magnitude=10.0)
        mask = data.outlier_mask
        assert mask.sum() == round(0.05 * 400)
        assert np.all(np.abs(data.cloud.y[mask]) == 10.0)
        assert np.abs(data.cloud.y[~mask]).max() < 10.0

    def test_variable_noise_scale_formula(self):
        # s(x) = exp(-1 / (4 (1 + exp(4x - 2)))), frozen spot values.
        assert variable_noise_scale(0.0) == pytest.approx(0.8023588963795882,
                                                          abs=1e-15)
        assert variable_noise_scale(1.0) == pytest.approx(0.9706389330080559,
                                                          abs=1e-15)
        # The scale drifts upward with x and stays within (exp(-1/4), 1).
        xs = np.linspace(-2, 2, 101)
        s = variable_noise_scale(xs)
        assert np.all(np.diff(s) > 0)
        assert np.all(s > math.exp(-0.25)) and np.all(s < 1.0)

    def test_variable_noise_cloud_heteroscedastic(self):
        data = gen_synthetic("variable_noise", 40000, seed=3)
        x = data.cloud.x[:, 0]
        res = data.cloud.y - data.truth(x)
        left = res[x < -1.0]
        right = res[x > 1.0]
        assert left.std() < right.std()
        assert abs(right.std() - variable_noise_scale(1.5)) < 0.03

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="kind"):
            gen_synthetic("cosine", 10)
        with pytest.raises(ValueError, match="n >= 1"):
            gen_synthetic("sine", 0)
        with pytest.raises(ValueError, match="x_low"):
            gen_synthetic("sine", 10, x_low=2.0, x_high=-2.0)
        with pytest.raises(ValueError, match="fraction"):
            gen_synthetic("sine_outliers", 10, outlier_fraction=1.5)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCliPipeline:
    def test_gen_fit_eval_round_trip(self, tmp_path, capsys):
        cloud_path = tmp_path / "cloud.xyz"
        code, info = run_cli(capsys, "gen", "--kind", "sine", "--count", "200",
                             "--seed", "3", "--out", str(cloud_path))
        assert code == 0 and info["written"] == str(cloud_path)

        code, report = run_cli(capsys, "fit", "--data", str(cloud_path),
                               "--n", "12", "--weight", "knn:k=9",
                               "--policy", "nearest", "--out", str(tmp_path))
        assert code == 0
        assert set(report) == {"config", "error_report", "bounds",
                               "shape_flags", "timings", "effective_count"}
        assert report["config"]["n"] == [12]
        assert report["config"]["weight"] == "knn:k=9"
        assert report["bounds"]["verified"] is True
        assert report["effective_count"] > 0
        assert "fit_s" in report["timings"]
        assert "mse" in report["error_report"]
        assert "axis_0" in report["shape_flags"]

        model_path = tmp_path / "model.json"
        assert model_path.exists() and (tmp_path / "report.json").exists()

        grid_path = tmp_path / "grid.csv"
        code, ev = run_cli(capsys, "eval", "--model", str(model_path),
                           "--data", str(cloud_path), "--density", "40",
                           "--sigma-eps", "0.3", "--out", str(grid_path))
        assert code == 0 and ev["rows"] == 40
        assert ev["sigma_source"] == "user"
        lines = grid_path.read_text().splitlines()
        assert lines[0] == "u_1,f,var,lo,hi"
        assert len(lines) == 41
        row = [float(v) for v in lines[5].split(",")]
        assert row[3] <= row[1] <= row[4]  # lo <= f <= hi
        assert row[2] >= 0.0  # variance column

    def test_model_file_round_trips_predictions(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "150", "--seed", "5",
                "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "10",
                "--out", str(tmp_path))
        from wqisa import TensorSplineSpace, WeightSpec, evaluate, fit
        cloud = load_cloud(cloud_path)
        model, sigma = load_model(tmp_path / "model.json")
        space = model.space
        direct = fit(cloud, TensorSplineSpace(space.axes), WeightSpec.knn(10))
        assert np.array_equal(model.spline.coefficients,
                              direct.spline.coefficients)
        us = np.linspace(float(space.domain[0][0]), float(space.domain[1][0]), 50)
        assert np.array_equal(evaluate(model, us), evaluate(direct, us))
        assert model.effective_count == direct.effective_count

    def test_cv_subcommand(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "120", "--seed", "11", "--sigma", "0.2",
                "--out", str(cloud_path))
        code, best = run_cli(capsys, "cv", "--data", str(cloud_path),
                             "--grid", "4:8", "--folds", "3",
                             "--policy", "nearest", "--out", str(tmp_path))
        assert code == 0
        assert 4 <= best["best"] <= 8
        lines = (tmp_path / "cv.csv").read_text().splitlines()
        assert lines[0] == "n,score"
        assert len(lines) == 6
        stored = json.loads((tmp_path / "best.json").read_text())
        assert stored["best"] == best["best"]

    def test_metrics_subcommand_with_model(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "150", "--seed", "13",
                "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "10",
                "--sigma-eps", "0.3", "--out", str(tmp_path))
        out_path = tmp_path / "metrics.json"
        code, rep = run_cli(capsys, "metrics", "--data", str(cloud_path),
                            "--model", str(tmp_path / "model.json"),
                            "--out", str(out_path))
        assert code == 0
        for key in ("error_report", "directed_hausdorff", "jaccard",
                    "band_coverage"):
            assert key in rep
        assert 0.0 <= rep["jaccard"] <= 1.0
        assert rep["directed_hausdorff"] >= 0.0
        assert 0.0 <= rep["band_coverage"] <= 1.0
        assert out_path.exists()

    def test_metrics_subcommand_with_second_cloud(self, tmp_path, capsys):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        run_cli(capsys, "gen", "--count", "80", "--seed", "1", "--out", str(a))
        run_cli(capsys, "gen", "--count", "80", "--seed", "2", "--out", str(b))
        code, rep = run_cli(capsys, "metrics", "--data", str(a),
                            "--data2", str(b))
        assert code == 0
        assert rep["directed_hausdorff"] > 0.0
        assert "error_report" in rep

    def test_demo_subcommand(self, tmp_path, capsys):
        code, rep = run_cli(capsys, "demo", "--count", "100", "--sigma", "0.2",
                            "--grid", "4:8", "--folds", "3",
                            "--policy", "nearest", "--out", str(tmp_path))
        assert code == 0
        assert 4 <= rep["best_n"] <= 8
        assert rep["report"]["config"]["n"] == [rep["best_n"]]
        assert (tmp_path / "grid.csv").exists()
        assert (tmp_path / "model.json").exists()

    def test_failure_prints_error_json_and_exits_nonzero(self, capsys):
        code, payload = run_cli(capsys, "fit")
        assert code == 1
        assert payload["error"]["type"] == "ValueError"
        assert "data" in payload["error"]["message"]

    def test_parse_failure_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.xyz"
        bad.write_text("1.0 2.0\nnope\n")
        code, payload = run_cli(capsys, "fit", "--data", str(bad))
        assert code == 1
        assert payload["error"]["type"] == "ParseError"

    def test_fit_names_the_line_of_a_nan_row(self, tmp_path, capsys):
        bad = tmp_path / "nan.xyz"
        bad.write_text("0.1 1.0\n0.2 nan\n0.3 2.0\n")
        code, payload = run_cli(capsys, "fit", "--data", str(bad))
        assert code == 1
        assert payload["error"]["type"] == "ParseError"
        assert payload["error"]["message"].startswith("line 2:")


class TestModelFiles:
    @pytest.fixture
    def fitted(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "120", "--seed", "19",
                "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "8",
                "--out", str(tmp_path))
        model_path = tmp_path / "model.json"
        return cloud_path, model_path, json.loads(model_path.read_text())

    def test_missing_field_named_with_the_file(self, fitted):
        _, model_path, raw = fitted
        del raw["coefficients"]
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match="'coefficients'") as exc:
            load_model(model_path)
        assert str(model_path) in str(exc.value)

    @pytest.mark.parametrize("field, value, match", [
        ("degrees", [2, 2], "2 degrees for 1 knot vectors"),
        ("weight", "cosine", "unknown weight family"),
        ("coefficients", [0.5] * 3, "coefficient shape"),
        ("policy", {"empty_support": "skip"}, "empty_support"),
    ])
    def test_invalid_field_named_with_the_file(self, fitted, field, value, match):
        _, model_path, raw = fitted
        raw[field] = value
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match=match) as exc:
            load_model(model_path)
        assert str(model_path) in str(exc.value)

    def test_non_finite_coefficient_rejected(self, fitted, tmp_path, capsys):
        cloud_path, model_path, raw = fitted
        raw["coefficients"][3] = float("nan")
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match=r"non-finite coefficient nan at \(3,\)"):
            load_model(model_path)
        grid = tmp_path / "grid.csv"
        code, payload = run_cli(capsys, "eval", "--model", str(model_path),
                                "--data", str(cloud_path), "--sigma-eps", "0.3",
                                "--out", str(grid))
        assert code == 1 and payload["error"]["type"] == "ParseError"
        assert not grid.exists()


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "120", "--seed", "17",
                "--out", str(cloud_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({
            "data": str(cloud_path), "n": [7], "weight": "knn:k=5",
            "out": str(tmp_path)}))
        code, report = run_cli(capsys, "fit", "--config", str(cfg_path),
                               "--n", "9")
        assert code == 0
        assert report["config"]["n"] == [9]          # flag wins
        assert report["config"]["weight"] == "knn:k=5"  # file value kept

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"nn": 7}))
        code, payload = run_cli(capsys, "fit", "--config", str(cfg_path))
        assert code == 1
        assert "unknown config keys" in payload["error"]["message"]
