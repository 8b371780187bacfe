"""Cloud files, synthetic generators, and the command-line pipeline."""

import argparse
import ast
import base64
import contextlib
import dataclasses
import gzip
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wqisa import (FitConfig, ParseError, PointCloud, TensorSplineSpace, WeightSpec, fit,
                   gen_synthetic, load_cloud, save_cloud, variable_noise_scale)
import wqisa
from wqisa import cli, kdtree, splines
from wqisa.cli import _read_model, build_parser, main
from wqisa.fitting import weight_blocks
from wqisa.inference import _BandBuilder

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


def through_fifo(fifo, data: bytes, call):
    """call(fifo) on a new FIFO into which data is written once, from another
    thread: what it returns or raises. A call that opens the pipe a second
    time would wait there for a writer: it is handed an empty one."""
    os.mkfifo(fifo)
    got = []

    def run():
        try:
            got.append(call(fifo))
        except Exception as exc:  # returned, for the test to check
            got.append(exc)

    reader = threading.Thread(target=run, daemon=True)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    reader.start()
    writer.start()
    reader.join(timeout=10)
    if reader.is_alive():
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    assert not reader.is_alive() and got, f"{call} did not return from the pipe"
    return got[0]


class TestCloudFiles:
    def test_round_trip_is_bit_exact(self, tmp_path):
        # the separator is read off the name on saving and off the file on loading
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(-5, 5, (40, 2)),
                           rng.standard_normal(40) * 1e-7)
        for name, sep in [("c.csv", ","), ("c.xyz", " "), ("c.txt", " "), ("c.csv.txt", " ")]:
            path = tmp_path / name
            save_cloud(cloud, path)
            assert path.read_text().splitlines()[0].count(sep) == 2
            assert ("," in path.read_text()) == (sep == ","), name
            assert same_bits(load_cloud(path).records, cloud.records)

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

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_text_cloud_with_a_compression_suffix_loads_as_text(self, tmp_path, suffix):
        # numpy would decompress a path with such a suffix
        rng = np.random.default_rng(6)
        plain = tmp_path / "cloud.xyz"
        save_cloud(PointCloud(rng.uniform(-1, 1, (300, 2)), rng.standard_normal(300)), plain)
        named = tmp_path / f"cloud.xyz{suffix}"
        named.write_bytes(plain.read_bytes())
        assert same_bits(load_cloud(named).records, load_cloud(plain).records)

    def test_cloud_from_a_pipe_loads(self, tmp_path):
        # a pipe cannot be opened again from its start
        rng = np.random.default_rng(7)
        plain = tmp_path / "cloud.xyz"
        save_cloud(PointCloud(rng.uniform(-1, 1, (3000, 2)), rng.standard_normal(3000)), plain)
        got = through_fifo(tmp_path / "cloud.fifo", plain.read_bytes(), load_cloud)
        assert same_bits(got.records, load_cloud(plain).records)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    @pytest.mark.parametrize("sep", [" ", ","])
    def test_pipe_keeps_universal_newlines(self, tmp_path, newline, sep):
        raw = f"# x{sep} y\n\n0.5{sep}1.5{sep}2.5\n-1e-300{sep}2{sep}3 # c\n".replace(
            "\n", newline).encode()
        path = tmp_path / "cloud.txt"
        path.write_bytes(raw)
        got = through_fifo(tmp_path / "cloud.fifo", raw, load_cloud)
        assert same_bits(got.records, load_cloud(path).records)
        assert same_bits(got.records, np.array([[0.5, 1.5, 2.5], [-1e-300, 2.0, 3.0]]))

    def test_bad_last_line_of_a_pipe_is_named(self, tmp_path):
        # a pipe cannot be read again to find the line: its bytes are kept
        text = "# header\n\n" + "0.5 1.5 2.5\n" * 298 + "0.5 1.5"
        err = through_fifo(tmp_path / "cloud.fifo", text.encode(), load_cloud)
        assert isinstance(err, ParseError) and err.line == 301, err
        assert "expected 3 columns, got 2" in str(err)

    def test_bad_last_line_of_a_long_file_is_named(self, tmp_path):
        path = tmp_path / "long.xyz"
        path.write_text("0.5 1.5 2.5\n" * 9999 + "0.5 1.5 oops\n")
        with pytest.raises(ParseError, match="oops") as exc:
            load_cloud(path)
        assert exc.value.line == 10000

    @pytest.mark.parametrize("raw, line", [
        (gzip.compress(b"1 2\n3 4\n"), 1),
        (b"1 2\n3 4\n5 6\xff\n7 8\n", 3),
        (b"1,2\n3,4\n\xff5,6\n", 3),
        (b"1 2\n3 4\n5 6\n7 8\xff", 4),
        (b"1,2\n# caf\xe9\n3,4 # \xe9t\xe9\n", 2),
        (b"# caf\xe9\n1,2\n3,4\n", 1),
        (b"\n# caf\xe9\n1 2\n3 4\n", 2),
        (b"1,2\n3,4\n5,6\xff", 3),
        (b"1 2\n# caf\xe9\n", 2),
        (b"# caf\xe9\n", 1),
    ], ids=["gzip", "line-3", "csv-line-3", "last-line", "comment", "csv-leading-comment",
            "leading-comment", "csv-last-line", "trailing-comment", "comment-only"])
    @pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, raw, line, piped):
        path = tmp_path / "cloud.xyz"
        path.write_bytes(raw)
        if piped:
            err = through_fifo(tmp_path / "cloud.fifo", raw, load_cloud)
        else:
            with pytest.raises(ParseError) as exc:
                load_cloud(path)
            err = exc.value
        assert isinstance(err, ParseError) and err.line == line, err
        assert str(err) == f"line {line}: holds bytes that are not UTF-8"

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
            save_cloud(cloud, path)
            assert same_bits(load_cloud(path).records, cloud.records)

    @settings(max_examples=300, deadline=None)
    @given(cloud_texts())
    def test_matches_line_by_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "cloud.txt"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = line_parse_cloud(path)
        except ParseError as err:
            with pytest.raises(ParseError) as exc:
                load_cloud(path)
            assert exc.value.line == err.line
        else:
            assert same_bits(load_cloud(path).records, want)

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

    def test_piped_parse_memory_stays_small(self, tmp_path):
        # a pipe's bytes are kept once, not as one object per line: at this
        # size the line objects alone took more than the file's bytes
        rng = np.random.default_rng(4)
        path = tmp_path / "big.xyz"
        save_cloud(PointCloud(rng.uniform(-1, 1, (20000, 2)), rng.standard_normal(20000)), path)
        raw = path.read_bytes()

        def traced(fifo):
            tracemalloc.start()
            try:
                return load_cloud(fifo), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        back, peak = through_fifo(tmp_path / "cloud.fifo", raw, traced)
        assert same_bits(back.records, load_cloud(path).records)
        assert peak < 2.5 * len(raw), f"load_cloud peaked at {peak} bytes for {len(raw)}"


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
        mask = np.abs(data.cloud.y) == 10.0
        assert mask.sum() == round(0.05 * 400)
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
        with pytest.raises(ValueError, match="fraction"):
            gen_synthetic("sine_outliers", 10, outlier_fraction=1.5)


NO_SIGMA = "no sigma_eps is given or stored, so it is estimated from the fitted rows"
NO_BAND = "the model stores no covariance band, so it is built from the fitted rows"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_piped(capsys, fifo, data: bytes, *argv):
    """run_cli with --data a FIFO that carries data once."""
    code = through_fifo(fifo, data, lambda path: main([*argv, "--data", str(path)]))
    return code, json.loads(capsys.readouterr().out)


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
        model, sigma = _read_model(tmp_path / "model.json")[:2]
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

    def test_fit_report_is_finite_near_the_float_limit(self, tmp_path, capsys):
        # residuals of about 1e307 square past the float range and the
        # responses span more than it: the report measures in their
        # gap_unit, and only mse reads inf, without a warning
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, 200)
        path = tmp_path / "limit.xyz"
        save_cloud(PointCloud(x, 1.2e308 * np.sin(x) + 1e307 * rng.standard_normal(200)), path)
        got = {}
        for mode in ("none", "range"):
            code, rep = run_cli(capsys, "fit", "--data", str(path), "--n", "8", "--weight",
                                "knn:k=5", "--normalize", mode, "--out", str(tmp_path / mode))
            assert code == 0, rep
            got[mode] = rep["error_report"]
        assert all(math.isfinite(got["none"][key]) for key in ("rmse", "mae", "std")), got
        assert got["none"]["mse"] == math.inf and got["range"]["rmse"] > 0.0

    def test_shape_flags_of_responses_near_the_float_limit(self, tmp_path, capsys):
        # y = +-1.5e308 |sin 5x|: the coefficients' slopes pass the float
        # range; the flags are the exact ones, with no warning
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 200)
        y = np.where(rng.random(200) < 0.5, -1.0, 1.0) * 1.5e308 * np.abs(np.sin(5 * x))
        path = tmp_path / "limit.xyz"
        save_cloud(PointCloud(x, y), path)
        code, rep = run_cli(capsys, "fit", "--data", str(path), "--n", "8", "--weight",
                            "knn:k=5", "--out", str(tmp_path))
        assert code == 0, rep
        raw = json.loads((tmp_path / "model.json").read_text())
        c, t = ([Fraction(v) for v in values] for values in (raw["coefficients"], raw["knots"][0]))
        slopes = [(c[j] - c[j - 1]) / (t[j + 2] - t[j]) for j in range(1, len(c))]

        def trend(v):
            steps = [b - a for a, b in zip(v, v[1:])]
            return "increasing" if min(steps) >= 0 else "decreasing" if max(steps) <= 0 else "neither"

        assert max(abs(s) for s in slopes) > sys.float_info.max
        flags = rep["shape_flags"]["axis_0"]
        assert (flags["monotone"], flags["convexity"]) == (trend(c), {
            "increasing": "convex", "decreasing": "concave"}.get(trend(slopes), "neither"))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(-1000, 1000).map(lambda e: 2.0**e) | st.just(1e-20))
    @example(1e-20)
    def test_shape_flags_do_not_depend_on_the_response_scale(self, scale):
        # the flags of y = sin 3x + noise read "neither"; a tolerance with an
        # absolute floor read y * 1e-20 as increasing, constant and affine
        rng = np.random.default_rng(23)
        x = rng.uniform(-1, 1, 300)
        y = np.sin(3 * x) + 0.2 * rng.standard_normal(300)
        space = TensorSplineSpace.from_bounds([x.min()], [x.max()], [8], [2])
        flags = [cli._shape_flags(fit(PointCloud(x, v), space, WeightSpec.knn(9)))
                 for v in (y, y * scale)]
        assert flags[0]["axis_0"]["monotone"] == flags[0]["axis_0"]["convexity"] == "neither"
        assert flags[1] == flags[0]

    @pytest.mark.parametrize("weight", [WeightSpec.gaussian(0.3), WeightSpec.characteristic(0.4)])
    def test_shape_flags_of_responses_constant_up_to_one_ulp(self, weight):
        # y is 0.3 or 0.1 + 0.2: the coefficients differ by an ulp, in each
        # window's own summation order, and the flags read constant and affine
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 300)
        y = np.where(rng.random(300) < 0.5, 0.3, 0.1 + 0.2)
        model = fit(PointCloud(x, y), TensorSplineSpace.from_bounds([-1], [1], [8], [2]), weight)
        assert len(set(model.spline.coefficients.tolist())) > 1
        assert cli._shape_flags(model) == {"axis_0": {
            "monotone": "increasing", "constant": True, "convexity": "convex", "affine": True}}

    def test_eval_band_of_a_sigma_whose_square_overflows(self, tmp_path, capsys):
        # responses of +-1e200: sigma, estimated or given, is finite and its
        # square is not, so every var reads inf while the band stays finite
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 200)
        path = tmp_path / "big.xyz"
        save_cloud(PointCloud(x, np.where(rng.random(200) < 0.5, -1e200, 1e200)), path)
        code, rep = run_cli(capsys, "fit", "--data", str(path), "--n", "8",
                            "--weight", "knn:k=5", "--out", str(tmp_path))
        assert code == 0 and 1e199 < rep["error_report"]["std"] < 1e201, rep
        for sigma in ([], ["--sigma-eps", "1e200"]):
            code, rep = run_cli(capsys, "eval", "--data", str(path), "--model",
                                str(tmp_path / "model.json"), *sigma,
                                "--out", str(tmp_path / "grid.csv"))
            assert code == 0 and 1e199 < rep["sigma_eps"] < 1e201, rep
            f, var, lo, hi = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1).T[1:]
            assert (var == math.inf).all() and np.isfinite(lo).all() and np.isfinite(hi).all()
            assert (lo < f).all() and (f < hi).all()

    def test_demo_subcommand(self, tmp_path, capsys):
        code, rep = run_cli(capsys, "demo", "--count", "100", "--sigma", "0.2",
                            "--grid", "4:8", "--folds", "3",
                            "--policy", "nearest", "--out", str(tmp_path))
        assert code == 0
        assert 4 <= rep["best_n"] <= 8
        assert rep["report"]["config"]["n"] == [rep["best_n"]]
        assert (tmp_path / "grid.csv").exists()
        assert (tmp_path / "model.json").exists()

    def test_demo_cross_validates_5_to_50_by_default(self, tmp_path, capsys):
        code, rep = run_cli(capsys, "demo", "--count", "120", "--folds", "3",
                            "--policy", "nearest", "--out", str(tmp_path))
        rows = (tmp_path / "cv.csv").read_text().splitlines()[1:]
        assert code == 0 and [int(r.split(",")[0]) for r in rows] == list(range(5, 51))
        assert rep["report"]["config"]["cv_grid"] == list(range(5, 51))

    @pytest.mark.parametrize("argv, message", [
        (["cv"], "cv needs --grid lo:hi or a cv_grid config entry"),
        (["metrics"], "metrics needs --model or --data2"),
    ])
    def test_command_without_its_input_names_it(self, tmp_path, capsys, argv, message):
        code, payload = run_cli(capsys, *argv, "--data", str(tmp_path / "missing.xyz"))
        assert code == 1 and payload["error"] == {"type": "ValueError", "message": message}

    def test_demo_reads_the_grid_of_a_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"cv_grid": [6, 7]}))
        code, rep = run_cli(capsys, "demo", "--config", str(cfg_path), "--count", "100",
                            "--folds", "3", "--policy", "nearest", "--out", str(tmp_path))
        assert code == 0 and rep["best_n"] in (6, 7)
        assert len((tmp_path / "cv.csv").read_text().splitlines()) == 3
        assert rep["report"]["config"]["cv_grid"] == [6, 7]

    @pytest.mark.parametrize("flag, grid", [("6,9,12", [6, 9, 12]), ("4:8", [4, 5, 6, 7, 8])])
    def test_grid_flag_and_config_key_agree(self, tmp_path, capsys, flag, grid):
        for command in ("cv", "demo"):
            assert build_parser().parse_args([command, "--grid", flag]).cv_grid == grid
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "90", "--seed", "4", "--out", str(cloud_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"cv_grid": grid}))
        for source, out in ((["--grid", flag], "flag"), (["--config", str(cfg_path)], "key")):
            code, _ = run_cli(capsys, "cv", "--data", str(cloud_path), "--folds", "3",
                              "--policy", "nearest", "--out", str(tmp_path / out), *source)
            assert code == 0
        curve = (tmp_path / "key" / "cv.csv").read_text()
        assert curve == (tmp_path / "flag" / "cv.csv").read_text()
        assert [int(line.split(",")[0]) for line in curve.splitlines()[1:]] == grid

    @pytest.mark.parametrize("command", ["cv", "demo"])
    def test_an_empty_grid_is_named_before_any_cloud_loads(self, tmp_path, capsys, command):
        missing = ["--data", str(tmp_path / "missing.xyz")] if command == "cv" else []
        code, payload = run_cli(capsys, command, "--grid", "5:4", *missing,
                                "--out", str(tmp_path / "flag"))
        assert code == 1 and payload["error"]["message"] == "cv_grid must be nonempty, got []"
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"cv_grid": []}))
        code, payload = run_cli(capsys, command, "--config", str(cfg_path), *missing,
                                "--out", str(tmp_path / "key"))
        assert code == 1 and payload["error"]["message"] == (
            f"{cfg_path}: cv_grid must be nonempty, got []")
        assert not (tmp_path / "flag").exists() and not (tmp_path / "key").exists()

    @pytest.mark.parametrize("flags, raw, message", [
        (["--degree", "2,2,2"], {}, "degree needs 1 entry or one per axis of the 1-D cloud, got 3"),
        ([], {"domain": [[0, 3, 9]]}, "domain needs one [lo, hi] pair per axis of the 1-D cloud"),
    ])
    def test_cv_names_a_bad_per_axis_list(self, tmp_path, capsys, flags, raw, message):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "60", "--out", str(cloud_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(raw))
        code, payload = run_cli(capsys, "cv", "--config", str(cfg_path), *flags, "--grid", "5:7",
                                "--data", str(cloud_path), "--out", str(tmp_path / "cv"))
        assert code == 1 and payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(message)
        assert not (tmp_path / "cv").exists()

    @pytest.mark.parametrize("command", ["fit", "cv"])
    def test_a_cloud_without_extent_on_an_axis_is_named(self, tmp_path, capsys, command):
        # the cloud's bounding box is flat on axis 1: the error names the
        # cloud and the axis, and a config's domain gives the box extent
        x = np.random.default_rng(4).uniform(-1, 1, 50).tolist()
        cloud_path = tmp_path / "flat.xyz"
        cloud_path.write_text("".join(f"{a!r} 0.5 {math.sin(a)!r}\n" for a in x))
        flags = ["--data", str(cloud_path), "--weight", "knn:k=5"]
        flags += ["--grid", "5:6"] if command == "cv" else []
        code, payload = run_cli(capsys, command, *flags, "--out", str(tmp_path / "flat"))
        assert code == 1 and payload["error"] == {
            "type": "DomainError",
            "message": f"{cloud_path}: the cloud has no extent on axis 1; "
                       'a "domain" in a config sets the box'}
        cfg_path = tmp_path / "box.json"
        cfg_path.write_text(json.dumps({"domain": [[-1, 1], [0, 1]]}))
        code, _ = run_cli(capsys, command, "--config", str(cfg_path), *flags,
                          "--out", str(tmp_path / "box"))
        assert code == 0

    @pytest.mark.parametrize("domain, message", [
        ([-math.inf, 1.0], "axis 0: [-inf, 1.0] has width b - a = inf, not a finite float"),
        ([-1e308, 1e308], "axis 0: [-1e+308, 1e+308] has width b - a = inf, not a finite float"),
    ], ids=["infinite-end", "width-overflows"])
    def test_a_domain_without_a_finite_width_is_named(self, tmp_path, capsys, domain, message):
        # the first once warned in numpy and then failed on knot multiplicity,
        # the second failed as "too narrow", printing np.float64(...)
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "60", "--out", str(cloud_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"domain": [domain]}))
        code, payload = run_cli(capsys, "fit", "--config", str(cfg_path),
                                "--data", str(cloud_path), "--out", str(tmp_path / "fit"))
        assert code == 1 and payload["error"] == {"type": "DomainError", "message": message}
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("command, extra", [
        ("eval", ["--density", "4", "--out"]),
        ("metrics", ["--out"]),
        ("metrics", ["--sigma-eps", "0.3", "--out"]),
    ], ids=["eval", "metrics", "metrics-with-sigma"])
    def test_a_cloud_of_another_dimension_is_named(self, tmp_path, capsys, command, extra):
        # a 1-D cloud was clipped against the 2-D model's box and broadcast
        # into two columns, and eval then blamed the weighted means
        plane, line = tmp_path / "plane.xyz", tmp_path / "line.xyz"
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (300, 2))
        plane.write_text("".join(f"{a!r} {b!r} {math.sin(3 * a) * b!r}\n" for a, b in x.tolist()))
        run_cli(capsys, "gen", "--count", "200", "--out", str(line))
        code, _ = run_cli(capsys, "fit", "--data", str(plane), "--n", "6", "--weight", "knn:k=5",
                          "--out", str(tmp_path / "fit"))
        assert code == 0
        code, payload = run_cli(capsys, command, "--model", str(tmp_path / "fit" / "model.json"),
                                "--data", str(line), *extra, str(tmp_path / "out"))
        assert code == 1 and payload["error"] == {
            "type": "ValueError", "message": "point dimension 2 != expected dimension 1"}
        assert not (tmp_path / "out").exists()

    def test_cv_candidate_that_cannot_build_fails_alone(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "90", "--seed", "2", "--out", str(cloud_path))
        code, best = run_cli(capsys, "cv", "--data", str(cloud_path), "--grid", "2,5,6",
                             "--folds", "3", "--policy", "nearest", "--out", str(tmp_path))
        assert code == 0 and best["best"] in (5, 6)
        rows = (tmp_path / "cv.csv").read_text().splitlines()[1:]
        assert rows[0] == "2,inf" and all(math.isfinite(float(r.split(",")[1])) for r in rows[1:])

    def test_cv_predicts_rows_outside_a_narrow_domain_at_its_edge(self, tmp_path, capsys):
        from wqisa import FitPolicy, TensorSplineSpace, WeightSpec, kfold_cv, make_folds

        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "300", "--seed", "3", "--out", str(cloud_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({"domain": [[-1.5, 1.5]]}))
        code, best = run_cli(capsys, "cv", "--config", str(cfg_path), "--data", str(cloud_path),
                             "--grid", "5:6", "--weight", "knn:k=9", "--out", str(tmp_path))
        assert code == 0 and best["best"] in (5, 6)
        res = kfold_cv(load_cloud(cloud_path), [5, 6],
                       lambda n: TensorSplineSpace.from_bounds(-1.5, 1.5, n, 2),
                       WeightSpec.knn(9), FitPolicy(), assignments=make_folds(300, 5, 0))
        rows = (tmp_path / "cv.csv").read_text().splitlines()[1:]
        assert rows == [f"{n},{score!r}" for n, score in zip((5, 6), res.scores.tolist())]
        assert np.isfinite(res.scores).all()

    def test_cv_never_names_a_failed_candidate_parsimonious(self, tmp_path, capsys):
        # y ~ 1e100 N(0, 1): fold scores near 1e200, whose squared deviations
        # overflow unless measured in their gap_unit; n = 2 fails (degree 2)
        rng = np.random.default_rng(8)
        cloud_path = tmp_path / "c.xyz"
        cloud_path.write_text("".join(f"{a!r} {b!r}\n" for a, b in zip(
            rng.uniform(-1, 1, 200).tolist(), (1e100 * rng.standard_normal(200)).tolist())))
        code, best = run_cli(capsys, "cv", "--data", str(cloud_path), "--grid", "2:6",
                             "--weight", "knn:k=5", "--out", str(tmp_path))
        assert code == 0
        scores = dict(r.split(",") for r in (tmp_path / "cv.csv").read_text().splitlines()[1:])
        assert scores["2"] == "inf" and math.isfinite(float(scores[str(best["parsimonious"])]))

    def test_outlier_filtered_fit_of_a_near_limit_cloud(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 200)
        y = np.where(rng.random(200) < 0.5, -1.0, 1.0) * 1.5e308 * np.abs(np.sin(5 * x))
        cloud_path = tmp_path / "limit.xyz"
        cloud_path.write_text("".join(f"{a!r} {b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        code, report = run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "8",
                               "--weight", "knn:k=5", "--outlier-filter", "--out", str(tmp_path))
        assert code == 0 and "error" not in report

    def test_cv_where_every_candidate_fails_names_the_first(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "300", "--seed", "3", "--out", str(cloud_path))
        code, payload = run_cli(capsys, "cv", "--data", str(cloud_path), "--grid", "5:6",
                                "--weight", "characteristic:r=0.0001", "--out", str(tmp_path))
        assert code == 1
        assert payload["error"]["message"].startswith(
            "every candidate failed; 5: empty weight support for ")

    def test_eval_and_metrics_use_the_rows_the_fit_kept(self, tmp_path, capsys):
        from wqisa import (NoiseModel, band_coverage, coefficient_covariance, fit,
                           variance_at)
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--kind", "sine_outliers", "--count", "400", "--seed", "7",
                "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "12", "--outlier-filter",
                "--weight", "characteristic:r=0.3", "--sigma-eps", "0.3", "--out", str(tmp_path))
        model_path = tmp_path / "model.json"
        dropped = json.loads(model_path.read_text())["dropped_rows"]
        cloud = load_cloud(cloud_path)
        kept = cloud.subset(np.setdiff1d(np.arange(cloud.n), dropped))
        assert 0 < len(dropped) < cloud.n
        model, _ = _read_model(model_path)[:2]
        space, spec, policy = model.space, model.weight, model.policy
        assert np.array_equal(fit(kept, space, spec, policy).spline.coefficients,
                              model.spline.coefficients)
        cov = coefficient_covariance(kept, space, spec, NoiseModel(0.3), policy)
        grid_path = tmp_path / "grid.csv"
        code, _ = run_cli(capsys, "eval", "--model", str(model_path), "--data", str(cloud_path),
                          "--density", "16", "--out", str(grid_path))
        assert code == 0
        grid = np.loadtxt(grid_path, delimiter=",", skiprows=1)
        assert np.array_equal(grid[:, 2], variance_at(model, cov, grid[:, :1]))
        code, rep = run_cli(capsys, "metrics", "--model", str(model_path),
                            "--data", str(cloud_path), "--sigma-eps", "0.3")
        assert code == 0 and rep["band_coverage"] == band_coverage(cloud, model, cov)

    @pytest.mark.parametrize("command, extra", [
        ("eval", ["--density", "8", "--out"]),
        ("metrics", ["--sigma-eps", "0.3", "--out"]),
    ])
    def test_model_and_another_cloud_fail_naming_both_files(self, tmp_path, capsys,
                                                            command, extra):
        fitted, other = tmp_path / "a.xyz", tmp_path / "b.xyz"
        run_cli(capsys, "gen", "--count", "120", "--seed", "1", "--out", str(fitted))
        run_cli(capsys, "gen", "--count", "120", "--seed", "2", "--out", str(other))
        run_cli(capsys, "fit", "--data", str(fitted), "--n", "8", "--sigma-eps", "0.3",
                "--out", str(tmp_path))
        model_path = tmp_path / "model.json"
        out = tmp_path / "out"
        code, payload = run_cli(capsys, command, "--model", str(model_path),
                                "--data", str(other), *extra, str(out))
        assert code == 1 and payload["error"]["type"] == "ValueError"
        assert str(model_path) in payload["error"]["message"]
        assert str(other) in payload["error"]["message"]
        assert not out.exists()

    def test_eval_without_data_reads_the_stored_band(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "150", "--seed", "6", "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "9", "--out", str(tmp_path))
        model_path = tmp_path / "model.json"
        argv = ["eval", "--model", str(model_path), "--density", "30", "--sigma-eps", "0.3"]
        code, with_data = run_cli(capsys, *argv, "--data", str(cloud_path),
                                  "--out", str(tmp_path / "with.csv"))
        assert code == 0 and with_data["covariance"] == "model"
        code, without = run_cli(capsys, *argv, "--out", str(tmp_path / "without.csv"))
        assert code == 0 and without["covariance"] == "model"
        assert (tmp_path / "with.csv").read_bytes() == (tmp_path / "without.csv").read_bytes()
        # sigma_eps unknown: its residual estimate needs the cloud
        code, payload = run_cli(capsys, "eval", "--model", str(model_path),
                                "--out", str(tmp_path / "estimate.csv"))
        assert code == 1 and payload["error"]["message"] == (
            "eval needs --data (or a config with a data path): " + NO_SIGMA)

    def test_an_edited_data_file_rebuilds_the_covariance(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "150", "--seed", "8", "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "9",
                "--weight", "characteristic:r=0.5", "--sigma-eps", "0.3", "--out", str(tmp_path))
        model_path = tmp_path / "model.json"
        eval_argv = ["eval", "--model", str(model_path), "--data", str(cloud_path), "--out"]
        metrics_argv = ["metrics", "--model", str(model_path), "--data", str(cloud_path)]
        code, ev = run_cli(capsys, *eval_argv, str(tmp_path / "stored.csv"))
        assert code == 0 and ev["covariance"] == "model"
        code, rep = run_cli(capsys, *metrics_argv)
        assert code == 0 and rep["covariance"] == "model"
        with open(cloud_path, "a", encoding="utf-8") as fh:
            fh.write("# the same rows, another file\n")
        code, ev = run_cli(capsys, *eval_argv, str(tmp_path / "rebuilt.csv"))
        assert code == 0 and ev["covariance"] == "data"
        code, again = run_cli(capsys, *metrics_argv)
        assert code == 0 and again["covariance"] == "data"
        assert again["band_coverage"] == rep["band_coverage"]
        assert (tmp_path / "stored.csv").read_bytes() == (tmp_path / "rebuilt.csv").read_bytes()

    def test_piped_fit_stores_its_band_without_a_digest(self, tmp_path, capsys):
        # a pipe cannot be read again to take the digest of its bytes
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "150", "--seed", "10", "--out", str(cloud_path))
        fit_argv = ["fit", "--n", "9", "--weight", "knn:k=9", "--sigma-eps", "0.3", "--out"]
        run_cli(capsys, *fit_argv, str(tmp_path / "file"), "--data", str(cloud_path))
        code, _ = run_piped(capsys, tmp_path / "fit.fifo", cloud_path.read_bytes(),
                            *fit_argv, str(tmp_path / "pipe"))
        raw = json.loads((tmp_path / "pipe" / "model.json").read_text())
        assert code == 0 and "data_blake2b" not in raw
        assert raw["band"] == json.loads((tmp_path / "file" / "model.json").read_text())["band"]
        code, ev = run_piped(capsys, tmp_path / "eval.fifo", cloud_path.read_bytes(), "eval",
                             "--model", str(tmp_path / "pipe" / "model.json"),
                             "--out", str(tmp_path / "grid.csv"))
        assert code == 0 and ev["covariance"] == "data"

    def test_piped_data_is_read_once_and_rebuilds_the_covariance(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "150", "--seed", "10", "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "9", "--weight", "knn:k=9",
                "--sigma-eps", "0.3", "--out", str(tmp_path))
        model = ["--model", str(tmp_path / "model.json")]
        code, ev = run_cli(capsys, "eval", *model, "--data", str(cloud_path),
                           "--out", str(tmp_path / "stored.csv"))
        assert code == 0 and ev["covariance"] == "model"
        code, rep = run_cli(capsys, "metrics", *model, "--data", str(cloud_path))
        assert code == 0 and rep["covariance"] == "model"
        edited = cloud_path.read_bytes() + b"# the same rows, another file\n"
        code, ev = run_piped(capsys, tmp_path / "eval.fifo", edited, "eval", *model,
                             "--out", str(tmp_path / "rebuilt.csv"))
        assert code == 0 and ev["covariance"] == "data", ev
        assert (tmp_path / "stored.csv").read_bytes() == (tmp_path / "rebuilt.csv").read_bytes()
        code, again = run_piped(capsys, tmp_path / "metrics.fifo", edited, "metrics", *model)
        assert code == 0 and again["covariance"] == "data", again
        assert again["band_coverage"] == rep["band_coverage"]

    def test_dense_family_models_store_no_band(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "120", "--seed", "9", "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "8",
                "--weight", "gaussian:sigma=0.3", "--sigma-eps", "0.3", "--out", str(tmp_path))
        raw = json.loads((tmp_path / "model.json").read_text())
        assert raw["format"] == 3 and "band" not in raw and "data_blake2b" not in raw
        argv = ["eval", "--model", str(tmp_path / "model.json"), "--out", str(tmp_path / "g.csv")]
        code, payload = run_cli(capsys, *argv)
        assert code == 1 and payload["error"]["message"] == (
            "eval needs --data (or a config with a data path): " + NO_BAND)
        code, ev = run_cli(capsys, *argv, "--data", str(cloud_path))
        assert code == 0 and ev["covariance"] == "data"

    @pytest.mark.parametrize("kind, flags", [
        ("sine", ["--weight", "knn:k=8"]),
        ("sine_outliers", ["--weight", "characteristic:r=0.3", "--outlier-filter"]),
    ])
    def test_eval_estimates_sigma_from_the_rows_the_fit_kept(self, tmp_path, capsys,
                                                            kind, flags):
        from wqisa import estimate_noise_sigma
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--kind", kind, "--count", "400", "--seed", "7",
                "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "12", *flags,
                "--out", str(tmp_path))
        model_path = tmp_path / "model.json"
        model, stored_sigma = _read_model(model_path)[:2]
        dropped = json.loads(model_path.read_text())["dropped_rows"]
        cloud = load_cloud(cloud_path)
        kept = cloud.subset(np.setdiff1d(np.arange(cloud.n), dropped))
        code, ev = run_cli(capsys, "eval", "--model", str(model_path), "--data", str(cloud_path),
                           "--density", "16", "--out", str(tmp_path / "grid.csv"))
        assert stored_sigma is None and code == 0
        assert ev["sigma_source"] == "residual-estimate" and ev["covariance"] == "model"
        assert ev["sigma_eps"] == estimate_noise_sigma(model, kept).sigma_eps
        assert (ev["sigma_eps"] != estimate_noise_sigma(model, cloud).sigma_eps) == bool(dropped)

    def test_metrics_without_sigma_reports_no_band(self, tmp_path, capsys):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "150", "--seed", "6", "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "9", "--out", str(tmp_path))
        code, rep = run_cli(capsys, "metrics", "--model", str(tmp_path / "model.json"),
                            "--data", str(cloud_path))
        assert code == 0 and "error_report" in rep and "directed_hausdorff" in rep
        assert "band_coverage" not in rep and "covariance" not in rep

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

    @pytest.mark.parametrize("argv, key", [
        (["--weight", "knn:k=9,r=3"], "'r'"),
        (["--weight", "idw:k=3"], "'k'"),
        (["--weight", "gaussian:sigma=nan"], "sigma > 0"),
        (["--weight", "characteristic:r=nan", "--policy", "nearest"], "r > 0"),
        (["--weight", "gaussian:sigma=1e-200", "--policy", "nearest"], "sigma > 0"),
        (["--weight", "gaussian:sigma=1e200"], "sigma > 0"),
    ])
    def test_bad_weight_spec_fails_before_any_output(self, tmp_path, capsys, argv, key):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "60", "--out", str(cloud_path))
        code, payload = run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "6",
                                "--out", str(tmp_path / "fit"), *argv)
        assert code == 1 and payload["error"]["type"] == "ValueError"
        assert key in payload["error"]["message"]
        assert not (tmp_path / "fit" / "model.json").exists()


def tracking_trees(monkeypatch) -> list:
    """Weak references to every KdTree built from now on."""
    built, init = [], kdtree.KdTree.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(kdtree.KdTree, "__init__", tracked)
    return built


def count_live_at(monkeypatch, module, name, built) -> list:
    """Patch module.name to note, on each call, how many tracked trees live."""
    live, call = [], getattr(module, name)

    def noting(*args, **kwargs):
        live.append(sum(ref() is not None for ref in built))
        return call(*args, **kwargs)

    monkeypatch.setattr(module, name, noting)
    return live


class TestWorkingMemory:
    @pytest.mark.parametrize("weight", ["knn:k=9", "characteristic:r=0.3"])
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("narrow", [False, True])
    def test_no_tree_of_the_fit_is_alive_at_the_report(self, tmp_path, capsys, monkeypatch,
                                                        weight, filtered, narrow):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--kind", "sine_outliers", "--count", "300", "--seed", "7",
                "--out", str(cloud_path))
        argv = ["fit", "--data", str(cloud_path), "--n", "10", "--weight", weight,
                "--out", str(tmp_path)] + ["--outlier-filter"] * filtered
        if narrow:  # the fit's tree is the working cloud's
            (tmp_path / "narrow.json").write_text(json.dumps({"domain": [[-1.5, 1.5]]}))
            argv += ["--config", str(tmp_path / "narrow.json")]
        built = tracking_trees(monkeypatch)
        live = count_live_at(monkeypatch, cli, "_report", built)
        code, _ = run_cli(capsys, *argv)
        assert code == 0 and len(built) == 1 + filtered and live == [0]

    @pytest.mark.parametrize("command", ["eval", "metrics"])
    def test_no_tree_of_a_rebuilt_covariance_is_alive_after_it(self, tmp_path, capsys,
                                                                monkeypatch, command):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "300", "--seed", "7", "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "10", "--out", str(tmp_path))
        model_path = tmp_path / "model.json"
        raw = json.loads(model_path.read_text())
        del raw["data_blake2b"]  # the band cannot be trusted: it is rebuilt from --data
        model_path.write_text(json.dumps(raw))
        built = tracking_trees(monkeypatch)
        live = count_live_at(monkeypatch, cli, "spread", built)
        code, out = run_cli(capsys, command, "--model", str(model_path), "--data",
                            str(cloud_path), "--sigma-eps", "0.3", "--out", str(tmp_path / "o"))
        assert code == 0 and out["covariance"] == "data"
        assert len(built) >= 1 and live == [0]

    def test_a_domain_narrower_than_the_cloud_reports_on_clipped_rows(self, tmp_path, capsys):
        from wqisa import dispersion, evaluate
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "300", "--seed", "3", "--out", str(cloud_path))
        (tmp_path / "narrow.json").write_text(json.dumps({"domain": [[-1.5, 1.5]]}))
        code, report = run_cli(capsys, "fit", "--config", str(tmp_path / "narrow.json"),
                               "--data", str(cloud_path), "--n", "10", "--sigma-eps", "0.3",
                               "--out", str(tmp_path))
        assert code == 0
        model = _read_model(tmp_path / "model.json")[0]
        cloud, (lo, hi) = load_cloud(cloud_path), model.space.domain
        assert not cloud.within(lo, hi)
        want = dispersion(cloud.y, evaluate(model, np.clip(cloud.x, lo, hi))).to_dict()
        assert report["error_report"] == {**want, "normalize": "none"}
        code, rep = run_cli(capsys, "metrics", "--model", str(tmp_path / "model.json"),
                            "--data", str(cloud_path), "--sigma-eps", "0.3")
        assert code == 0 and rep["error_report"] == want

    @pytest.mark.parametrize("sigma", [None, "0.3"])
    def test_metrics_windows_each_cloud_row_once(self, tmp_path, capsys, monkeypatch, sigma):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "300", "--seed", "5", "--out", str(cloud_path))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "10", "--out", str(tmp_path))
        rows, windows = [], splines._windows
        monkeypatch.setattr(splines, "_windows", lambda space, pts: rows.append(len(pts))
                            or windows(space, pts))
        code, rep = run_cli(capsys, "metrics", "--model", str(tmp_path / "model.json"),
                            "--data", str(cloud_path), "--density", "40",
                            *(["--sigma-eps", sigma] if sigma else []))
        assert code == 0 and ("band_coverage" in rep) == bool(sigma)
        assert sorted(rows) == [40, 300]  # the cloud's rows, then the grid's

    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 5 * 2**20 + 3])
    def test_digest_is_hashlibs_blake2b(self, tmp_path, size):
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "data.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = cli._digest(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.blake2b(data).hexdigest()
        assert peak < 2**17  # one 64 KiB buffer, whatever the file's size

    def test_digest_of_a_pipe_is_none(self, tmp_path):
        os.mkfifo(tmp_path / "pipe")
        assert cli._digest(tmp_path / "pipe") is None


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

    def test_file_is_one_compact_json_document(self, fitted):
        _, model_path, raw = fitted
        assert model_path.read_text(encoding="utf-8") == json.dumps(raw)

    def test_json_that_is_not_an_object_rejected(self, fitted):
        _, model_path, raw = fitted
        model_path.write_text(json.dumps([raw]))
        with pytest.raises(ParseError, match="not a model object") as exc:
            _read_model(model_path)
        assert str(model_path) in str(exc.value)

    def test_missing_field_named_with_the_file(self, fitted):
        _, model_path, raw = fitted
        del raw["coefficients"]
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match="'coefficients'") as exc:
            _read_model(model_path)
        assert str(model_path) in str(exc.value)

    @pytest.mark.parametrize("field, value, match", [
        ("degrees", [2, 2], "2 degrees for 1 knot vectors"),
        ("weight", "cosine", "unknown weight family"),
        ("coefficients", [0.5] * 3, "coefficient shape"),
        ("policy", {"empty_support": "skip"}, "empty_support"),
        ("weight", "gaussian:sigma=nan", "sigma > 0"),
        ("dropped_rows", ["a"], "invalid literal"),
        ("weight", 5, "weight must be a descriptor string, got 5"),
        ("degrees", [2.0], "axis 0: degree must be an integer, got 2.0"),
        ("degrees", [True], "axis 0: degree must be an integer, got True"),
        ("dropped_rows", [-1], "dropped_rows must be a flat list of integers >= 0"),
        ("policy", {"empty_support": "error", "drop_outside": "no"},
         "drop_outside must be a bool, got 'no'"),
        # numpy would read sigma true as 1.0, and rows 1.5, true and "2" as 1, 1 and 2
        *[("sigma_eps", v, "sigma_eps must be null or a finite number >= 0")
          for v in (True, "abc", [0.3], -0.5, 1e400)],
        *[("dropped_rows", v, "dropped_rows must be a flat list of integers")
          for v in ([1.5], [True], ["2"], [[1]], 3)],
        # the grid has 8 coefficients; these diagonals were once read unchecked
        *[("support_sizes", v, r"support_sizes must be integers >= 1 in a \(8,\) grid")
          for v in ("abc", [[1]], [1] * 7, [[1]] * 8, [1.5] * 8, [True] * 8, [0] * 8, ["3"] * 8)],
        *[("effective_count", v, "effective_count must be an integer >= 0")
          for v in ("lots", True, -1, 2.0, None)],
        *[("fallback_cells", v, r"fallback cell .* is not \[grid index, row >= 0\]")
          for v in ([[[0], "x"]], [[[8], 0]], [[[-1], 0]], [[[0, 0], 0]], [[[True], 0]],
                    [[[0], -1]], [[[0], False]], [[0]], [[[0], 0, 1]], "abc", 3)],
        # a ragged list once failed in numpy's words, a true among ints read
        # as 1, and 2**63 as a uint64
        *[("support_sizes", v, r"support_sizes must be integers >= 1 in a \(8,\) grid")
          for v in ([1] * 7 + [[1, 2]], [[1], [1, 2]], [True] + [3] * 7, [2**63] * 8)],
    ])
    def test_invalid_field_named_with_the_file(self, fitted, field, value, match):
        _, model_path, raw = fitted
        raw[field] = value
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match=match) as exc:
            _read_model(model_path)
        assert str(model_path) in str(exc.value)

    @pytest.mark.parametrize("command, sigma", [("eval", []), ("metrics", ["--sigma-eps", "0.3"])])
    def test_dropped_row_past_the_data_named_with_the_file(self, fitted, capsys, command, sigma):
        # np.setdiff1d would ignore the row and keep every row of the cloud
        cloud_path, model_path, raw = fitted
        raw["dropped_rows"] = [3, 120]
        model_path.write_text(json.dumps(raw))
        code, payload = run_cli(capsys, command, "--model", str(model_path), "--data",
                                str(cloud_path), *sigma)
        assert code == 1 and payload["error"] == {"type": "ParseError", "message": (
            f"{model_path}: dropped_rows holds row 120, past the 120 rows of {cloud_path}")}

    @pytest.mark.parametrize("alpha", [2**-53, 1e-17, 2**-52])
    def test_alpha_whose_quantile_argument_rounds_to_one_named(self, fitted, tmp_path, capsys,
                                                                alpha):
        # for alpha <= 2**-53, 1 - alpha/2 is 1.0, which has no normal quantile
        cloud_path, model_path, _ = fitted
        code, payload = run_cli(capsys, "eval", "--model", str(model_path), "--data",
                                str(cloud_path), "--alpha", repr(alpha),
                                "--out", str(tmp_path / "grid.csv"))
        if alpha > 2**-53:
            assert code == 0 and payload["alpha"] == alpha
        else:
            assert code == 1 and payload["error"] == {
                "type": "ValueError", "message": f"alpha must be in (2**-53, 1), got {alpha!r}"}

    def test_stored_band_is_the_covariance_band(self, fitted):
        from wqisa import NoiseModel, coefficient_covariance
        cloud_path, model_path, raw = fitted
        assert raw["format"] == 3
        assert raw["data_blake2b"] == hashlib.blake2b(cloud_path.read_bytes()).hexdigest()
        model, _, _, band, _ = _read_model(model_path)
        cov = coefficient_covariance(load_cloud(cloud_path), model.space, model.weight,
                                     NoiseModel(0.3), model.policy)
        assert same_bits(band, cov.band)
        # knn:k=10 counts as one byte each: 10 on the diagonal
        counts = np.frombuffer(base64.b64decode(raw["band"]), dtype="u1").reshape(band.shape)
        assert np.array_equal(counts[:, 0], raw["support_sizes"]) and counts.max() == 10
        sizes, dim = counts[:, 0].astype(float), len(counts)
        for s in range(3):  # the partner i + s, none past the grid
            want = counts[:dim - s, s] / (sizes[:dim - s] * sizes[s:])
            assert same_bits(band[:dim - s, s], want) and not band[dim - s:, s].any()

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), nearest=st.booleans(), seed=st.integers(0, 2**16),
           weight=st.sampled_from(["knn:k=10", "knn:k=300", "characteristic:r=0.3",
                                   "characteristic:r=1.5", "characteristic:r=0.001"]))
    def test_fit_stores_counts_that_read_back_as_the_covariance_band(self, d, nearest, seed,
                                                                      weight):
        # knn and ball in 1-D to 3-D, under both policies (a fallback row
        # counts 1), counted by either kernel, in one or two bytes a count
        from wqisa import NoiseModel, coefficient_covariance
        policy = "nearest" if nearest or weight.endswith("0.001") else "error"
        if weight.startswith("characteristic"):  # about as wide on every d
            weight = f"characteristic:r={float(weight.split('=')[1]) * d!r}"
        rng = np.random.default_rng(seed)
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            save_cloud(PointCloud(rng.uniform(-1, 1, (400, d)), rng.standard_normal(400)),
                       f"{tmp}/c.xyz")
            assert main(["fit", "--data", f"{tmp}/c.xyz", "--n", "9,4,3"[:2 * d - 1],
                         "--degree", "2,1,1"[:2 * d - 1], "--weight", weight,
                         "--policy", policy, "--out", tmp]) == 0
            with open(f"{tmp}/model.json", encoding="utf-8") as fh:
                stored = base64.b64decode(json.load(fh)["band"])
            model, _, _, band, _ = _read_model(f"{tmp}/model.json")
            cloud = load_cloud(f"{tmp}/c.xyz")
        space, spec, fit_policy = model.space, model.weight, model.policy
        cov = coefficient_covariance(cloud, space, spec, NoiseModel(1.0), fit_policy)
        assert same_bits(band, cov.band)
        size = len(stored) // band.size
        counts = np.frombuffer(stored, dtype=f"<u{size}").reshape(band.shape)
        assert size == np.min_scalar_type(int(counts.max())).itemsize
        assert size == {"knn:k=10": 1, "knn:k=300": 2}.get(weight, size)
        for cell in model.diagnostics.fallback_cells:
            assert counts[np.ravel_multi_index(cell, space.shape), 0] == 1
        blocks = list(weight_blocks(cloud, space, spec, fit_policy))
        paired, ringed = (_BandBuilder(space, cloud.n, True) for _ in range(2))
        paired.blocks, ringed.ring = blocks, np.zeros((ringed.reach, cloud.n))
        for block in blocks:
            ringed.add(block)
        assert np.array_equal(paired.result(), counts) and np.array_equal(ringed.result(), counts)

    @pytest.mark.parametrize("legacy, match", [
        ("format-1", "missing model field 'format'"),
        ("format-2", "unknown model format 2"),
        ("no-dropped-rows", "missing model field 'dropped_rows'"),
        ("no-sigma-eps", "missing model field 'sigma_eps'"),
    ], ids=["format-1", "format-2", "no-dropped-rows", "no-sigma-eps"])
    def test_a_file_of_an_older_format_is_refused(self, fitted, tmp_path, capsys, legacy,
                                                   match):
        # format 1 had no "format", band or digest and could lack dropped_rows;
        # format 2 kept the band as base64 float64. Neither is read: refit
        cloud_path, model_path, raw = fitted
        if legacy == "format-1":
            for key in ("format", "band", "data_blake2b"):
                del raw[key]
        elif legacy == "format-2":
            band = _read_model(model_path)[3]
            raw.update(format=2, band=base64.b64encode(band.astype("<f8").tobytes()).decode())
        else:
            del raw[legacy[3:].replace("-", "_")]
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError) as exc:
            _read_model(model_path)
        assert str(exc.value) == f"{model_path}: {match}"
        grid = tmp_path / "grid.csv"
        code, payload = run_cli(capsys, "eval", "--model", str(model_path), "--data",
                                str(cloud_path), "--sigma-eps", "0.3", "--out", str(grid))
        assert code == 1 and payload["error"] == {"type": "ParseError",
                                                  "message": str(exc.value)}
        assert not grid.exists()

    def test_file_with_a_sha256_digest_evaluates_through_data(self, fitted, tmp_path, capsys):
        # a model written before the blake2b digest names its data by sha256,
        # which no reader checks: like a piped fit's model, it rebuilds
        # through --data and uses its band without
        cloud_path, model_path, raw = fitted
        argv = ["eval", "--model", str(model_path), "--sigma-eps", "0.3", "--out"]
        code, ev = run_cli(capsys, *argv, str(tmp_path / "blake2b.csv"), "--data", str(cloud_path))
        assert code == 0 and ev["covariance"] == "model"
        raw["data_sha256"] = hashlib.sha256(cloud_path.read_bytes()).hexdigest()
        del raw["data_blake2b"]
        model_path.write_text(json.dumps(raw))
        code, ev = run_cli(capsys, *argv, str(tmp_path / "sha256.csv"), "--data", str(cloud_path))
        assert code == 0 and ev["covariance"] == "data"
        code, ev = run_cli(capsys, *argv, str(tmp_path / "band.csv"))
        assert code == 0 and ev["covariance"] == "model"
        grids = [(tmp_path / f"{name}.csv").read_bytes() for name in ("blake2b", "sha256", "band")]
        assert grids[0] == grids[1] == grids[2]

    @pytest.mark.parametrize("field, value, match", [
        ("format", 4, "unknown model format 4"),
        ("band", "not base64!", "band is not valid base64"),
        ("band", 17, "band is not valid base64"),
        ("band", base64.b64encode(bytes(5)).decode(), "band holds 5 bytes, not 8 x 3 counts"),
        ("band", base64.b64encode(bytes(72)).decode(), "band holds 72 bytes, not 8 x 3 counts"),
        ("count", (2, 0, 9), "band row 2 is not shared-row counts of support size 10 "),
        ("count", (3, 1, 11), r"band row 3 .*: \[10, 11, "),
        ("count", (7, 1, 1), r"band row 7 .*: \[10, 1, 0\]"),
    ], ids=["format", "base64", "not-text", "length", "no-count-type", "diagonal",
            "above-size", "past-grid"])
    def test_bad_format_or_band_named_with_the_file(self, fitted, tmp_path, capsys,
                                                     field, value, match):
        # the counts of knn:k=10 on 8 coefficients: 10 on each diagonal,
        # none above the 10 of either coefficient, none past the grid
        cloud_path, model_path, raw = fitted
        if field == "count":
            counts = np.frombuffer(base64.b64decode(raw["band"]), dtype="u1").reshape(8, 3).copy()
            counts[value[:2]] = value[2]
            value = base64.b64encode(counts.tobytes()).decode()
        raw["band" if field == "count" else field] = value
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match=match) as exc:
            _read_model(model_path)
        assert str(model_path) in str(exc.value)
        grid = tmp_path / "grid.csv"
        code, payload = run_cli(capsys, "eval", "--model", str(model_path), "--data",
                                str(cloud_path), "--sigma-eps", "0.3", "--out", str(grid))
        assert code == 1 and payload["error"]["type"] == "ParseError"
        assert not grid.exists()

    def test_knots_that_are_not_finite_named_with_the_file(self, fitted, tmp_path, capsys):
        # json reads -Infinity, and eval once failed on its grid's points,
        # naming neither the file nor the knots
        cloud_path, model_path, raw = fitted
        raw["knots"][0][:3] = [-math.inf] * 3
        model_path.write_text(json.dumps(raw))
        assert "-Infinity" in model_path.read_text()
        message = f"{model_path}: axis 0: knots must be finite, got [-inf, -inf, -inf]"
        with pytest.raises(ParseError) as exc:
            _read_model(model_path)
        assert str(exc.value) == message
        code, payload = run_cli(capsys, "eval", "--model", str(model_path), "--data",
                                str(cloud_path), "--out", str(tmp_path / "grid.csv"))
        assert code == 1 and payload["error"] == {"type": "ParseError", "message": message}

    @pytest.mark.parametrize("knots, message", [
        ([-math.inf] * 3, "knots must be finite, got [-inf, -inf, -inf]"),
        ([0.5] * 3, "knots must be nondecreasing"),
    ])
    def test_a_bad_knot_vector_of_a_2d_model_is_named_by_its_axis(self, tmp_path, capsys,
                                                                   knots, message):
        x = np.random.default_rng(1).uniform(-1, 1, (200, 2))
        cloud_path, model_path = tmp_path / "plane.xyz", tmp_path / "model.json"
        cloud_path.write_text("".join(f"{a!r} {b!r} {a * b!r}\n" for a, b in x.tolist()))
        run_cli(capsys, "fit", "--data", str(cloud_path), "--n", "5", "--weight", "knn:k=6",
                "--out", str(tmp_path))
        raw = json.loads(model_path.read_text())
        raw["knots"][1][:3] = knots
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError) as exc:
            _read_model(model_path)
        assert str(exc.value) == f"{model_path}: axis 1: {message}"

    def test_non_finite_coefficient_rejected(self, fitted, tmp_path, capsys):
        cloud_path, model_path, raw = fitted
        raw["coefficients"][3] = float("nan")
        model_path.write_text(json.dumps(raw))
        with pytest.raises(ParseError, match=r"non-finite coefficient nan at \(3,\)"):
            _read_model(model_path)
        grid = tmp_path / "grid.csv"
        code, payload = run_cli(capsys, "eval", "--model", str(model_path),
                                "--data", str(cloud_path), "--sigma-eps", "0.3",
                                "--out", str(grid))
        assert code == 1 and payload["error"]["type"] == "ParseError"
        assert not grid.exists()


# The FitConfig fields each subcommand reads, and its own flags.
READS = {
    "gen": {"seed", "out"},
    "fit": {"data", "degree", "n", "weight", "policy", "sigma_eps", "normalize",
            "outlier_filter", "outlier_factor", "out"},
    "eval": {"data", "sigma_eps", "alpha", "grid_density", "out"},
    "cv": {"data", "degree", "weight", "policy", "seed", "cv_grid", "folds", "repeats", "out"},
    "metrics": {"data", "sigma_eps", "alpha", "grid_density", "normalize", "out"},
    "demo": {"degree", "weight", "policy", "seed", "cv_grid", "alpha", "grid_density", "folds",
             "repeats", "normalize", "outlier_filter", "outlier_factor", "out"},
}
OWN_FLAGS = {"gen": {"kind", "count", "sigma", "outlier_fraction", "outlier_magnitude"},
             "fit": set(), "eval": {"model"}, "cv": set(), "metrics": {"model", "data2"},
             "demo": {"count", "sigma"}}


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

    def test_each_command_takes_only_the_options_it_reads(self):
        # main overrides exactly the FitConfig fields, so a flag for a field
        # its command does not read would be parsed and then ignored
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
        assert set(subs) == set(READS)
        for command, parser in subs.items():
            dests = {a.dest for a in parser._actions if a.option_strings}
            assert dests - {"help", "config"} - OWN_FLAGS[command] == READS[command], command
            assert READS[command] <= {f.name for f in dataclasses.fields(FitConfig)}
        assert sum(map(len, READS.values())) == 45

    @pytest.mark.parametrize("command", list(READS))
    def test_a_command_builds_its_own_subparser_alone(self, capsys, command):
        def commands(parser):
            return next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        full, lone = build_parser(), build_parser([command, "--data", "c.xyz"])
        assert list(commands(lone)) == [command] and len(commands(full)) == 6
        assert lone.format_usage() == full.format_usage()
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == commands(full)[command].format_help()

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"], ["-h", "fit"]])
    def test_top_level_help_and_errors_list_every_command(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == (0 if argv and argv[0].startswith("-") else 2)
        out = capsys.readouterr()
        assert "usage: wqisa [-h] {gen,fit,eval,cv,metrics,demo} ..." in out.out + out.err
        if argv[:1] == ["bogus"]:
            assert re.search(r"invalid choice: 'bogus' \(choose from '?gen'?, '?fit'?, "
                             r"'?eval'?, '?cv'?, '?metrics'?, '?demo'?\)", out.err)
        elif argv:
            assert [line.split()[0] for line in out.out.splitlines()
                    if line.startswith("    ")] == list(READS)

    @pytest.mark.parametrize("argv", [
        ["gen", "--degree", "2"],
        ["fit", "--folds", "3"],
        ["eval", "--model", "m.json", "--weight", "knn:k=3"],
        ["cv", "--outlier-filter"],
        ["metrics", "--seed", "1"],
        ["demo", "--sigma-eps", "0.2"],
    ])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        unread = argv[-2:] if argv[-1][0] != "-" else argv[-1:]
        assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, key", [
        ({"n": 7}, "n"),
        ({"outlier_filter": "false"}, "outlier_filter"),
        ({"policy": "bogus"}, "policy"),
        ({"normalize": "bogus"}, "normalize"),
        ([{"n": [7]}], "top level"),
    ])
    def test_bad_config_value_fails_before_any_cloud_is_loaded(
            self, tmp_path, capsys, monkeypatch, raw, key):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "60", "--out", str(cloud_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(raw))
        loaded = []
        monkeypatch.setattr(cli, "load_cloud", loaded.append)
        code, payload = run_cli(capsys, "fit", "--config", str(cfg_path),
                                "--data", str(cloud_path), "--out", str(tmp_path / "fit"))
        assert code == 1 and payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(f"{cfg_path}: {key} ")
        assert loaded == [] and not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("values", [
        {"sigma_eps": 0, "outlier_factor": 2, "domain": [[0, 1.5]], "cv_grid": [4, 5]},
        {"outlier_filter": True, "drop_outside": False, "grid_density": None},
    ])
    def test_json_values_of_the_field_types_pass(self, values):
        FitConfig(**values)

    @pytest.mark.parametrize("command, flags, key, value", [
        ("cv", ["--grid", "5:7"], "repeats", 0),
        ("cv", ["--grid", "5:7"], "folds", 1),
        ("eval", ["--model", "m.json"], "grid_density", 0),
        ("eval", ["--model", "m.json"], "grid_density", -3),
        ("eval", ["--model", "m.json"], "alpha", 0.0),
        ("metrics", ["--model", "m.json"], "alpha", 1.5),
        ("fit", [], "sigma_eps", -0.5),
        ("fit", [], "sigma_eps", float("nan")),
        ("fit", [], "outlier_factor", -1.0),
    ])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, monkeypatch,
                                              command, flags, key, value):
        flag = next(f.metadata["flag"] for f in dataclasses.fields(FitConfig) if f.name == key)
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({key: value}))
        loaded = []
        monkeypatch.setattr(cli, "load_cloud", loaded.append)
        for source in ([flag, repr(value)], ["--config", str(cfg_path)]):
            code, payload = run_cli(capsys, command, *flags, "--data", "c.xyz", *source,
                                    "--out", str(tmp_path / "out"))
            assert code == 1 and payload["error"]["type"] == "ValueError"
            assert f"{key} must be " in payload["error"]["message"]
            assert payload["error"]["message"].endswith(f"got {value!r}")
        assert payload["error"]["message"].startswith(f"{cfg_path}: {key} ")
        assert loaded == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("alpha", True), ("seed", 1.0), ("degree", ["2"]), ("domain", [0, 1]),
        ("cv_grid", [4.5]), ("data", 3), ("weight", "knn:k=3,r=2"),
    ])
    def test_value_of_another_type_names_its_field(self, key, value):
        with pytest.raises(ValueError, match=key):
            FitConfig(**{key: value})

    @pytest.mark.parametrize("flags, raw, message", [
        (["--n", "12,8,5"], {}, "n needs 1 entry or one per axis of the 1-D cloud, got 3"),
        ([], {"n": []}, "n needs 1 entry or one per axis of the 1-D cloud, got 0"),
        (["--degree", "2,2"], {}, "degree needs 1 entry or one per axis of the 1-D cloud, got 2"),
        ([], {"domain": [[0, 3, 9]]}, "domain needs one [lo, hi] pair per axis of the 1-D cloud"),
        ([], {"domain": [[0]]}, "domain needs one [lo, hi] pair per axis"),
        ([], {"domain": [[0, 1], [0, 1]]}, "domain needs one [lo, hi] pair per axis"),
        ([], {"domain": []}, "domain needs one [lo, hi] pair per axis"),
    ], ids=["n-flag", "n-empty", "degree-flag", "domain-triple", "domain-single",
            "domain-two-axes", "domain-empty"])
    def test_per_axis_lists_must_fit_the_cloud_dimension(self, tmp_path, capsys,
                                                          flags, raw, message):
        cloud_path = tmp_path / "c.xyz"
        run_cli(capsys, "gen", "--count", "60", "--out", str(cloud_path))
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(raw))
        code, payload = run_cli(capsys, "fit", "--config", str(cfg_path), *flags,
                                "--data", str(cloud_path), "--out", str(tmp_path / "fit"))
        assert code == 1 and payload["error"]["type"] == "ValueError"
        assert payload["error"]["message"].startswith(message)
        assert not (tmp_path / "fit").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"nn": 7}))
        code, payload = run_cli(capsys, "fit", "--config", str(cfg_path))
        assert code == 1
        assert "unknown config keys" in payload["error"]["message"]


NO_SCIPY = """
import sys
from wqisa.cli import main

d = sys.argv[1]
for argv in (["fit", "--data", d + "/c.xyz", "--n", "8", "--weight", "knn:k=9", "--out", d],
             ["eval", "--model", d + "/model.json", "--data", d + "/c.xyz", "--density", "8",
              "--sigma-eps", "0.2", "--out", d + "/grid.csv"],
             ["metrics", "--data", d + "/c.xyz", "--model", d + "/model.json",
              "--sigma-eps", "0.2"],
             ["fit", "--data", d + "/c.xyz", "--n", "8", "--weight", "knn:k=9", "--outlier-filter",
              "--out", d + "/filtered"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
# scipy, numpy.ma (np.median's and np.percentile's first call), OpenSSL (hashlib) and
# statistics (NormalDist's module loads decimal, fractions and random) all cost load time
# and memory
loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "_hashlib", "statistics")
                or m.split(".")[:2] == ["numpy", "ma"])
if loaded:
    sys.exit(f"{len(loaded)} modules loaded that no command needs: {loaded[:3]}")
# gen draws through numpy.random, which loads OpenSSL, so it runs last and is held to scipy only
if main(["gen", "--count", "300", "--seed", "2", "--out", d + "/g.xyz"]) != 0:
    sys.exit("gen failed")
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
sys.exit(f"{len(loaded)} scipy modules loaded, first {loaded[:3]}" if loaded else 0)
"""


def test_cli_imports_no_private_library_name():
    # the commands call the library's public surface, the names a tracer
    # or a user wraps; a private import would bypass them unseen
    tree = ast.parse(open(cli.__file__, encoding="utf-8").read())
    private = [f"{node.module}.{alias.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").split(".")[0] == "wqisa")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_all_lists_exactly_the_public_names():
    # every public name the package binds, its submodules aside, is in
    # __all__ once, and __all__ names nothing else
    bound = [name for name, value in vars(wqisa).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(wqisa.__all__) == sorted(bound)


def child_env() -> dict:
    """The environment with this checkout's package first on the path."""
    src = os.path.dirname(os.path.dirname(wqisa.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def child(*argv) -> subprocess.CompletedProcess:
    """python argv..., run with this checkout's package first on its path."""
    return subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True,
                          text=True, timeout=300)


def test_commands_never_import_scipy(tmp_path):
    # the runtime needs numpy only, while the test environment has scipy,
    # so an accidental import would pass every other test
    # the cloud is made here, since gen's OpenSSL would mask the other commands'
    save_cloud(gen_synthetic("sine", 300, 2).cloud, tmp_path / "c.xyz")
    proc = child("-c", NO_SCIPY, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "grid.csv").exists() and (tmp_path / "g.xyz").exists()


def test_python_m_wqisa_cli_exits_with_the_commands_code(tmp_path):
    # the module's __main__ block, and main(None), which parses sys.argv
    ok = child("-m", "wqisa.cli", "gen", "--count", "20", "--out", str(tmp_path / "c.xyz"))
    assert ok.returncode == 0 and json.loads(ok.stdout)["n"] == 20, ok.stderr
    failed = child("-m", "wqisa.cli", "fit", "--n", "6")
    assert failed.returncode == 1 and json.loads(failed.stdout) == {"error": {
        "type": "ValueError", "message": "fit needs --data (or a config with a data path)"}}
    usage = child("-m", "wqisa.cli", "eval", "--model", "model.json", "--weight", "knn:k=3")
    assert usage.returncode == 2 and usage.stdout == ""
    assert usage.stderr.endswith("wqisa: error: unrecognized arguments: --weight knn:k=3\n")


@pytest.mark.parametrize("argv, code", [
    (["fit", "--n", "20", "--weight", "knn:k=10"], 0),
    (["fit", "--n", "2"], 1),
], ids=["report", "error"])
def test_a_reader_that_leaves_early_gets_no_traceback(tmp_path, argv, code):
    # wqisa fit ... | head -2: the reader closes the pipe before the command
    # prints, so the print fails; the command still ends quietly, its files
    # written, with the code its work earned
    save_cloud(gen_synthetic("sine", 2000, 2).cloud, tmp_path / "c.xyz")
    proc = subprocess.Popen([sys.executable, "-m", "wqisa.cli", *argv, "--data",
                             str(tmp_path / "c.xyz"), "--out", str(tmp_path)],
                            env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=300) == code and stderr == b""
    assert [(tmp_path / name).exists() for name in ("model.json", "report.json")] == [not code] * 2
