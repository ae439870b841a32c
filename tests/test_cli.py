"""End-to-end checks of the command-line interface.

Commands run in-process through main(argv) so stdout/stderr can be
captured cheaply; exit codes follow the documented contract
(0 success, 1 validation, 2 I/O).
"""

import argparse
import contextlib
import csv
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sourcefft import _floatfmt, cli, source_models
from sourcefft._floatfmt import write_csv
from sourcefft.cli import (
    CliError,
    RunConfig,
    build_parser,
    main,
    parse_config,
    serialize_config,
)
from sourcefft.experiments import (
    RULE_MUS,
    default_config,
    run_mu_sweep,
    run_rule_comparison,
)
from sourcefft.noise_lab import NOISE_MODES

TWO_PI = 2.0 * math.pi
COMMANDS = ["forward", "simulate", "invert", "sweep", "figures", "dump-config"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header = rows[0]
    cols = [
        np.asarray([float(v) for v in col]) for col in zip(*rows[1:])
    ]
    return header, cols


class TestForward:
    def test_cosine_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "forward", "--source", "cosine")
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["x", "f", "g"]
        assert len(cols[0]) == 256
        assert np.max(cols[2]) == pytest.approx(-math.expm1(-1.0), abs=1e-5)
        assert np.max(cols[2]) == pytest.approx(0.63212, abs=1e-5)

    def test_row_count_follows_n(self, capsys):
        code, out, _ = run_cli(capsys, "forward", "--source", "cosine", "--n", "8")
        assert code == 0
        assert len(out.strip().splitlines()) == 9  # header + 8 samples

    def test_writes_file(self, capsys, tmp_path):
        dest = tmp_path / "fwd.csv"
        code, out, _ = run_cli(
            capsys, "forward", "--source", "cosine", "--out", str(dest)
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("x,f,g\n")

    def test_jittered_input_grid_rejected(self, capsys, tmp_path):
        grid_x = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        grid_x[10] += 1e-3
        bad = tmp_path / "bad.csv"
        lines = ["x,f"] + [f"{float(x)!r},{math.cos(x)!r}" for x in grid_x]
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "forward", "--input", str(bad))
        assert code == 1
        assert "max deviation" in err

    # 64 samples in blocks of 5 leave a last block of 4, where the jitter sits.
    @pytest.mark.parametrize("block", [5, 64, 1 << 16])
    def test_grid_deviation_does_not_depend_on_the_block(self, monkeypatch, block):
        x = np.linspace(0.0, TWO_PI, 64, endpoint=False)
        x[62] += 1e-3
        dx = (float(x[-1]) - float(x[0])) / 63
        want = float(np.max(np.abs(x - (x[0] + dx * np.arange(64)))))
        monkeypatch.setattr(cli, "_GRID_BLOCK", block)
        with pytest.raises(CliError, match=f"max deviation {want:.3e}"):
            cli._grid_from_x(x, "in.csv")
        x[62] -= 1e-3
        assert cli._grid_from_x(x, "in.csv").n == 64

    @pytest.mark.parametrize("width", [1.5e-9, 1.5e-7])
    def test_shuffled_grid_on_a_small_domain_rejected(self, capsys, tmp_path, width):
        # The uniform-grid tolerance scales with the coordinates, so a
        # shuffled x is rejected however small the domain.
        x = np.linspace(0.0, width, 16, endpoint=False)
        x[1:-1] = np.random.default_rng(0).permutation(x[1:-1])
        path = tmp_path / "in.csv"
        path.write_text("x,g\n" + "".join(f"{v!r},1.0\n" for v in x.tolist()))
        code, _, err = run_cli(capsys, "invert", "--input", str(path), "--mu", "1")
        assert code == 1
        assert "x is not a uniform grid" in err

    @pytest.mark.parametrize("x_min, x_max", [
        ("0", "1e-9"), ("-1e-9", "1e-9"), ("1e6", "1000006.283185307"),
    ])
    def test_small_and_offset_domains_round_trip(self, capsys, tmp_path, x_min, x_max):
        # forward's own grid passes the check that --input makes of it.
        data = tmp_path / "data.csv"
        code, _, err = run_cli(capsys, "forward", "--n", "64", f"--x-min={x_min}",
                               "--x-max", x_max, "--out", str(data))
        assert code == 0, err
        x = parse_csv(data.read_text())[1][0]
        for argv in (["forward", "--demean"], ["invert", "--mu", "0"]):
            code, out, err = run_cli(capsys, *argv, "--input", str(data))
            assert code == 0, err
            np.testing.assert_array_equal(parse_csv(out)[1][0], x)

    def test_hat_source(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "forward",
            "--source", "hat",
            "--hat-center", str(math.pi),
            "--hat-half-width", "1.0",
        )
        assert code == 0
        header, cols = parse_csv(out)
        assert abs(float(np.mean(cols[1]))) < 1e-12


    # The mean tolerance is 1e-10 * max(1, max |f|): a demeaned tall hat or
    # a large cosine keeps a rounding residue above 1e-10 (the hat of height
    # 1e7 leaves -1.75e-10), which is not a mean to reject.
    @pytest.mark.parametrize("height", ["1e7", "1e300"])
    def test_tall_hat_runs(self, capsys, height):
        code, _, err = run_cli(capsys, "forward", "--source", "hat",
                               "--hat-height", height)
        assert (code, err) == (0, "")

    def test_large_input_source_runs(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        x = TWO_PI * np.arange(256) / 256
        path.write_text(_rows_csv("x,f", zip(x.tolist(),
                                              (1e150 * np.cos(x)).tolist())))
        code, out, err = run_cli(capsys, "forward", "--input", str(path))
        assert (code, err) == (0, "")
        assert out.startswith("x,f,g\n")

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_nonzero_mean_rejected(self, capsys, tmp_path, scale):
        path = tmp_path / "mean.csv"
        x = TWO_PI * np.arange(256) / 256
        f = scale * (np.cos(x) + 1e-6)
        path.write_text(_rows_csv("x,f", zip(x.tolist(), f.tolist())))
        code, out, err = run_cli(capsys, "forward", "--input", str(path))
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith(f"sourcefft: error: {path}: source has discrete mean ")
        assert line.endswith("pass --demean to subtract it")
        assert run_cli(capsys, "forward", "--input", str(path), "--demean")[0] == 0

    def test_demean_of_a_large_offset(self, capsys, tmp_path):
        # One subtraction of a mean of 1e8 leaves a residue above the
        # tolerance of the centred values; --demean still succeeds, and the
        # f it writes is the mean-free source its g was computed from.
        path = tmp_path / "offset.csv"
        x = TWO_PI * np.arange(256) / 256
        f = 1e8 + np.random.default_rng(0).standard_normal(256)
        path.write_text(_rows_csv("x,f", zip(x.tolist(), f.tolist())))
        code, out, err = run_cli(capsys, "forward", "--input", str(path), "--demean")
        assert (code, err) == (0, "")
        header, cols = parse_csv(out)
        assert header == ["x", "f", "g"]
        assert abs(float(np.mean(cols[1]))) < 1e-10


class TestSimulate:
    def test_zero_delta_copies_g(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--delta", "0")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert rows[0] == ["x", "g", "g_delta"]
        for row in rows[1:]:
            assert row[1] == row[2]  # identical down to the printed digits

    def test_calibrated_noise_norm(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--delta", "0.05",
            "--noise-mode", "norm-calibrated",
        )
        assert code == 0
        _, cols = parse_csv(out)
        dx = TWO_PI / 256
        achieved = math.sqrt(dx * float(np.sum((cols[2] - cols[1]) ** 2)))
        assert abs(achieved - 0.05) < 1e-12

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_names_delta(self, capsys, delta):
        code, out, err = run_cli(capsys, "simulate", "--delta", delta)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"sourcefft: error: noise level delta must be finite and "
            f"nonnegative, got {delta}"
        ]

    # A numpy RuntimeWarning would print a second stderr line outside pytest.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_delta_is_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--n", "8", "--delta", "1e308")
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "sourcefft: error: noise level delta=1e+308 overflows float64"
        ]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["forward", "simulate"])
    @pytest.mark.parametrize("n", ["8", "256"])
    def test_overflowing_hat_height_is_one_error_line(self, capsys, command, n):
        code, out, err = run_cli(
            capsys, command, "--n", n, "--source", "hat", "--hat-height", "1e308"
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "sourcefft: error: hat height=1e+308 overflows float64"
        ]

    # simulate writes no f, so it samples a built-in source only inside
    # exact_data, whose sampling names a bad hat as the grid's would.
    @pytest.mark.parametrize("source, grid_samples", [
        ((), []), (("--source", "hat"), [1024]),
    ])
    def test_samples_only_the_reference_grid(self, capsys, monkeypatch,
                                             source, grid_samples):
        sampled = []
        sample_source = source_models.sample_source

        def spy(spec, grid):
            sampled.append(grid.n)
            return sample_source(spec, grid)

        monkeypatch.setattr(cli, "sample_source", spy)
        monkeypatch.setattr(source_models, "sample_source", spy)
        assert run_cli(capsys, "simulate", *source)[0] == 0
        assert sampled == grid_samples

    def test_bad_hat_support_is_one_error_line(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--source", "hat", "--hat-center", "0.5"
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "sourcefft: error: hat support [-0.5, 1.5] must lie strictly "
            "inside (0, 6.28319)"
        ]

    @pytest.mark.parametrize("mode", ["iid", "norm-calibrated"])
    def test_stdout_bytes_equal_file_bytes(self, capsys, tmp_path, mode):
        # stdout is a text stream, --out a file: write_csv takes a different
        # branch for each, and both must give the same repr text.
        sim = tmp_path / "sim.csv"
        args = ("simulate", "--n", "4096", "--delta", "0.05", "--seed", "3",
                "--noise-mode", mode)
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert run_cli(capsys, *args, "--out", str(sim))[0] == 0
        assert out.encode("ascii") == sim.read_bytes()
        _, cols = parse_csv(out)
        assert out.splitlines()[1:] == [
            "%r,%r,%r" % row for row in zip(*(c.tolist() for c in cols))
        ]
        inv = tmp_path / "inv.csv"
        args = ("invert", "--input", str(sim), "--mu", "0.3")
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        assert run_cli(capsys, *args, "--out", str(inv))[0] == 0
        assert out.encode("ascii") == inv.read_bytes()

    def test_same_seed_same_bytes(self, capsys):
        args = ("simulate", "--delta", "0.05", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        _, out3, _ = run_cli(capsys, "simulate", "--delta", "0.05", "--seed", "8")
        assert out1 != out3


class TestInvert:
    @pytest.fixture
    def forward_file(self, capsys, tmp_path):
        dest = tmp_path / "data.csv"
        code, _, _ = run_cli(
            capsys, "forward", "--source", "cosine", "--out", str(dest)
        )
        assert code == 0
        return dest

    def test_round_trip_recovers_cosine(self, capsys, forward_file):
        code, out, _ = run_cli(
            capsys, "invert", "--input", str(forward_file), "--mu", "0"
        )
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["x", "f_estimate"]
        expected = np.cos(cols[0])
        rel = np.linalg.norm(cols[1] - expected) / np.linalg.norm(expected)
        assert rel < 1e-8

    def test_rule_prints_provenance(self, capsys, forward_file):
        code, out, err = run_cli(
            capsys,
            "invert",
            "--input", str(forward_file),
            "--rule", "1",
            "--delta", "0.015",
        )
        assert code == 0
        assert err.startswith("sourcefft: rule: ")
        fields = dict(
            part.split("=") for part in err.strip().split(" ")[2:]
        )
        assert float(fields["mu"]) == pytest.approx(0.24662, abs=1e-5)
        assert float(fields["bound"]) > 0
        assert "x,f_estimate" in out

    def test_rule_warning_is_one_line(self, capsys, forward_file):
        # delta > E warns; the warning is one prefixed line, beside the
        # rule's provenance line, and the estimate is the rule mu's.
        args = ("invert", "--input", str(forward_file))
        code, out, err = run_cli(capsys, *args, "--rule", "1", "--delta", "2")
        assert code == 0
        warning, provenance = err.splitlines()
        assert warning.startswith("sourcefft: warning: noise level delta=2 exceeds")
        assert provenance.startswith("sourcefft: rule: p=1 delta=2 E=1 mu=")
        mu = dict(part.split("=") for part in provenance.split(" ")[2:])["mu"]
        assert run_cli(capsys, *args, "--mu", mu) == (0, out, "")

    def test_rule_requires_delta(self, capsys, forward_file):
        code, _, err = run_cli(
            capsys, "invert", "--input", str(forward_file), "--rule", "1"
        )
        assert code == 1
        assert "delta" in err

    @pytest.mark.parametrize(
        "flags",
        [("--delta", "nan"), ("--delta", "inf"), ("--delta", "0.05", "--E", "nan")],
    )
    def test_rule_non_finite_is_one_error_line(self, capsys, forward_file, flags):
        code, out, err = run_cli(
            capsys, "invert", "--input", str(forward_file), "--rule", "1", *flags
        )
        assert code == 1
        assert out == ""
        assert err.startswith("sourcefft: error:")
        assert len(err.splitlines()) == 1
        assert "must be finite" in err

    # The symbol's (xi mu)^2 overflows; its limit, an all-zero estimate, is
    # the answer, with no RuntimeWarning on stderr.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mu", ["1e200", "1e308"])
    def test_huge_mu_gives_zero_estimate_quietly(self, capsys, forward_file, mu):
        code, out, err = run_cli(
            capsys, "invert", "--input", str(forward_file), "--mu", mu
        )
        assert code == 0
        assert err == ""
        header, cols = parse_csv(out)
        assert header == ["x", "f_estimate"]
        assert np.all(cols[1] == 0.0)

    def test_negative_mu_rejected(self, capsys, forward_file):
        code, _, err = run_cli(
            capsys, "invert", "--input", str(forward_file), "--mu", "-1"
        )
        assert code == 1

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "invert", "--input", str(tmp_path / "absent.csv")
        )
        assert code == 2
        assert "absent.csv" in err

    def test_accepts_g_delta_column(self, capsys, tmp_path):
        noisy = tmp_path / "noisy.csv"
        code, _, _ = run_cli(
            capsys,
            "simulate",
            "--delta", "0.05",
            "--seed", "3",
            "--out", str(noisy),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "invert", "--input", str(noisy), "--mu", "3"
        )
        assert code == 0
        _, cols = parse_csv(out)
        assert np.all(np.isfinite(cols[1]))


def _input_csv(quote="", sep=",", eol="\n", blank=False, bad_row=None):
    """CSV text of cos(x) on a 16-point grid, optionally with one row replaced."""
    xs = [TWO_PI * k / 16 for k in range(16)]
    header = f"{quote}x{quote}{sep}{quote}g{quote}"
    rows = [f"{quote}{x!r}{quote}{sep}{quote}{math.cos(x)!r}{quote}" for x in xs]
    if bad_row is not None:
        rows[5] = bad_row
    lines = [header] + rows
    if blank:
        lines = [line + eol for line in lines]
    return eol.join(lines) + eol


class TestInputCsv:
    # A warning would print a second stderr line outside pytest.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, expected",
        [
            pytest.param(_input_csv(eol="\r\n"), 0, id="crlf"),
            pytest.param(_input_csv(quote='"'), 0, id="quoted"),
            pytest.param(_input_csv(blank=True), 0, id="blank-lines"),
            pytest.param(_input_csv(sep=", "), 0, id="spaces-after-commas"),
            pytest.param(_input_csv(bad_row="2.0,0.5,1.0"), 1, id="ragged-row"),
            pytest.param(_input_csv(bad_row="2.0,abc"), 1, id="non-numeric"),
            pytest.param("x,g\n", 1, id="header-only"),
            pytest.param("x\n\n", 1, id="one-column-blank-line"),
            pytest.param("", 1, id="empty"),
        ],
    )
    def test_parsing(self, capsys, tmp_path, text, expected):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run_cli(capsys, "invert", "--input", str(path), "--mu", "1")
        assert code == expected
        if expected == 0:
            header, cols = parse_csv(out)
            assert header == ["x", "f_estimate"]
            assert len(cols[0]) == 16
            assert np.all(np.isfinite(cols[1]))
        else:
            lines = err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("sourcefft: error:")
            assert str(path) in lines[0]
            assert "Traceback" not in err


class TestReaderChoice:
    """write_csv's own text goes through the vectorized reader
    (_floatfmt.parse_rows); what it declines goes through np.loadtxt."""

    @pytest.fixture
    def loadtxt_calls(self, monkeypatch):
        calls = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            calls.append(args)
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    @pytest.mark.parametrize("write, read", [
        (("simulate", "--n", "4096", "--delta", "0.05"), ("invert", "--mu", "0.3")),
        (("simulate", "--source", "hat", "--noise-mode", "norm-calibrated"),
         ("invert", "--rule", "1", "--delta", "0.05")),
        (("forward",), ("forward",)),
        (("forward", "--source", "hat", "--n", "1000"), ("forward",)),
    ])
    def test_own_output_never_reaches_loadtxt(
        self, capsys, tmp_path, loadtxt_calls, write, read
    ):
        data = tmp_path / "data.csv"
        assert run_cli(capsys, *write, "--out", str(data))[0] == 0
        code, out, _ = run_cli(capsys, *read, "--input", str(data))
        assert code == 0 and out
        assert loadtxt_calls == []

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_input_goes_through_loadtxt(self, capsys, tmp_path, loadtxt_calls):
        # A pipe cannot be read twice, as the vectorized reader reads a file.
        data = tmp_path / "data.csv"
        assert run_cli(capsys, "forward", "--n", "16", "--out", str(data))[0] == 0
        read, write = os.pipe()
        os.write(write, data.read_bytes())
        os.close(write)
        try:
            piped = run_cli(capsys, "forward", "--input", f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert len(loadtxt_calls) == 1
        assert piped == run_cli(capsys, "forward", "--input", str(data))

    @pytest.mark.parametrize("text", [
        pytest.param(_input_csv(eol="\r\n"), id="crlf"),
        pytest.param(_input_csv(quote='"'), id="quoted"),
        pytest.param(_input_csv(blank=True), id="blank-lines"),
        pytest.param(_input_csv(sep=", "), id="spaces-after-commas"),
    ])
    def test_other_inputs_go_through_loadtxt(
        self, capsys, tmp_path, loadtxt_calls, text
    ):
        path = tmp_path / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        assert run_cli(capsys, "invert", "--input", str(path), "--mu", "1")[0] == 0
        assert len(loadtxt_calls) == 1


class TestSweep:
    @pytest.fixture
    def tiny_config(self, tmp_path):
        cfg = RunConfig(
            n=64,
            deltas=(0.05, 0.1),
            mus=(0.0, 1.0, 3.0),
            p_values=(1.0,),
            replicates=2,
        )
        path = tmp_path / "sweep.cfg"
        path.write_text(serialize_config(cfg))
        return path

    def test_emits_mean_error_schema(self, capsys, tiny_config):
        code, out, _ = run_cli(capsys, "sweep", "--config", str(tiny_config))
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["mu", "delta", "mean_rel_error", "stderr_rel_error"]
        assert len(cols[0]) == 3 * 2  # mus x deltas
        assert np.all(np.isfinite(cols[2]))

    def test_deterministic(self, capsys, tiny_config):
        args = ("sweep", "--config", str(tiny_config), "--replicates", "1")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_rule_config_keeps_schema(self, capsys, tmp_path):
        cfg = RunConfig(
            n=64, deltas=(0.05,), mus="rule", p_values=(1.0, 2.0), replicates=2
        )
        path = tmp_path / "rule.cfg"
        path.write_text(serialize_config(cfg))
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 0
        header, cols = parse_csv(out)
        assert header == ["mu", "delta", "mean_rel_error", "stderr_rel_error"]
        assert len(cols[0]) == 2  # one row per (delta, p)

    def test_config_with_a_byte_order_mark_reads_as_the_plain_file(self, capsys, tmp_path):
        text = "deltas = 0.05\nn = 64\nmus = 0, 1\nreplicates = 2\n"
        plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for cfg in (plain, bom):
            code, _, err = run_cli(capsys, "sweep", "--config", str(cfg),
                                   "--out", str(cfg.with_suffix(".csv")))
            assert (code, err) == (0, "")
        assert bom.with_suffix(".csv").read_bytes() == plain.with_suffix(".csv").read_bytes()

    def test_empty_mus_rejected(self, capsys, tmp_path):
        path = tmp_path / "empty.cfg"
        lines = [
            "mus =" if line.startswith("mus") else line
            for line in serialize_config(RunConfig()).splitlines()
        ]
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert "mus" in err

    # A numpy RuntimeWarning would print a second stderr line outside pytest.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text",
        [
            "mus = inf", "mus = 1.0, nan", "deltas = inf", "mus = rule\np_values = inf",
            "mus = 0:1e400:3", "mus = -1e308:1e308:3", "x_min = -1e308\nx_max = 1e308",
            "source = hat\nhat_height = inf",
        ],
    )
    def test_non_finite_parameter_is_one_error_line(self, capsys, tmp_path, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("sourcefft: error:")
        assert "finite" in lines[0]
        assert "Warning" not in err

    # iid noise at 1e308 overflows in the draw; norm-calibrated noise at
    # 1e200 is finite, but the errors of its estimates overflow.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "text, delta",
        [
            ("deltas = 1e308\nmus = 0, 1\nreplicates = 2", "1e+308"),
            ("n = 8\ndeltas = 0.1, 1e200\nnoise_mode = norm_calibrated\n"
             "mus = 0, 1\nreplicates = 2", "1e+200"),
        ],
    )
    def test_overflowing_delta_is_one_error_line(self, capsys, tmp_path, text, delta):
        path = tmp_path / "overflow.cfg"
        path.write_text(text + "\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"sourcefft: error: noise level delta={delta} ")

    # The data scale with delta, and so does the rounding residue of an
    # inverse FFT; large but finite noise levels must still run.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", NOISE_MODES)
    @pytest.mark.parametrize("delta", ["1000", "1e6"])
    def test_large_delta_runs(self, capsys, tmp_path, mode, delta):
        path = tmp_path / "large.cfg"
        path.write_text(
            f"deltas = {delta}\nnoise_mode = {mode}\nmus = 0, 1\nreplicates = 2\n"
        )
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, err) == (0, "")
        header, cols = parse_csv(out)
        assert len(cols[0]) == 2 and np.all(np.isfinite(cols[2]))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_norm_calibrated_delta_at_default_n(self, capsys, tmp_path):
        path = tmp_path / "overflow.cfg"
        path.write_text("deltas = 1e200\nnoise_mode = norm_calibrated\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "sourcefft: error: noise level delta=1e+200 overflows the estimates"
        ]

    # The finiteness check runs once per delta, after all its columns; an
    # overflowing first delta is still the one named.
    @pytest.mark.filterwarnings("error")
    def test_overflowing_first_delta_is_named(self, capsys, tmp_path):
        path = tmp_path / "overflow.cfg"
        path.write_text("n = 8\ndeltas = 1e200, 0.1\nnoise_mode = norm_calibrated\n"
                        "mus = 0, 1\nreplicates = 2\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "sourcefft: error: noise level delta=1e+200 overflows the estimates"
        ]

    # Squared frequencies that overflow (x_max = 1e-300) or underflow to 0
    # (x_max = 1e308) are named by the grid, not by the numpy fault, after
    # the config file's name.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sweep", "figures"])
    @pytest.mark.parametrize("text, interval", [
        ("x_max = 1e-300", "[0.0, 1e-300)"),
        ("source = hat\nx_max = 1e308", "[0.0, 1e+308)"),
        ("x_max = 1e308", "[0.0, 1e+308)"),
    ])
    def test_degenerate_grid_is_one_error_line(
        self, capsys, tmp_path, command, text, interval
    ):
        path = tmp_path / "grid.cfg"
        path.write_text(f"n = 8\nreplicates = 1\n{text}\n")
        out_path = tmp_path / "out"
        code, out, err = run_cli(
            capsys, command, "--config", str(path), "--out", str(out_path)
        )
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            f"sourcefft: error: {path}: grid of n=8 on {interval} "
        )
        assert "float64 range" in lines[0]
        assert not out_path.exists()

    # Every sweep and fig5 value is relative to the source's norm.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sweep", "figures"])
    def test_zero_source_is_one_error_line(self, capsys, tmp_path, command):
        path = tmp_path / "zero.cfg"
        path.write_text("n = 8\nreplicates = 1\nsource = hat\nhat_height = 0\n")
        out_path = tmp_path / "out"
        code, out, err = run_cli(
            capsys, command, "--config", str(path), "--out", str(out_path)
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            "sourcefft: error: relative error is undefined against a zero source"
        ]
        assert not list(tmp_path.glob("out/*.csv"))

    # The hat's samples' sum (n = 256) or its norm's sum of squares (n = 8,
    # and 1e200 at n = 256) overflows; the line names the height.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sweep", "figures"])
    @pytest.mark.parametrize("n, height, message", [
        (256, "1e308", "hat height=1e+308 overflows float64"),
        (8, "1e308", "hat height=1e+308 overflows the source norm"),
        (256, "1e200", "hat height=1e+200 overflows the source norm"),
    ])
    def test_overflowing_hat_height_is_one_error_line(
        self, capsys, tmp_path, command, n, height, message
    ):
        path = tmp_path / "hat.cfg"
        path.write_text(
            f"n = {n}\nreplicates = 1\nsource = hat\nhat_height = {height}\n"
        )
        out_path = tmp_path / "out"
        code, out, err = run_cli(
            capsys, command, "--config", str(path), "--out", str(out_path)
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"sourcefft: error: {message}"]
        assert not list(tmp_path.glob("out/*.csv"))

    def test_tall_hat_sweep_runs(self, capsys, tmp_path):
        path = tmp_path / "hat.cfg"
        path.write_text("replicates = 2\nsource = hat\nhat_height = 1e7\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 1 + 3 * 81

    def test_rule_warnings_are_one_line_each(self, capsys, tmp_path):
        path = tmp_path / "warn.cfg"
        path.write_text("deltas = 2\nmus = rule\nn = 16\nreplicates = 2\n")
        # Every call reports its warnings, one prefixed line per p.
        for _ in range(2):
            code, out, err = run_cli(capsys, "sweep", "--config", str(path))
            assert code == 0
            lines = err.splitlines()
            assert len(lines) == 2
            assert all(line.startswith("sourcefft: warning: ") for line in lines)
            assert out.startswith("mu,delta,mean_rel_error,stderr_rel_error\n")
            assert len(out.splitlines()) == 1 + 2

    def test_workers_match_serial(self, capsys, tiny_config):
        _, out1, _ = run_cli(capsys, "sweep", "--config", str(tiny_config))
        _, out4, _ = run_cli(
            capsys, "sweep", "--config", str(tiny_config), "--workers", "4"
        )
        assert out1 == out4


SWEEP_HEADER = ["mu", "delta", "mean_rel_error", "stderr_rel_error"]


def repeats(pool, most):
    """Tuples of 1 to most values drawn from pool, repeats likely."""
    return st.lists(st.sampled_from(pool), min_size=1, max_size=most).map(tuple)


@st.composite
def sweep_configs(draw):
    """Small configs whose mus, deltas and p_values repeat values (signed
    zeros included), so (mu, delta) keys repeat; delta 0 in mu mode, and
    delta 1 in rule mode, where every p gives mu = 1."""
    rule = draw(st.booleans())
    return RunConfig(
        n=2 * draw(st.integers(4, 32)),
        deltas=draw(repeats([0.02, 0.1, 1.0] if rule else [0.0, 0.02, 0.1], 4)),
        mus=RULE_MUS if rule else draw(repeats([0.0, -0.0, 0.5, 2.0], 4)),
        p_values=draw(repeats([0.0, 1.0, 2.0], 3)),
        replicates=draw(st.integers(1, 4)),
        base_seed=draw(st.integers(0, 2**64 - 1)),
        noise_mode=draw(st.sampled_from(NOISE_MODES)),
    )


class TestSweepSummary:
    """`sweep` summarizes from the cell blocks; its bytes equal the summary
    of the public record API, or, where two columns share a (mu, delta)
    key, it writes one error line naming the key and exits 1."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=sweep_configs())
    @example(cfg=RunConfig(
        n=8, deltas=(0.1, 0.0, 0.1), mus=(0.5, -0.0, 0.5, 0.0), replicates=3
    ))
    @example(cfg=RunConfig(
        n=8, deltas=(1.0, 0.1), mus=RULE_MUS, p_values=(2.0, 0.0, 2.0), replicates=3
    ))
    @example(cfg=RunConfig(n=8, deltas=(0.1, 0.0), mus=(0.5, -0.0), replicates=3))
    def test_csv_equals_record_summary(
        self, tmp_path_factory, reference_summary, fold_refusal, cfg
    ):
        path = tmp_path_factory.mktemp("sweep") / "sweep.cfg"
        path.write_text(serialize_config(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(path)])
        sweep = cfg.to_sweep_config()
        run = run_rule_comparison if sweep.mus == RULE_MUS else run_mu_sweep
        records = run(sweep)
        refusal = fold_refusal(records)
        if refusal is not None:
            assert (code, out.getvalue()) == (1, "")
            assert err.getvalue() == f"sourcefft: error: {refusal}\n"
            return
        assert (code, err.getvalue()) == (0, "")
        summary = reference_summary(records)
        expected = io.StringIO()
        rows = [key + summary[key] for key in sorted(summary)]
        write_csv(expected, SWEEP_HEADER, np.reshape(rows, (-1, len(SWEEP_HEADER))).T)
        assert out.getvalue() == expected.getvalue()


class TestFigures:
    @pytest.fixture
    def small_config(self, tmp_path):
        cfg = RunConfig(
            deltas=(0.015, 0.05, 0.1),
            mus=tuple(np.linspace(0.0, 40.0, 11)),
            p_values=(1.0, 2.0),
            replicates=2,
        )
        path = tmp_path / "figs.cfg"
        path.write_text(serialize_config(cfg))
        return path

    def test_manifest_and_determinism(self, capsys, tmp_path, small_config):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for dest in (out_a, out_b):
            code, _, _ = run_cli(
                capsys,
                "figures",
                "--config", str(small_config),
                "--out", str(dest),
            )
            assert code == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == [
            "fig1.csv", "fig1.gp", "fig2.csv", "fig2.gp", "fig3.csv",
            "fig3.gp", "fig4.csv", "fig4.gp", "fig5.csv", "fig5.gp",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    # fig2-fig4 cover the first three deltas, each script sits beside its CSV.
    @pytest.mark.parametrize("deltas, names", [
        ("0.05", ["fig1", "fig2", "fig5"]),
        ("0.05, 0.1", ["fig1", "fig2", "fig3", "fig5"]),
    ])
    def test_fewer_deltas_write_fewer_panels(self, capsys, tmp_path, deltas, names):
        path = tmp_path / "figs.cfg"
        path.write_text(f"deltas = {deltas}\nmus = 0, 1\nreplicates = 2\n")
        out = tmp_path / "f"
        code, printed, err = run_cli(
            capsys, "figures", "--config", str(path), "--out", str(out)
        )
        assert (code, err) == (0, "")
        expected = sorted(f"{name}.{ext}" for name in names for ext in ("csv", "gp"))
        assert sorted(p.name for p in out.iterdir()) == expected
        assert printed.splitlines() == [str(out / name) for name in expected]

    def test_zero_delta_is_one_error_line_and_no_csv(self, capsys, tmp_path):
        path = tmp_path / "zero.cfg"
        path.write_text("deltas = 0, 0.05, 0.1\nmus = 0, 1\nreplicates = 2\n")
        out = tmp_path / "f"
        code, printed, err = run_cli(
            capsys, "figures", "--config", str(path), "--out", str(out)
        )
        assert (code, printed) == (1, "")
        assert err.splitlines() == ["sourcefft: error: delta must be positive, got 0.0"]
        assert not list(out.glob("*.csv"))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_delta_is_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "overflow.cfg"
        path.write_text("deltas = 1e308\nmus = 0, 1\nreplicates = 2\n")
        code, out, err = run_cli(
            capsys, "figures", "--config", str(path), "--out", str(tmp_path / "f")
        )
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "sourcefft: error: noise level delta=1e+308 overflows float64"
        ]

    # The sweep's errors overflow at delta 1e306; on the tiny domain only
    # the figures' own estimates do.  Either way the line names the delta.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text, delta", [
        ("deltas = 0.05, 1e306\nmus = 0, 1", "1e+306"),
        ("x_max = 2e-151\ndeltas = 0.05\nmus = 40", "0.05"),
    ])
    def test_overflowing_estimate_names_the_delta(self, capsys, tmp_path, text, delta):
        path = tmp_path / "overflow.cfg"
        path.write_text(text + "\n")
        out = tmp_path / "f"
        code, printed, err = run_cli(
            capsys, "figures", "--config", str(path), "--out", str(out)
        )
        assert (code, printed) == (1, "")
        assert err.splitlines() == [
            f"sourcefft: error: noise level delta={delta} overflows the estimates"
        ]
        assert not list(out.glob("*.csv"))

    def test_unwritable_out_is_io_error(self, capsys, tmp_path, small_config):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        code, _, err = run_cli(
            capsys,
            "figures",
            "--config", str(small_config),
            "--out", str(blocker),
        )
        assert code == 2
        assert "not-a-dir" in err


class TestConfigFile:
    def test_dump_parses_back_to_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "dump-config")
        assert code == 0
        assert parse_config(out) == RunConfig()

    def test_serialize_parse_fixed_point(self):
        for cfg in (
            RunConfig(),
            RunConfig(n=64, source="hat", hat_center=2.5, mus="rule"),
            RunConfig(deltas=(0.3,), mus=(0.0, 0.25), noise_mode="norm_calibrated"),
        ):
            text = serialize_config(cfg)
            assert parse_config(text) == cfg
            assert serialize_config(parse_config(text)) == text

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(serialize_config(RunConfig()) + "typo_key = 3\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert "typo_key" in err

    def test_duplicate_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(serialize_config(RunConfig()) + "n = 64\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == 1
        assert "duplicate" in err.lower()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sweep", "figures"])
    @pytest.mark.parametrize("text, message", [
        ("n = nan", "config line 1: bad value for n: "),
        ("n = 8\nnoise_mode = loud", "noise mode must be one of "),
        ("n = 8\nn = 16", "config line 2: duplicate key 'n'"),
        ("mus = 1:2", "range form must be start:stop:count"),
        # Values that parse but fail when the SweepConfig is built.
        ("source = blob", "source kind must be one of ('cosine', 'hat'), got 'blob'"),
        ("n = 7", "sample count must be even, got 7"),
        ("deltas = -1", "deltas must be finite and nonnegative"),
    ])
    def test_config_error_names_the_file(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"sourcefft: error: {path}: {message}")

    # Errors after the file is loaded do not name it: those of the override
    # flags, and a hat's support, checked only when the source is sampled.
    @pytest.mark.parametrize("text, flags, message", [
        ("n = 8", ("--replicates", "0"), "replicates must be >= 1, got 0"),
        ("n = 8", ("--base-seed", "-1"), "base_seed must fit in 64 unsigned bits"),
        ("source = hat\nhat_center = 100", (),
         "hat support [99, 101] must lie strictly inside (0, 6.28319)"),
    ])
    def test_later_error_has_no_path(self, capsys, tmp_path, text, flags, message):
        path = tmp_path / "ok.cfg"
        path.write_text(text + "\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(path), *flags)
        assert (code, out) == (1, "")
        assert err.splitlines() == [f"sourcefft: error: {message}"]

    def test_parse_config_error_has_no_path(self):
        with pytest.raises(CliError) as info:
            parse_config("n = nan\n")
        assert str(info.value).startswith("config line 1: bad value for n: ")

    def test_comments_and_blanks_ignored(self):
        text = "# leading comment\n\n" + serialize_config(RunConfig())
        assert parse_config(text) == RunConfig()


class TestDefaults:
    """The command line's defaults are the library's, spelled once."""

    def test_run_config_defaults_are_the_library_defaults(self):
        assert RunConfig().to_sweep_config() == default_config()

    @pytest.mark.parametrize("command, fields", [
        ("forward", ()),
        ("simulate", ("noise_mode",)),
    ])
    def test_flag_defaults_are_run_config_defaults(self, command, fields):
        args = cli._command_parser(command).parse_args([])
        fields = ("n", "x_min", "x_max", "source", "hat_center", "hat_half_width",
                  "hat_height") + fields
        for name in fields:
            assert getattr(args, name) == getattr(RunConfig(), name), name

    def test_source_choices_are_the_source_kinds(self):
        (source,) = [
            action for action in cli._command_parser("forward")._actions
            if action.dest == "source"
        ]
        assert tuple(source.choices) == source_models._KINDS


class TestTopLevel:
    def test_no_command_is_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_unknown_command_is_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_python_m_runs_the_cli(self, capsys):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "sourcefft", "dump-config"],
            capture_output=True, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        code, out, _ = run_cli(capsys, "dump-config")
        assert code == 0
        assert proc.stdout == out.encode("utf-8")

    def test_parser_registers_the_documented_commands(self, capsys):
        (subs,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert list(subs.choices) == COMMANDS
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out
        for cmd in COMMANDS:
            assert f"\n    {cmd} " in out

    @pytest.mark.parametrize("argv", [["--help"]] + [[c, "--help"] for c in COMMANDS])
    def test_help_matches_the_full_parser(self, capsys, argv):
        # main builds one command's parser; its help is the full parser's.
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        expected = capsys.readouterr()
        with pytest.raises(SystemExit) as lazy:
            main(argv)
        assert (lazy.value.code, full.value.code) == (0, 0)
        assert capsys.readouterr() == expected
        assert expected.out.startswith("usage: " + " ".join(["sourcefft"] + argv[:-1]))

    @pytest.mark.parametrize("flags", [
        ["--bogus"], ["--n", "x"], ["--n"], ["--mu", "1"], ["--out"],
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_errors_match_the_full_parser(self, capsys, command, flags):
        # An unknown flag, a bad or missing --n value, invert's missing
        # --input and a flag without its value: main parses with the
        # command's own parser, and its one error line is the full one's.
        argv = [command, *flags]
        with pytest.raises(CliError) as full:
            build_parser().parse_args(argv)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"sourcefft: error: {full.value}\n"
        if command == "invert" and flags == ["--mu", "1"]:
            assert "required: --input" in err

    def test_other_command_flags_are_an_unknown_argument(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--n", "5")
        assert (code, out) == (1, "")
        assert err.splitlines() == ["sourcefft: error: unrecognized arguments: --n 5"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_main_builds_only_the_invoked_command(
        self, capsys, monkeypatch, command
    ):
        def refuse(sub):
            raise AssertionError(f"built the flags of {sub.prog}")

        for other, (help_text, _, handler) in list(cli._COMMANDS.items()):
            if other != command:
                monkeypatch.setitem(cli._COMMANDS, other, (help_text, refuse, handler))
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: sourcefft {command} ")
        if command == "dump-config":
            assert run_cli(capsys, command)[0] == 0

    def test_main_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        expected = run_cli(capsys, "dump-config")
        monkeypatch.setattr(sys, "argv", ["sourcefft", "dump-config"])
        code = main()
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == expected
        monkeypatch.setattr(sys, "argv", ["sourcefft"])
        assert main() == 1
        assert capsys.readouterr().err.startswith("sourcefft: error: missing command")

    # The quadrature cross-check is a library reference, not a command.
    def test_oracle_is_an_unknown_command(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--mu", "1")
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith(
            "sourcefft: error: argument command: invalid choice: 'oracle' "
        )


class TestInputHeader:
    """A header that names a column twice is refused; a UTF-8 byte-order
    mark before the header is not part of the first name."""

    @pytest.mark.parametrize("command, header", [
        ("invert", "x,g_delta,g_delta"), ("forward", "x,f,f"),
    ])
    def test_repeated_name_is_one_error_line(self, capsys, tmp_path, command, header):
        # The last of the two columns is all zeros; it must not win quietly.
        path = tmp_path / "in.csv"
        path.write_text(header + "\n" + "".join(
            f"{TWO_PI * k / 16!r},{math.cos(TWO_PI * k / 16)!r},0.0\n"
            for k in range(16)))
        flags = ("--mu", "1") if command == "invert" else ()
        code, out, err = run_cli(capsys, command, "--input", str(path), *flags)
        assert (code, out) == (1, "")
        name = header.split(",")[-1]
        assert err.splitlines() == [
            f"sourcefft: error: {path}: header repeats column {name!r}"]

    # write_csv's bytes go to the vectorized reader, CRLF ones to np.loadtxt.
    @pytest.mark.parametrize("eol", [b"\n", b"\r\n"])
    def test_byte_order_mark_reads_as_the_plain_file(self, capsys, tmp_path, eol):
        plain = tmp_path / "plain.csv"
        assert run_cli(capsys, "simulate", "--delta", "0.05", "--out", str(plain))[0] == 0
        plain.write_bytes(plain.read_bytes().replace(b"\n", eol))
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for path in (plain, marked):
            dest = tmp_path / f"estimate_{path.name}"
            code, out, err = run_cli(
                capsys, "invert", "--input", str(path), "--mu", "0.3", "--out", str(dest))
            assert (code, out, err) == (0, "", "")
            outputs.append(dest.read_bytes())
        assert outputs[0] == outputs[1]


class TestErrorLines:
    # Callees that stand in for an allocation too large for the machine,
    # such as `forward --n 200000000000` or `mus = 0:1:100000000000`.
    @pytest.mark.parametrize("message", ["Unable to allocate 745. GiB", ""])
    @pytest.mark.parametrize(
        "callee, argv",
        [
            ("make_grid", ["forward"]),
            ("_sweep_summary", ["sweep"]),
            ("estimate_source_regularized", ["invert", "--mu", "1"]),
        ],
    )
    def test_memory_error_is_one_line(
        self, capsys, monkeypatch, tmp_path, callee, argv, message
    ):
        data = tmp_path / "data.csv"
        assert run_cli(capsys, "forward", "--n", "64", "--out", str(data))[0] == 0

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"sourcefft.cli.{callee}", exhausted)
        if argv[0] == "invert":
            argv = argv + ["--input", str(data)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines() == [
            f"sourcefft: error: {message or 'out of memory'}"
        ]

    @pytest.mark.parametrize("flag, command", [
        ("--input", "invert"), ("--input", "forward"), ("--config", "sweep"),
    ])
    def test_non_utf8_file_is_named(self, capsys, tmp_path, flag, command):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"x,g\n0.0,\xff\n")
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"sourcefft: error: {path}: ")
        assert "utf-8" in lines[0]


# Input CSVs of at most 64 rows: an x column and a data column among junk
# ones, extreme x ranges and scales, CRLF, quotes and blank lines, and up to
# three faults: a bad field, a shifted value (a non-uniform x) or a short row.
_CSV_JUNK_NAMES = ["junk", "", "x ", "X", "f", "g", "g_delta"]
_CSV_FAULTS = [
    "", "nan", "inf", "-inf", "1e400", "-1e400", "abc", '"1.5"', '"0.5', '""',
    " 2 ", "1,2", "1e-400", "0x10",
]


def _rows_csv(header, rows):
    return header + "\n" + "".join(f"{x!r},{v!r}\n" for x, v in rows)


@st.composite
def csv_inputs(draw):
    names = [draw(st.sampled_from(["x", "x", "x", "X", "junk"])),
             draw(st.sampled_from(["f", "g", "g_delta"]))]
    names = draw(st.permutations(
        names + draw(st.lists(st.sampled_from(_CSV_JUNK_NAMES), max_size=2))
    ))
    rows = draw(st.one_of(st.integers(4, 32).map(lambda k: 2 * k),
                          st.integers(0, 64)))
    start, step = draw(st.one_of(
        st.just((0.0, TWO_PI / max(rows, 1))),
        st.tuples(st.sampled_from([0.0, -3.0, 1e-300, 1e300, -1e308]),
                  st.sampled_from([1.0, 1e-12, 1e-300, 1e200, 1e307])),
    ))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e300]))
    table = [
        [repr(start + k * step) if name.strip().lower() == "x"
         else repr(scale * math.cos(TWO_PI * k / rows)) for name in names]
        for k in range(rows)
    ]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3])) if rows else 0):
        row = table[draw(st.integers(0, rows - 1))]
        col = draw(st.integers(0, len(row) - 1))
        fault = draw(st.sampled_from(["field", "shift", "short"]))
        if fault == "field":
            row[col] = draw(st.sampled_from(_CSV_FAULTS))
        elif fault == "shift" and row[col] not in _CSV_FAULTS:
            row[col] = repr(float(row[col]) * draw(st.sampled_from([1.5, -1.0, 1e-3])))
        elif fault == "short" and len(row) > 1:
            row.pop()
    quote = draw(st.sampled_from(["", '"']))
    lines = [",".join(f"{quote}{name}{quote}" for name in names)]
    lines += [",".join(row) for row in table]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(1, len(lines))), "")
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


class TestInputCsvFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        text=csv_inputs(),
        flags=st.sampled_from([
            ("invert", "--mu", "0"), ("invert", "--mu", "1"),
            ("invert", "--mu", "1e308"), ("forward",), ("forward", "--demean"),
        ]),
    )
    # Faults the fuzz found, each of which used to end in numpy's text or
    # without the file's name: a non-finite x, an x span past the float64
    # range, a non-finite data field, a nonzero mean without --demean and an
    # estimate that overflows.
    @example(text=_rows_csv("x,g", [(k, 1) for k in range(7)] + [(math.inf, 1)]),
             flags=("invert", "--mu", "1"))
    @example(text=_rows_csv("x,g", [(-1e308 + k * 2.8e307, 1) for k in range(8)]),
             flags=("invert", "--mu", "1"))
    @example(text=_rows_csv("x,g", [(k, math.nan if k == 3 else 1) for k in range(8)]),
             flags=("invert", "--mu", "1"))
    @example(text=_rows_csv("x,f", [(k, 1) for k in range(8)]), flags=("forward",))
    @example(text=_rows_csv("x,g", [(k * 1e-12, (-1) ** k * 1e300) for k in range(64)]),
             flags=("invert", "--mu", "0"))
    def test_one_error_line_never_a_traceback(self, tmp_path_factory, text, flags):
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*flags, "--input", str(path)])
        lines = err.getvalue().splitlines()
        assert code in (0, 1)
        if code:
            # One line that names the file, not a numpy floating-point fault.
            (line,) = lines
            assert line.startswith(f"sourcefft: error: {path}: ")
            assert "encountered in" not in line
        else:
            assert lines == []


def _as_written(text):
    """The input with the CRLFs, quotes and blank lines that write_csv never
    writes taken out, so that more of them reach the vectorized reader."""
    lines = text.replace("\r\n", "\n").replace('"', "").split("\n")
    return "\n".join(line for line in lines if line) + "\n"


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestReaderAgreement:
    @settings(max_examples=200, deadline=None)
    @given(
        text=st.one_of(csv_inputs(), csv_inputs().map(_as_written)),
        flags=st.sampled_from([
            ("invert", "--mu", "0"), ("invert", "--mu", "1"), ("forward",),
            ("forward", "--demean"),
        ]),
    )
    @example(text=_rows_csv("x,g", [(k * 0.5, (-1) ** k * 1e-5) for k in range(8)]),
             flags=("invert", "--mu", "1"))
    @example(text="x\n0.0\n\n1.0\n", flags=("invert", "--mu", "1"))
    @example(text=_rows_csv("junk,x,f", []) + "".join(
        f"{k!r},{k * 0.25!r},{math.cos(k)!r}\n" for k in range(16)), flags=("forward",))
    def test_same_outcome_as_loadtxt(self, tmp_path_factory, text, flags):
        path = tmp_path_factory.mktemp("csv") / "in.csv"
        path.write_bytes(text.encode("utf-8"))
        argv = [*flags, "--input", str(path)]
        fast = _main_outcome(argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_floatfmt, "parse_rows", lambda stream, fields: None)
            assert _main_outcome(argv) == fast


# Valid and junk values for every config key, small enough that no run
# allocates much: n <= 64, replicates <= 3, range counts <= 50.
_JUNK = ["", "nan", "inf", "-inf", "-1", "1e400", "abc"]


def _valid_or_junk(*valid):
    """One of the valid values or of the junk, each half the time."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(_JUNK))


_FUZZ_NUMBER = _valid_or_junk("0", "0.05", "1", "3", "1e-300", "1e308", "-1e308")
_FUZZ_LIST = st.lists(_FUZZ_NUMBER, max_size=4).map(", ".join)
_FUZZ_VALUES = {
    "n": st.sampled_from(["8", "16", "64", "7", "nan"]),
    "x_min": _FUZZ_NUMBER,
    "x_max": _FUZZ_NUMBER,
    "source": _valid_or_junk("cosine", "hat", "square"),
    "hat_center": _FUZZ_NUMBER,
    "hat_half_width": _FUZZ_NUMBER,
    "hat_height": _FUZZ_NUMBER,
    "deltas": _FUZZ_LIST,
    "mus": st.one_of(
        st.just("rule"),
        _FUZZ_LIST,
        st.builds(
            "{}:{}:{}".format,
            _FUZZ_NUMBER, _FUZZ_NUMBER, _valid_or_junk("1", "3", "50", "2.5"),
        ),
        st.sampled_from(["1:2", "::", "0:1:2:3"]),
    ),
    "p_values": st.lists(_valid_or_junk("0", "1", "2", "50"), max_size=4).map(", ".join),
    "replicates": st.sampled_from(["1", "2", "3", "0"]),
    "base_seed": _valid_or_junk("0", "42", str(2**64)),
    "noise_mode": _valid_or_junk("iid", "norm_calibrated", "norm-calibrated"),
}


@st.composite
def junk_configs(draw):
    """Config text over a subset of the known keys; n and replicates are
    always set, so the defaults (n = 256, 20 replicates) never apply."""
    keys = draw(st.lists(st.sampled_from(sorted(_FUZZ_VALUES)), unique=True))
    keys = ["n", "replicates"] + [k for k in keys if k not in ("n", "replicates")]
    return "".join(f"{key} = {draw(_FUZZ_VALUES[key])}\n" for key in keys)


class TestConfigFuzz:
    @settings(max_examples=150, deadline=None)
    @given(text=junk_configs(), command=st.sampled_from(["sweep", "figures"]))
    @example(text="n = 8\nreplicates = 1\nmus = 0:1e400:3\n", command="sweep")
    @example(text="n = 8\nreplicates = 1\nx_min = -1e308\nx_max = 1e308\n",
             command="figures")
    # Frequencies whose squares overflow, and a zero source under relative
    # errors: numpy faults that no parameter check names.
    @example(text="n = 8\nreplicates = 1\nx_max = 1e-300\n", command="sweep")
    @example(text="n = 8\nreplicates = 1\nsource = hat\nhat_height = 0\n",
             command="sweep")
    def test_one_error_line_never_a_traceback(self, tmp_path_factory, text, command):
        folder = tmp_path_factory.mktemp("fuzz")
        path = folder / "fuzz.cfg"
        path.write_text(text)
        argv = [command, "--config", str(path), "--out", str(folder / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = err.getvalue().splitlines()
        assert code in (0, 1, 2)
        assert all(line.startswith("sourcefft: ") for line in lines)
        errors = [line for line in lines if line.startswith("sourcefft: error: ")]
        if code:
            assert len(errors) == 1 and errors[0] == lines[-1]
        else:
            assert not errors
        # A numpy floating-point warning is noise before, or instead of, the
        # one line that says what is wrong.
        warned = [line for line in lines if line.startswith("sourcefft: warning: ")]
        assert not any("encountered in" in line for line in warned)
