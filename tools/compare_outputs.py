#!/usr/bin/env python3
"""Compare the outputs of two sourcefft checkouts, output by output.

    python tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkout directories.  For base seeds 42, 1 and 7
each checkout runs, through PYTHONPATH=<checkout>/src in a fresh Python
process, the byte-identity list: the default `sweep`, with and without
`--workers 4`, `mus = rule` sweeps with p = 0, 1, 2, 3 in both noise
modes, four sweeps whose columns repeat a (mu, delta) key (mus 1, 1, 0.5;
mus 0, -0.0, 2; `mus = rule` with p = 1, 1, 2; deltas 0.05, 0.05, 0.1),
each refused with one error line and exit 1, the whole `figures`
directory and its printed path list for six configs (the default, with
and without `--workers 2`, a hat source with
`norm_calibrated` noise, one delta 0.05, four deltas 0.015, 0.05, 0.1,
0.2, one replicate, and n = 2048, whose x, f_true and estimate columns
hold 34,816 values, more than one formatter pass takes, so each table is
written in chunks) and for two that fail on an overflowing estimate
(deltas 0.05, 1e306 with mus 0, 1; x_max 2e-151 with delta 0.05 and mu
40), `forward` (cosine and hat), `forward --n 64` of a hat of height
1e-9, 1e-8, 3e16 and 1e200 (f and g in exponent notation, with two- and
three-digit exponents; at 1e-9 and 3e16 the values straddle the ends of
the formatter's range 2^-32 <= |x| < 2^54, beyond which repr writes them)
and of height 1234.5 (f and g in fixed notation with the point inside
the digits), `forward --input` of `forward`'s own output,
`simulate` in both noise modes, `invert --mu 0.3` and `invert --rule 1
--delta 0.05` of it, `simulate --n 65536 --delta 0.05` and `invert --rule 1
--delta 0.05` of it (files that span several writer chunks and reader
blocks), `invert --mu 0.3` of two copies of that 2^16 file whose last line
alone the reader declines, after accepting every block before it (one ends
in CRLF, which np.loadtxt reads; one has a bad row, which exits 1),
`invert --mu 0.3` of a CRLF, quoted copy of the `iid` `simulate` output,
of a copy with one bad row, of a copy that starts with a UTF-8 byte-order
mark, of a copy whose header names `g_delta` twice and of five
inputs the reader refuses (an empty file, a header-only file, a non-UTF-8
byte in the header, a 4-field row under a 3-name header, no `x` column),
every command's stderr included, the `--help` text of the top level and of
each command, the `dump-config` output, the findings of
`run_bound_check()`, the records of `run_mu_sweep` and
`run_rule_comparison` (both modes) at 5 replicates, and the
`summarize_rel_error` dict of that `run_mu_sweep` config, one
`key: value` repr per line in sorted key order.  For every output it
prints "identical" when the bytes agree, else the largest relative
deviation |a - b| / max(|a|, |b|) of each column of a CSV of numbers, or
"differs" for other text.  Exit code 0 when every output is identical, 1
when one is not, 2 when a checkout fails to run.
Needs only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (42, 1, 7)

# Runs in a fresh interpreter on the checkout's source and writes every
# output under its working directory, one subdirectory per seed given in
# argv; paths stay relative, so the printed ones compare equal.
_DRIVER = r'''
import contextlib, dataclasses, io, sys
from pathlib import Path
from sourcefft import experiments
from sourcefft.cli import main

def run(out, name, *argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # --help prints, then exits
            code = exc.code
    (out / name).write_text(stdout.getvalue(), encoding="utf-8")
    (out / (name + ".stderr")).write_text(
        f"exit {code}\n" + stderr.getvalue(), encoding="utf-8")

def cell_text(value):
    if value is None:
        return "nan"
    return repr(int(value) if isinstance(value, bool) else value)

def table(path, cells, fields):
    lines = [",".join(fields)]
    lines += [",".join(cell_text(getattr(c, f)) for f in fields) for c in cells]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

RECORD = ["delta", "mu", "p", "replicate", "rel_error", "abs_error", "bound",
          "empirical_noise_norm"]
FINDING = ["delta", "p", "replicate", "seed", "mu", "E", "error", "bound_raw",
           "bound_scaled", "violates_raw", "violates_scaled"]
COMMANDS = ["forward", "simulate", "invert", "sweep", "figures", "dump-config"]

for seed in map(int, sys.argv[1:]):
    out = Path(str(seed))
    out.mkdir(parents=True)
    configs = {
        "sweep": "",
        "rule_iid": "mus = rule\np_values = 0, 1, 2, 3\n",
        "rule_norm": "mus = rule\np_values = 0, 1, 2, 3\nnoise_mode = norm_calibrated\n",
        # Sweeps whose columns repeat a (mu, delta) key, which exit 1.
        "sweep_repeated_mu": "mus = 1, 1, 0.5\n",
        "sweep_signed_zero_mu": "mus = 0, -0.0, 2\n",
        "rule_repeated_p": "mus = rule\np_values = 1, 1, 2\n",
        "sweep_repeated_delta": "deltas = 0.05, 0.05, 0.1\n",
    }
    for name, text in configs.items():
        cfg = out / (name + ".cfg")
        cfg.write_text(text + f"base_seed = {seed}\n", encoding="utf-8")
        run(out, name + ".csv", "sweep", "--config", cfg)
    run(out, "sweep_workers_4.csv", "sweep", "--config", out / "sweep.cfg",
        "--workers", "4")
    figures = {
        "figures": "",
        "figures_hat_norm": "source = hat\nnoise_mode = norm_calibrated\n",
        "figures_one_delta": "deltas = 0.05\n",
        "figures_four_deltas": "deltas = 0.015, 0.05, 0.1, 0.2\n",
        "figures_one_replicate": "replicates = 1\n",
        "figures_n_2048": "n = 2048\n",
        "figures_overflow": "deltas = 0.05, 1e306\nmus = 0, 1\n",
        "figures_tiny_domain": "x_max = 2e-151\ndeltas = 0.05\nmus = 40\n",
    }
    for name, text in figures.items():
        cfg = out / (name + ".cfg")
        cfg.write_text(text + f"base_seed = {seed}\n", encoding="utf-8")
        run(out, name + ".list", "figures", "--config", cfg, "--out", out / name)
    run(out, "figures_workers_2.list", "figures", "--config", out / "figures.cfg",
        "--out", out / "figures_workers_2", "--workers", "2")
    run(out, "help.txt", "--help")
    for command in COMMANDS:
        run(out, f"help_{command}.txt", command, "--help")
    run(out, "dump_config.txt", "dump-config")
    run(out, "forward.csv", "forward")
    run(out, "forward_hat.csv", "forward", "--source", "hat")
    for height in ("1e-9", "1e-8", "3e16", "1e200", "1234.5"):
        run(out, f"forward_hat_{height}.csv", "forward", "--n", "64", "--source", "hat",
            "--hat-height", height)
    for mode in ("iid", "norm-calibrated"):
        sim = out / f"simulate_{mode}.csv"
        run(out, sim.name, "simulate", "--delta", "0.05", "--seed", seed,
            "--noise-mode", mode)
        run(out, f"invert_mu_{mode}.csv", "invert", "--input", sim, "--mu", "0.3")
        run(out, f"invert_rule_{mode}.csv", "invert", "--input", sim,
            "--rule", "1", "--delta", "0.05")
    big = out / "simulate_n_65536.csv"
    run(out, big.name, "simulate", "--n", "65536", "--delta", "0.05", "--seed", seed)
    run(out, "invert_rule_n_65536.csv", "invert", "--input", big,
        "--rule", "1", "--delta", "0.05")
    # Late declines: the reader accepts the blocks before the last line of
    # the 2^16 file and declines that line.
    data = big.read_bytes()
    last = data.rindex(b"\n", 0, -1) + 1
    late = {"late_crlf": data[:-1] + b"\r\n",
            "late_bad_row": data[:last] + b"1.0,abc,2.0\n"}
    for name, text in late.items():
        path = out / f"simulate_{name}.csv"
        path.write_bytes(text)
        run(out, f"invert_{name}.csv", "invert", "--input", path, "--mu", "0.3")
    # Inputs write_csv never writes, which the reader must hand to np.loadtxt.
    lines = (out / "simulate_iid.csv").read_text(encoding="utf-8").splitlines()
    crlf = out / "simulate_crlf_quoted.csv"
    crlf.write_bytes("".join(
        '"' + line.replace(",", '","') + '"\r\n' for line in lines).encode("utf-8"))
    run(out, "invert_crlf_quoted.csv", "invert", "--input", crlf, "--mu", "0.3")
    bad = out / "simulate_bad_row.csv"
    bad.write_text("\n".join(lines[:5] + ["1.0,abc,2.0"] + lines[6:]) + "\n",
                   encoding="utf-8")
    run(out, "invert_bad_row.csv", "invert", "--input", bad, "--mu", "0.3")
    bom = out / "simulate_bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (out / "simulate_iid.csv").read_bytes())
    run(out, "invert_bom.csv", "invert", "--input", bom, "--mu", "0.3")
    twice = out / "simulate_header_twice.csv"
    twice.write_text("\n".join(["x,g_delta,g_delta"] + lines[1:]) + "\n",
                     encoding="utf-8")
    run(out, "invert_header_twice.csv", "invert", "--input", twice, "--mu", "0.3")
    # Inputs no reader takes, each refused with one error line.
    rows = "".join(line + "\n" for line in lines[1:]).encode("utf-8")
    refused = {
        "empty": b"",
        "header_only": b"x,g,g_delta\n",
        "non_utf8_header": b"x,g,g_delta\xff\n" + rows,
        "four_fields": b"x,g,g_delta\n0.0,1.0,2.0,3.0\n",
        "no_x": b"t,g,g_delta\n" + rows,
    }
    for name, data in refused.items():
        path = out / f"simulate_{name}.csv"
        path.write_bytes(data)
        run(out, f"invert_{name}.csv", "invert", "--input", path, "--mu", "0.3")
    run(out, "forward_of_forward.csv", "forward", "--input", out / "forward.csv")
    base = dataclasses.replace(experiments.default_config(), base_seed=seed)
    bound = dataclasses.replace(base, mus=experiments.RULE_MUS,
                                noise_mode="norm_calibrated")
    table(out / "bound_check.csv", experiments.run_bound_check(bound), FINDING)
    five = dataclasses.replace(base, replicates=5)
    records = experiments.run_mu_sweep(five)
    table(out / "mu_sweep_records.csv", records, RECORD)
    summary = experiments.summarize_rel_error(five)
    (out / "mu_sweep_summary.txt").write_text(
        "\n".join(f"{key!r}: {value!r}" for key, value in sorted(summary.items()))
        + "\n", encoding="utf-8")
    for mode in ("iid", "norm_calibrated"):
        rule = dataclasses.replace(five, mus=experiments.RULE_MUS,
                                   p_values=(0.0, 1.0, 2.0, 3.0), noise_mode=mode)
        table(out / f"rule_records_{mode}.csv",
              experiments.run_rule_comparison(rule), RECORD)
'''


def run_checkout(checkout: Path, out: Path) -> None:
    """Write every output of checkout under out/<seed>/."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    subprocess.run(
        [sys.executable, "-c", _DRIVER, *map(str, SEEDS)],
        env=env, check=True, cwd=out,
    )


def numeric_table(data: bytes):
    """(header, float array) of a CSV of numbers with a header, else None."""
    try:
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])
    except (UnicodeDecodeError, IndexError, ValueError):
        return None


def deviation(a: bytes, b: bytes) -> str:
    """'identical', or the largest relative deviation of each column."""
    if a == b:
        return "identical"
    ta, tb = numeric_table(a), numeric_table(b)
    if ta is None or tb is None or ta[0] != tb[0] or ta[1].shape != tb[1].shape:
        return "differs"
    (header, x), (_, y) = ta, tb
    if x.size == 0:
        return "differs"
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))
    rel[(x == y) | (np.isnan(x) & np.isnan(y))] = 0.0
    worst = np.max(rel, axis=0)
    return ", ".join(f"{name} {value:.3g}" for name, value in zip(header, worst))


def compare(parent: Path, change: Path) -> list:
    """(output name, verdict) for every output of either checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        outs = [Path(tmp) / "parent", Path(tmp) / "change"]
        for checkout, out in zip((parent, change), outs):
            run_checkout(checkout.resolve(), out)
        names = sorted(
            {p.relative_to(out).as_posix() for out in outs
             for p in out.rglob("*") if p.is_file()},
            key=lambda name: (SEEDS.index(int(name.split("/")[0])), name),
        )
        verdicts = []
        for name in names:
            a, b = (out / name for out in outs)
            if not (a.exists() and b.exists()):
                side = "PARENT" if not a.exists() else "CHANGE"
                verdicts.append((name, f"missing in {side}"))
            else:
                verdicts.append((name, deviation(a.read_bytes(), b.read_bytes())))
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    try:
        verdicts = compare(args.parent, args.change)
    except subprocess.CalledProcessError:
        print("compare_outputs: a checkout failed to run (traceback above)",
              file=sys.stderr)
        return 2
    for name, verdict in verdicts:
        print(f"{name}: {verdict}")
    return 0 if all(v == "identical" for _, v in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
