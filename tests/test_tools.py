"""Smoke test of tools/compare_outputs.py: a checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_compare_outputs_of_one_checkout_are_identical():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "compare_outputs.py"),
         str(ROOT), str(ROOT)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    names = {line.split(": ")[0] for line in lines}
    for seed in ("42", "1", "7"):
        assert {f"{seed}/sweep.csv", f"{seed}/figures/fig5.csv",
                f"{seed}/figures.list", f"{seed}/figures_hat_norm/fig4.gp",
                f"{seed}/figures_hat_norm.list", f"{seed}/figures_one_delta/fig2.csv",
                f"{seed}/figures_one_delta.list",
                f"{seed}/figures_four_deltas/fig1.gp",
                f"{seed}/figures_four_deltas.list",
                f"{seed}/figures_overflow.list.stderr",
                f"{seed}/figures_tiny_domain.list.stderr",
                f"{seed}/bound_check.csv", f"{seed}/invert_rule_iid.csv.stderr",
                f"{seed}/rule_records_norm_calibrated.csv", f"{seed}/help.txt",
                f"{seed}/help_dump-config.txt", f"{seed}/invert_crlf_quoted.csv",
                f"{seed}/invert_bad_row.csv.stderr",
                f"{seed}/forward_of_forward.csv"} <= names
    assert lines and all(line.endswith(": identical") for line in lines)
