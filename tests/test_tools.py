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
        assert {f"{seed}/sweep.csv", f"{seed}/sweep_workers_4.csv",
                f"{seed}/figures/fig5.csv", f"{seed}/figures.list",
                f"{seed}/figures_workers_2/fig5.csv",
                f"{seed}/figures_workers_2.list", f"{seed}/figures_hat_norm/fig4.gp",
                f"{seed}/figures_hat_norm.list", f"{seed}/figures_one_delta/fig2.csv",
                f"{seed}/figures_one_delta.list",
                f"{seed}/figures_four_deltas/fig1.gp",
                f"{seed}/figures_four_deltas.list",
                f"{seed}/figures_one_replicate/fig5.csv",
                f"{seed}/figures_one_replicate.list",
                f"{seed}/figures_n_2048/fig3.csv", f"{seed}/figures_n_2048.list",
                f"{seed}/sweep_repeated_mu.csv",
                f"{seed}/sweep_signed_zero_mu.csv",
                f"{seed}/rule_repeated_p.csv",
                f"{seed}/sweep_repeated_delta.csv",
                f"{seed}/figures_overflow.list.stderr",
                f"{seed}/figures_tiny_domain.list.stderr",
                f"{seed}/bound_check.csv", f"{seed}/invert_rule_iid.csv.stderr",
                f"{seed}/rule_records_norm_calibrated.csv",
                f"{seed}/mu_sweep_summary.txt", f"{seed}/help.txt",
                f"{seed}/help_dump-config.txt", f"{seed}/dump_config.txt",
                f"{seed}/invert_crlf_quoted.csv",
                f"{seed}/invert_bad_row.csv.stderr",
                f"{seed}/invert_empty.csv.stderr",
                f"{seed}/invert_header_only.csv.stderr",
                f"{seed}/invert_non_utf8_header.csv.stderr",
                f"{seed}/invert_four_fields.csv.stderr",
                f"{seed}/invert_no_x.csv.stderr",
                f"{seed}/forward_of_forward.csv", f"{seed}/forward_hat_1e-9.csv",
                f"{seed}/forward_hat_1e-8.csv", f"{seed}/forward_hat_3e16.csv",
                f"{seed}/forward_hat_1e200.csv", f"{seed}/simulate_n_65536.csv",
                f"{seed}/invert_rule_n_65536.csv",
                f"{seed}/invert_late_crlf.csv", f"{seed}/invert_late_crlf.csv.stderr",
                f"{seed}/invert_late_bad_row.csv",
                f"{seed}/invert_late_bad_row.csv.stderr"} <= names
    assert lines and all(line.endswith(": identical") for line in lines)
