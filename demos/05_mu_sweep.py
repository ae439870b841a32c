"""
Sweeping mu: where is the optimum, and does the rule find it?

Runs a scaled-down version of the error-vs-mu experiment behind the
shipped figure outputs (coarser mu grid, fewer replicates) and prints
the best mu per noise level together with the a-priori rule's choice.
The full-size run is `sourcefft figures --out <dir>` or
experiments.reproduce_figures.
"""

import math
from dataclasses import replace

import numpy as np

from sourcefft import (
    RULE_MUS,
    SweepConfig,
    cosine_source,
    make_grid,
    run_rule_comparison,
    summarize_rel_error,
)

DELTAS = (0.015, 0.05, 0.1)


def main():
    cfg = SweepConfig(
        source=cosine_source(),
        grid=make_grid(256, 0.0, 2.0 * math.pi),
        deltas=DELTAS,
        mus=tuple(np.linspace(0.0, 5.0, 21)),
        p_values=(1.0,),
        replicates=10,
        base_seed=42,
    )
    summary = summarize_rel_error(cfg)
    rule_recs = run_rule_comparison(replace(cfg, mus=RULE_MUS))

    print("mean relative error over 10 replicates, cosine source, n = 256")
    print(f"\n  {'delta':>7} {'best mu':>8} {'err@best':>9} "
          f"{'rule mu (p=1)':>14} {'err@rule':>9}")
    for delta in DELTAS:
        curve = {mu: m for (mu, d), (m, _) in summary.items() if d == delta}
        best = min(curve, key=curve.get)
        mine = [r for r in rule_recs if r.delta == delta and r.p == 1.0]
        rule_err = float(np.mean([r.rel_error for r in mine]))
        print(
            f"  {delta:7.3f} {best:8.2f} {curve[best]:9.3f}"
            f" {mine[0].mu:14.4f} {rule_err:9.3f}"
        )

    print("\non this short domain the optimum sits at small mu (the signal")
    print("lives at xi = 1, so heavy filtering costs too much bias); the")
    print("rule's choice lands within a factor of ~2 of the best error.")
    print("See demos/07 for a geometry where the optimum moves near 3.")


if __name__ == "__main__":
    main()
