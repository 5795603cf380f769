"""How far a coarse q=2 rule moves the statistic from the 48 x 48 rule.

For each scenario, sample size and seed: one null sample drawn as a trace
trial draws it, its null bootstrap, and the statistic of the observed and
every bootstrap residual row on an r x r rule and on the 48 x 48 rule.  The
output is a JSON object mapping "scenario n=.. p=.. h=.. r=.." to the largest
relative gap over rows and seeds.  Rows whose statistic is within rounding
of zero set a floor of about 1e-13 that no rule removes.

The default cells are the degree-0 tier thresholds of
``goftest.Q2_DEGREE0_TIERS``, the rejected candidate thresholds 0.55 and
0.72, and degree 1 at h = 0.95 on r = 32.  About 3 min on one core.
"""

import argparse
import json
import sys

import numpy as np

from dirgof import goftest, simsuite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="20,30,60,120,250,500")
    parser.add_argument("--seeds", default=12, type=int)
    parser.add_argument("--bootstrap", default=40, type=int)
    args = parser.parse_args()

    cells = [(0, low, r) for low, r in goftest.Q2_DEGREE0_TIERS]
    cells += [(0, 0.72, 24), (0, 0.55, 32), (1, 0.95, 32)]
    configs = {
        (degree, h, r): [goftest.bandwidth_configs(2, [h], degree, size)[0] for size in (r, 48)]
        for degree, h, r in cells
    }
    table = {}
    for scenario_id in simsuite.SCENARIO_IDS:
        scenario = simsuite.make_scenario(scenario_id, 2)
        for n in (int(v) for v in args.sizes.split(",")):
            worst = dict.fromkeys(cells, 0.0)
            for seed in range(args.seeds):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
                predictors, responses = simsuite.generate(scenario, n, rng)
                multipliers = goftest.golden_section_draws((args.bootstrap, n), rng)
                _, residuals, _ = goftest.null_bootstrap(
                    predictors, responses, scenario.family, multipliers
                )
                for cell, pair in configs.items():
                    coarse, fine = (
                        goftest.streamed_statistic(predictors, cfg, residuals)[0] for cfg in pair
                    )
                    gap = float(np.max(np.abs(coarse - fine) / np.abs(fine)))
                    worst[cell] = max(worst[cell], gap)
            for (degree, h, r), gap in worst.items():
                table[f"{scenario_id} n={n} p={degree} h={h} r={r}"] = float(f"{gap:.2g}")
            print(f"{scenario_id} n={n} done", file=sys.stderr, flush=True)
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
