"""Run the matched-vs-mismatched noise benchmark at a quick size.

Each experiment pairs a noise model for X with one for Y; the variant whose
losses are the maximum-likelihood match for that pair should recover the
clean products best. This demo runs a reduced grid in about a minute and
prints the relative-error table. Run directly:

    python3 demos/04_noise_model_benchmark.py

A note on problem size: at this size the Frobenius fits win most columns
even on divergence-noise data, and the cause is the score's eps guard, not
the estimators. Where the Poisson counts are all zero a divergence fit
drives its product to the factor floor, as a Poisson MLE does, and the score
charges each such entry c*log(c/eps), about 23c at eps=1e-10. At 100x100
those entries make up 70-78% of the matched score in experiments 2-4; at
300x300 49%, and fro-fro still wins experiment 4; at the paper's 500x500 the
matched variant wins every column after 1000 sweeps (about two minutes on
one core; a long run is not needed). The CLI's default synth-bench size,
100x100, shows the same small-size pattern. Set N = 500, MAX_ITERS = 1000
and TRIALS = 1 below to see the diagonal win.
"""

import time

from ssnmf import synth


N = 60          # matrix side (full-scale runs use 500)
MAX_ITERS = 4000
TRIALS = 3


def main():
    spec = synth.ExperimentSpec(
        n1=N, n2=N, k=N, r=5, density=0.5, lam=1.0, max_iters=MAX_ITERS,
        trials=TRIALS, seed=0,
    )
    started = time.perf_counter()
    grid = synth.run_benchmark(spec, list(synth.EXPERIMENT_IDS))
    elapsed = time.perf_counter() - started

    minima = grid.column_minima()
    matched = [grid.variants.index(synth.MATCHED_VARIANT[e])
               for e in grid.experiments]
    print(f"mean relative error vs clean products "
          f"({TRIALS} trials, {MAX_ITERS} sweeps, {elapsed:.0f}s)\n")
    header = "variant   " + "".join(f"   exp {e}   " for e in grid.experiments)
    print(header)
    for i, variant in enumerate(grid.variants):
        cells = []
        for j in range(len(grid.experiments)):
            mark = "*" if minima[j] == i else " "
            cells.append(f"  {grid.means[i, j]:8.4f}{mark}")
        print(f"{variant.key:<10}" + "".join(cells))
    print("\n* = column winner; matched variants sit on the diagonal")
    hits = sum(1 for a, b in zip(minima, matched) if a == b)
    print(f"matched variant wins {hits}/4 columns at this size "
          f"(see the module docstring for why small sizes favor Frobenius)")


if __name__ == "__main__":
    main()
