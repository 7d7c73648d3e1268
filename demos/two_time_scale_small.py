"""Two-time-scale behaviour on the 60-node ring scenario.

Runs the small preset until every follower row settles next to its own
leader, then reports when follower-level agreement arrived versus when
the whole network agreed.  With a small leader step size the follower
rows collapse onto their leaders an order of magnitude sooner than the
leaders agree with each other.
"""

import argparse

import numpy as np

from cluster_consensus import build_clustered_network, preset_small, run_until


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the preset's topology/value seed")
    args = parser.parse_args()

    spec = preset_small(seed=args.seed) if args.seed is not None else preset_small()
    network = build_clustered_network(spec)
    print(f"network: {network.total_nodes} nodes in {len(network.clusters)} "
          f"clusters, inter-leader delay {spec.tau}")

    result = run_until(network, spec)
    if not result.converged:
        print(f"did not settle within {spec.max_iters} iterations")
        return

    trace = result.trace
    follower = trace.follower_disagreement.max(axis=1)
    crossing = int(np.flatnonzero(follower <= spec.threshold)[0])
    print(f"follower disagreement under {spec.threshold:g} at k = {crossing}")
    print(f"global agreement settled at k = {result.iterations}")
    print(f"time-scale separation: {result.iterations / crossing:.2f}x")

    for k in (0, crossing, result.iterations):
        print(f"  k={k:4d}  follower={follower[k]:.3e}  "
              f"leader={trace.leader_disagreement[k]:.3e}  "
              f"global={trace.global_error[k]:.3e}")


if __name__ == "__main__":
    main()
