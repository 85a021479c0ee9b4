"""Simulate a workload's input sequences from a seed and write them to disk.

    python3 bench/inputs.py --workload corridor_run --seed 0 --out DIR

The sequence simulated from --seed goes to DIR/seq, the one simulated at
ACCURACY_SEED to DIR/acc, and the reference arrays the checks use to
DIR/seq.npz and DIR/acc.npz: ground truth for every frame and, for the
sweep, ground truth and odometry of the swept segment in each repeat. Runs
in its own process so that its memory does not count towards the measured
process's peak.
"""

from __future__ import annotations

import argparse
import json
import os

from workloads import (REPEAT_SEED_STRIDE, SWEEP_REPEATS, SWEEP_SEGMENT, WORKLOADS,
                       config_path, import_drslam, simulator_seeds)

import numpy as np  # noqa: E402  (after workloads pins the BLAS threads)


def _poses(poses):
    return np.array([p.q for p in poses]), np.array([p.t for p in poses])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    import_drslam()
    from drslam.config import parse_config
    from drslam.simulator import simulate_sequence, write_sequence

    spec = WORKLOADS[args.workload]
    config = parse_config(config_path(spec["scenario"]))
    for name, seed in simulator_seeds(args.seed).items():
        world = config.world_config(seed=seed)
        seq = simulate_sequence(world)
        write_sequence(seq, os.path.join(args.out, name))

        gt_q, gt_t = _poses([r.gt_pose for r in seq.records])
        ref = {"gt_q": gt_q, "gt_t": gt_t, "stamps": np.array([r.timestamp for r in seq.records]),
               "blackout": np.array([world.dropouts[0].start, world.dropouts[0].end]),
               "dr_sigma_t": np.array(world.dr_sigma_t)}
        if spec["kind"] == "sweep":
            a, b = SWEEP_SEGMENT
            for repeat in range(SWEEP_REPEATS):
                seq_r = seq if repeat == 0 else simulate_sequence(
                    config.world_config(seed=seed + REPEAT_SEED_STRIDE * repeat))
                ref[f"gt_q{repeat}"], ref[f"gt_t{repeat}"] = _poses(
                    [r.gt_pose for r in seq_r.records[a:b]])
                ref[f"odom_q{repeat}"], ref[f"odom_t{repeat}"] = _poses(
                    [r.odom_pose for r in seq_r.records[a:b]])
        np.savez(os.path.join(args.out, f"{name}.npz"), **ref)

        print("input: " + json.dumps({
            "workload": args.workload, "sequence": name, "scenario": spec["scenario"], "seed": seed,
            "frames": len(seq.records), "landmarks": len(seq.world),
            "obs_rows": sum(len(r.detections) for r in seq.records),
            "clutter_rows": sum(1 for r in seq.records for j, _, _ in r.detections if j < 0)}))
        del seq
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
