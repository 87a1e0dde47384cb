"""The complete pipeline through the command-line interface.

Runs every stage at a deliberately tiny scale: data generation,
autoencoder pre-training, all placeability variants, both graspability
posteriors, the motion predictor, a goal-constrained prediction, and
the final evaluation report.  The run directory is temporary and is
removed when the demo ends.
"""

import json
import os
import tempfile

from intentmotion.harness.cli import main

with tempfile.TemporaryDirectory(prefix="intentmotion_demo_") as workdir:
    config_path = os.path.join(workdir, "config.json")
    with open(config_path, "w") as f:
        json.dump({"personas": 3, "episodes_per_persona": 3,
                   "autoencoder_epochs": 4, "place_epochs": 6, "grasp_epochs": 10,
                   "predictor_epochs": 4, "eval_episode_cap": 3}, f)

    base = ["--seed", "0", "--out", workdir, "--config", config_path]
    stages = [
        ["gen-data"],
        ["train-autoencoder"],
        ["train-place", "--variant", "plain"],
        ["train-place", "--variant", "penalty"],
        ["train-place", "--variant", "transfer"],
        ["train-place", "--variant", "transfer-penalty"],
        ["train-place", "--variant", "no-cnn"],
        ["train-grasp"],
        ["train-predictor"],
        ["predict", "--goal-source", "affordance", "--goal-mode", "place"],
        ["export-heatmap"],
        ["eval"],
    ]
    for stage in stages:
        print(f"\n$ intentmotion {' '.join(stage)}")
        code = main(stage + base)
        assert code == 0, f"stage {stage} exited with {code}"

    # the report is printed here: the work directory is removed on exit
    print(f"\nall stages finished; report files in {workdir}/report:")
    for name in sorted(os.listdir(os.path.join(workdir, "report"))):
        print(" ", name)
    print("\nper-timestep motion errors:")
    with open(os.path.join(workdir, "report", "motion.txt")) as f:
        print(f.read())
