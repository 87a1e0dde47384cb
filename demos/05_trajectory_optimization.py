"""Goal-constrained full-body prediction with L-BFGS.

Trains the recurrent predictor briefly, then optimizes control
perturbations so the predicted right wrist ends at a chosen goal, and
shows the goal-weight tradeoff.
"""

import os
import tempfile

import numpy as np

import intentmotion.trajopt as tj
from intentmotion.harness import datasets as ds
from intentmotion.harness import generator as gen

config = gen.GeneratorConfig(seed=3, personas=3, episodes_per_persona=8)
train_eps, test_eps = gen.generate_dataset(config)
windows, _ = ds.extract_training_pairs(train_eps, "predictor")
print(f"training on {len(windows)} motion windows")
# ramp_epochs=1 switches to fully self-fed rollouts after the first epoch,
# so the remaining losses are directly comparable
predictor, curve = tj.train_predictor(windows, epochs=12, lr=1e-3, seed=0,
                                      ramp_epochs=1)
print(f"self-fed rollout MSE: {curve[1]:.4f} -> {curve[-1]:.4f}")

problem = ds.prediction_problems(test_eps)[0]
goal = np.asarray(problem["event"].point)
print(f"\nplace goal: {np.round(goal, 3)}")

free = tj.unroll(predictor, problem["observed"],
                 np.zeros((tj.HORIZON, tj.STATE_DIM))).values
lo = 3 * 8  # right wrist block
d_free = np.linalg.norm(free[-1, lo:lo + 3] - (goal + [0, 0, tj.HOVER_OFFSET]))
print(f"unconstrained rollout final wrist misses the target by {d_free:.3f} m")

traj, delta, diag = tj.predict_fullbody(predictor, problem["observed"], goal,
                                        goal_mode="place")
print(f"optimized rollout reaches within {diag['goal_distance']:.3f} m "
      f"after {diag['iterations']} iterations (|delta| = {diag['delta_norm']:.3f})")

print("\ngoal-weight sweep (distance is non-increasing in alpha2):")
for alpha2 in (0.1, 1.0, 10.0, 100.0):
    _, _, d = tj.predict_fullbody(predictor, problem["observed"], goal,
                                  goal_mode="place", alpha2=alpha2)
    print(f"  alpha2={alpha2:6.1f}  goal distance {d['goal_distance']:.4f} m")

path = os.path.join(tempfile.gettempdir(), "optimized_trajectory.csv")
tj.export_trajectory_csv(traj, path)
print(f"\ntrajectory written to {path}")
