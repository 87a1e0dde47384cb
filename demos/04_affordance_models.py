"""Placeability and graspability on a small synthetic dataset.

Generates a handful of episodes, extracts training pairs, trains the
plain placeability variant and the Gaussian graspability posterior for
a few epochs, and compares them against the heuristic baselines.
"""

import intentmotion.affordance as af
from intentmotion.harness import datasets as ds
from intentmotion.harness import generator as gen

config = gen.GeneratorConfig(seed=2, personas=3, episodes_per_persona=6)
train_eps, test_eps = gen.generate_dataset(config)
print(f"{len(train_eps)} training / {len(test_eps)} test episodes")

place_train, _ = ds.extract_training_pairs(train_eps, "placeability")
place_test, _ = ds.extract_training_pairs(test_eps, "placeability")
print(f"placeability pairs: {len(place_train)} train, {len(place_test)} test")

model = af.assemble_placeability("plain", seed=0)
curve, metrics = af.train_placeability(model, place_train, place_test,
                                       epochs=15, lr=1e-3)
print(f"NLL curve: {curve[0]:.3f} -> {curve[-1]:.3f}")
print(f"test MSE {metrics['test']['mse']:.4f} vs "
      f"baseline {af.baseline_place_mse(place_test):.4f}")

rates = metrics["test"]["valid_region"]
print("valid-region rate by offset:",
      {f"{k:g}s": round(v, 2) for k, v in sorted(rates.items(), reverse=True)})

grasp_train, _ = ds.extract_training_pairs(train_eps, "graspability")
grasp_test, _ = ds.extract_training_pairs(test_eps, "graspability")
gauss = af.assemble_graspability("gaussian", seed=0)
_, gm = af.train_graspability(gauss, grasp_train, grasp_test, epochs=40,
                              lr=2e-3, augment_reflect=True)
stats = af.compute_grasp_stats(grasp_train)
print(f"\ngraspability test MSE {gm['test']['mse']:.4f}")
try:
    print(f"distance-heuristic baseline {af.baseline_grasp_mse(stats, grasp_test):.4f}")
except af.GraspStatsError as exc:
    print(f"baseline undefined on this tiny split: {exc}")
