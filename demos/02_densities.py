"""Probability heads: 2D Gaussian mixtures, 3D Gaussians, von Mises-Fisher.

Shows head decoding from raw network outputs, log likelihoods, and the
density heatmap export used for placement visualization.
"""

import os
import tempfile

import numpy as np

import intentmotion.densities as dn

rng = np.random.default_rng(0)

# a 3-component mixture decoded from a raw head vector
raw = rng.normal(size=15)
mix = dn.mdn_head(raw)
print("mixture weights:", np.round(mix.alpha, 3))
top = mix.mu[dn.mdn_top_component(mix)]
print("mean of the most probable component:", np.round(top, 3))
print("NLL at that mean:", round(dn.mdn_nll(mix, top), 4))

# diagonal 3D Gaussian for wrist positions
g = dn.gaussian_head(np.array([0.1, -0.2, 0.8, -2.0, -2.0, -1.5]))
print("\nGaussian mean:", g.mu, "std:", np.round(np.sqrt(g.var), 3))

# von Mises-Fisher on the sphere: concentration controls spread
for kappa in (0.5, 5.0, 50.0):
    v = dn.VmfDistribution(mu=np.array([0.0, 0.0, 1.0]), kappa=kappa)
    at_mean = dn.vmf_logpdf(v, v.mu)
    print(f"vMF kappa={kappa:5.1f}: logpdf at mean {at_mean:+.3f}")

prefix = os.path.join(tempfile.gettempdir(), "mixture_density")
dn.export_heatmap(mix, (2.0, 2.0), prefix)
print(f"\nheatmap written to {prefix}.{{csv,pgm}}")
