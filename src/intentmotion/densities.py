"""Posterior families for the affordance models.

Three distributions and their training losses:

* 2-D Gaussian mixtures for placement locations, with the mixture
  density p(x) = sum_i alpha_i N(x; mu_i, diag(sigma_i^2)),
* diagonal 3-D Gaussians for wrist positions, trained with the exact
  NLL (3/2 ln 2pi + 1/2 ln|C| + 1/2 quadratic term),
* von Mises-Fisher on the unit sphere, p(x) = C_3(kappa) exp(kappa mu.x)
  with C_p(kappa) = kappa^(p/2-1) / ((2pi)^(p/2) I_(p/2-1)(kappa)).

The ``*_graph`` functions build the same losses on the autodiff tape
from raw network head outputs, so gradients reach the network.  The
plain functions evaluate on numpy for inference and testing.

Head layouts (all parameterizations give valid distributions for any
raw values): mixture component (logit alpha, mu_x, mu_y, log sigma_x,
log sigma_y); Gaussian (3 mean, 3 log variance); vMF (3 direction
pre-normalization, kappa via softplus, distance via softplus).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

LOG_2PI = math.log(2.0 * math.pi)
LOG_4PI = math.log(4.0 * math.pi)
PDF_FLOOR = 1e-12  # keeps the NLL finite on far-out labels


@dataclass(frozen=True)
class MixtureDensity2D:
    alpha: np.ndarray  # (m,) simplex
    mu: np.ndarray  # (m, 2) meters, plane frame
    sigma: np.ndarray  # (m, 2) positive std deviations

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        if a.ndim != 1 or mu.shape != (a.size, 2) or s.shape != (a.size, 2):
            raise ValueError("inconsistent mixture shapes")
        if a.size < 1 or abs(a.sum() - 1.0) > 1e-12 or np.any(s <= 0):
            raise ValueError("invalid mixture parameters")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", s)

    @property
    def m(self):
        return self.alpha.size


@dataclass(frozen=True)
class DiagGaussian3:
    mu: np.ndarray  # (3,)
    var: np.ndarray  # (3,) positive variances

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        var = np.asarray(self.var, dtype=float)
        if mu.shape != (3,) or var.shape != (3,):
            raise ValueError("DiagGaussian3 needs 3D mean and variances")
        if np.any(var <= 0) or not np.all(np.isfinite(var)):
            raise ValueError("variances must be positive and finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "var", var)


@dataclass(frozen=True)
class VmfDistribution:
    mu: np.ndarray  # unit 3-vector
    kappa: float  # concentration >= 0
    p: int = 3

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (3,) or abs(np.linalg.norm(mu) - 1.0) > 1e-9:
            raise ValueError("mean direction must be a unit 3-vector")
        if self.kappa < 0 or self.p != 3:
            raise ValueError("kappa must be >= 0 and p fixed to 3")
        object.__setattr__(self, "mu", mu)


# ---------------------------------------------------------------------------
# mixture density


def _one_row(batched, dist, x):
    return float(batched(dist.alpha[None], dist.mu[None], dist.sigma[None],
                         np.asarray(x, dtype=float)[None])[0])


def mdn_pdf(dist, x):
    return _one_row(mdn_pdfs, dist, x)


def mdn_nll(dist, x):
    return _one_row(mdn_nlls, dist, x)


def mdn_pdfs(alpha, mu, sigma, x):
    """Densities (N,) of points ``x`` (N, 2), row i under the mixture of
    row i of the ``mdn_heads`` arrays."""
    z = (x[:, None, :] - mu) / sigma
    comp = np.exp(-0.5 * (z**2).sum(axis=-1)) / (2 * np.pi * sigma.prod(axis=-1))
    return (alpha * comp).sum(axis=-1)


def mdn_nlls(alpha, mu, sigma, x):
    """Floored NLLs (N,), -log(pdf + PDF_FLOOR), of points ``x`` (N, 2)
    under the rows' mixtures."""
    # math.log per row: np.log rounds differently in the last bit on about
    # 1 in 800 random inputs (numpy 2.4)
    return np.array([-math.log(p + PDF_FLOOR)
                     for p in mdn_pdfs(alpha, mu, sigma, x).tolist()])


def mdn_heads(raw):
    """Raw head outputs (N, 5m) -> alpha (N, m), mu (N, m, 2), sigma (N, m, 2).

    Each row is a valid mixture: a row that ``MixtureDensity2D`` would
    reject (a sigma that underflows to 0) raises its ValueError.
    """
    raw = np.asarray(raw, dtype=float)
    comp = raw.reshape(raw.shape[0], raw.shape[1] // 5, 5)
    logits = comp[..., 0] - comp[..., 0].max(axis=-1, keepdims=True)
    e = np.exp(logits)
    alpha = e / e.sum(axis=-1, keepdims=True)
    sigma = np.exp(comp[..., 3:5])
    if np.any(np.abs(alpha.sum(axis=-1) - 1.0) > 1e-12) or np.any(sigma <= 0):
        raise ValueError("invalid mixture parameters")
    return alpha, comp[..., 1:3], sigma


def mdn_head(raw):
    """Raw head output (5m,) -> valid MixtureDensity2D."""
    alpha, mu, sigma = mdn_heads(np.reshape(raw, (1, -1)))
    return MixtureDensity2D(alpha=alpha[0], mu=mu[0], sigma=sigma[0])


def mdn_top_component(dist):
    return int(np.argmax(dist.alpha))  # argmax takes the lowest index on ties


def mdn_responsible_component(dist, x, spread):
    """Component most responsible for a point ``x`` known to +-``spread``.

    Maximizes log alpha_k + log N(x; mu_k, diag(sigma_k^2 + spread^2)),
    i.e. the posterior over components when ``x`` is itself an isotropic
    Gaussian estimate with standard deviation ``spread``.  Ties go to the
    lowest index.
    """
    var = dist.sigma ** 2 + spread ** 2
    sq = (np.asarray(x, dtype=float) - dist.mu) ** 2 / var
    with np.errstate(divide="ignore"):  # a zero weight scores -inf
        score = np.log(dist.alpha) - 0.5 * (sq + np.log(var)).sum(axis=-1)
    return int(np.argmax(score))


def mdn_nll_graph(raw, x):
    """Mean floored NLL of ground truth ``x`` (N, 2) under raw heads (N, 5m)."""
    n = raw.values.shape[0]
    m = raw.values.shape[1] // 5
    comp = ad.reshape(raw, (n, m, 5))
    logits = comp[:, :, 0]
    log_alpha = ad.sub(logits, ad.logsumexp(logits, axis=-1, keepdims=True))
    mu = comp[:, :, 1:3]
    log_sigma = comp[:, :, 3:5]
    z = ad.mul(ad.sub(np.asarray(x)[:, None, :], mu),
               ad.exp(ad.mul(log_sigma, -1.0)))
    zsq = ad.sum_(ad.mul(z, z), axis=-1)  # (N, m)
    log_comp = ad.sub(ad.mul(zsq, -0.5),
                      ad.add(ad.sum_(log_sigma, axis=-1), LOG_2PI))
    log_terms = ad.add(log_alpha, log_comp)
    log_pdf = ad.logsumexp(log_terms, axis=-1, extra_const=PDF_FLOOR)
    return ad.mean(ad.mul(log_pdf, -1.0))


# ---------------------------------------------------------------------------
# diagonal Gaussian


def gaussian_head(raw):
    raw = np.asarray(raw, dtype=float).reshape(6)
    return DiagGaussian3(mu=raw[:3], var=np.exp(raw[3:]))


def gaussian_nll(dists, labels):
    """Mean NLL of a batch of DiagGaussian3 against 3D labels."""
    dists = list(dists)
    labels = np.asarray(labels, dtype=float).reshape(len(dists), 3)
    total = 0.0
    for d, y in zip(dists, labels):
        quad = ((y - d.mu) ** 2 / d.var).sum()
        total += 1.5 * LOG_2PI + 0.5 * np.log(d.var).sum() + 0.5 * quad
    return total / len(dists)


def gaussian_nll_graph(raw, labels):
    """Raw heads (N, 6) = (mean, log variance); labels (N, 3)."""
    mu = raw[:, :3]
    logvar = raw[:, 3:]
    diff = ad.sub(np.asarray(labels), mu)
    quad = ad.sum_(ad.mul(ad.mul(diff, diff), ad.exp(ad.mul(logvar, -1.0))),
                   axis=-1)
    per = ad.add(ad.mul(ad.add(ad.sum_(logvar, axis=-1), quad), 0.5),
                 1.5 * LOG_2PI)
    return ad.mean(per)


# ---------------------------------------------------------------------------
# modified Bessel function of the first kind (series, log domain)


def log_bessel_i(s, kappa):
    """log I_s(kappa) by the power series in log domain.

    Terms log t_k = (2k+s) log(kappa/2) - lgamma(k+1) - lgamma(k+s+1)
    are accumulated with a running log-sum-exp until the relative
    truncation drops below 1e-16.  Works for kappa well beyond 100
    because nothing is exponentiated before the final subtraction.
    """
    if kappa < 0 or s < 0:
        raise ValueError("require kappa >= 0 and order s >= 0")
    if kappa == 0.0:
        return 0.0 if s == 0 else -math.inf
    logx = math.log(kappa / 2.0)
    total = None
    for k in range(0, 100000):
        log_t = (2 * k + s) * logx - math.lgamma(k + 1) - math.lgamma(k + s + 1)
        if total is None:
            total = log_t
        else:
            total = max(total, log_t) + math.log1p(math.exp(-abs(total - log_t)))
            if log_t < total - 40.0 and k > kappa / 2.0:
                break
    return total


def bessel_i(s, kappa):
    """I_s(kappa); overflows to inf only past kappa ~ 700 (exp limit)."""
    return math.exp(log_bessel_i(s, kappa))


# ---------------------------------------------------------------------------
# von Mises-Fisher on S^2


def vmf_log_norm(kappa):
    """log C_3(kappa) = (1/2) log kappa - (3/2) log 2pi - log I_1/2(kappa)."""
    if kappa < 1e-12:
        return -LOG_4PI
    return 0.5 * math.log(kappa) - 1.5 * LOG_2PI - log_bessel_i(0.5, kappa)


def vmf_logpdf(dist, x):
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x)
    if abs(norm - 1.0) > 1e-3:
        warnings.warn(f"vmf_logpdf: renormalizing input with |x| = {norm:.6f}")
    x = x / norm
    return vmf_log_norm(dist.kappa) + dist.kappa * float(dist.mu @ x)


def vmf_head(raw):
    """Raw head (5,) -> (VmfDistribution, distance in meters)."""
    raw = np.asarray(raw, dtype=float).reshape(5)
    d = raw[:3]
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("degenerate zero-norm direction output")
    kappa = float(np.logaddexp(0.0, raw[3]))
    dist = float(np.logaddexp(0.0, raw[4]))
    return VmfDistribution(mu=d / norm, kappa=kappa), dist


def vmf_point(object_position, dist, distance):
    """3D prediction point: object centroid plus distance along the mean."""
    return np.asarray(object_position, dtype=float) + distance * dist.mu


def vmf_loss(dist, distance, true_dir, true_dist):
    return -vmf_logpdf(dist, true_dir) + (distance - true_dist) ** 2


def vmf_loss_graph(raw, true_dir, true_dist):
    """Mean vMF NLL at the true direction plus squared distance error.

    ``raw``: (N, 5) tape tensor; true_dir (N, 3) unit rows; true_dist
    (N,).  Uses the closed half-order form C_3(k) = k / (4 pi sinh k),
    stable in the log domain via log_sinh.
    """
    d = raw[:, :3]
    norm = ad.sqrt(ad.sum_(ad.mul(d, d), axis=-1, keepdims=True))
    mu = ad.div(d, norm)
    kappa = ad.softplus(raw[:, 3])
    dot = ad.sum_(ad.mul(mu, np.asarray(true_dir)), axis=-1)
    log_c = ad.sub(ad.log(kappa), ad.add(ad.log_sinh(kappa), LOG_4PI))
    nll = ad.mul(ad.add(log_c, ad.mul(kappa, dot)), -1.0)
    dist = ad.softplus(raw[:, 4])
    derr = ad.sub(dist, np.asarray(true_dist))
    return ad.mean(ad.add(nll, ad.mul(derr, derr)))


# ---------------------------------------------------------------------------
# heatmap export (Fig.-6-style density-over-time inspection)


def density_heatmap(dist, extent):
    """Evaluate the mixture density on a 96 x 96 grid covering a centered
    plane extent (width, depth)."""
    resolution = 96
    w, d = extent
    xs = np.linspace(-w / 2, w / 2, resolution)
    ys = np.linspace(-d / 2, d / 2, resolution)
    grid = np.zeros((resolution, resolution))
    for a, mu, s in zip(dist.alpha, dist.mu, dist.sigma):
        zx = (xs[:, None] - mu[0]) / s[0]
        zy = (ys[None, :] - mu[1]) / s[1]
        grid += a * np.exp(-0.5 * (zx**2 + zy**2)) / (2 * np.pi * s[0] * s[1])
    return grid


def export_heatmap(dist, extent, path_prefix):
    """Write the density grid as CSV and 8-bit binary PGM."""
    grid = density_heatmap(dist, extent)
    csv_path = f"{path_prefix}.csv"
    np.savetxt(csv_path, grid, delimiter=",", fmt="%.9g")
    peak = grid.max()
    img = np.zeros_like(grid, dtype=np.uint8) if peak == 0 else \
        np.round(255 * grid / peak).astype(np.uint8)
    pgm_path = f"{path_prefix}.pgm"
    with open(pgm_path, "wb") as f:
        f.write(f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode())
        f.write(img.tobytes())
    return csv_path, pgm_path
