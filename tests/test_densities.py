import math

import numpy as np
import pytest
from scipy.special import iv, roots_legendre

from intentmotion import autodiff as ad
from intentmotion import densities as dn
from intentmotion.autodiff import Tensor, grad_check


def random_mixture(rng, m=None):
    m = m or rng.integers(1, 8)
    alpha = rng.dirichlet(np.ones(m))
    return dn.MixtureDensity2D(alpha=alpha,
                               mu=rng.normal(scale=0.5, size=(m, 2)),
                               sigma=rng.uniform(0.05, 0.4, size=(m, 2)))


def mdn_quadrature(dist, n=400):
    """Grid quadrature of the mixture pdf over an 8-sigma bounding box."""
    lo = (dist.mu - 8 * dist.sigma).min(axis=0)
    hi = (dist.mu + 8 * dist.sigma).max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    grid = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = dn.mdn_pdfs(dist.alpha[None], dist.mu[None], dist.sigma[None],
                       grid).reshape(n, n)
    return np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)


def vmf_sphere_quadrature(kappa, n=200):
    """Gauss-Legendre in cos(theta) times 2pi of azimuth for mu = z-hat."""
    dist = dn.VmfDistribution(mu=np.array([0.0, 0.0, 1.0]), kappa=kappa)
    nodes, weights = roots_legendre(n)
    vals = np.array([
        math.exp(dn.vmf_logpdf(dist, np.array([math.sqrt(max(0, 1 - u**2)), 0.0, u])))
        for u in nodes])
    return 2 * math.pi * float(weights @ vals)


class TestMixture:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            dn.MixtureDensity2D(alpha=np.array([0.5, 0.4]),
                                mu=np.zeros((2, 2)), sigma=np.ones((2, 2)))
        with pytest.raises(ValueError):
            dn.MixtureDensity2D(alpha=np.array([1.0]), mu=np.zeros((1, 2)),
                                sigma=np.array([[0.0, 1.0]]))

    def test_standard_normal_at_mean(self):
        dist = dn.MixtureDensity2D(alpha=np.array([1.0]), mu=np.zeros((1, 2)),
                                   sigma=np.ones((1, 2)))
        assert dn.mdn_pdf(dist, (0.0, 0.0)) == pytest.approx(1 / (2 * math.pi))

    def test_symmetric_mixture(self):
        dist = dn.MixtureDensity2D(alpha=np.array([0.5, 0.5]),
                                   mu=np.array([[1.0, 0.0], [-1.0, 0.0]]),
                                   sigma=np.full((2, 2), 0.3))
        for y in (0.0, 0.2, -0.7):
            assert dn.mdn_pdf(dist, (0.4, y)) == pytest.approx(
                dn.mdn_pdf(dist, (-0.4, y)))

    def test_quadrature_normalization(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            assert mdn_quadrature(random_mixture(rng)) == pytest.approx(1.0, abs=1e-3)

    def test_head_equal_logits(self):
        raw = np.zeros(35)
        dist = dn.mdn_head(raw)
        np.testing.assert_allclose(dist.alpha, np.full(7, 1 / 7))

    def test_head_always_valid(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            raw = rng.normal(scale=5.0, size=35)
            dist = dn.mdn_head(raw)  # constructor enforces invariants
            assert dist.m == 7

    def test_heads_equal_per_row_reference(self):
        # the one-row formulas mdn_head, mdn_pdf and mdn_nll were written
        # with before they became cases of the batched ones
        rng = np.random.default_rng(29)
        raw = rng.normal(scale=3.0, size=(5000, 35))
        x = rng.normal(scale=0.5, size=(5000, 2))
        alpha, mu, sigma = dn.mdn_heads(raw)
        nll = dn.mdn_nlls(alpha, mu, sigma, x)
        for i, r in enumerate(raw):
            comp = r.reshape(-1, 5)
            e = np.exp(comp[:, 0] - comp[:, 0].max())
            want = (e / e.sum(), comp[:, 1:3], np.exp(comp[:, 3:5]))
            dist = dn.mdn_head(r)
            for have in ((alpha[i], mu[i], sigma[i]),
                         (dist.alpha, dist.mu, dist.sigma)):
                assert [a.tobytes() for a in have] == [a.tobytes() for a in want]
            z = (x[i] - want[1]) / want[2]
            comp = np.exp(-0.5 * (z**2).sum(axis=-1)) / (2 * np.pi * want[2].prod(axis=-1))
            pdf = float((want[0] * comp).sum())
            assert dn.mdn_pdf(dist, x[i]) == pdf
            assert nll[i] == dn.mdn_nll(dist, x[i]) == -math.log(pdf + dn.PDF_FLOOR)

    def test_heads_reject_underflowing_sigma(self):
        raw = np.zeros((3, 35))
        raw[1, 3] = -800.0  # log sigma: exp gives 0
        with pytest.raises(ValueError, match="invalid mixture parameters"):
            dn.mdn_heads(raw)
        with pytest.raises(ValueError, match="invalid mixture parameters"):
            dn.mdn_head(raw[1])
        alpha, mu, sigma = dn.mdn_heads(np.zeros((0, 35)))
        assert alpha.shape == (0, 7) and mu.shape == sigma.shape == (0, 7, 2)

    def test_single_component_nll_closed_form(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=5)
        x = rng.normal(size=2)
        dist = dn.mdn_head(raw)
        sigma = dist.sigma[0]
        closed_pdf = math.exp(-(math.log(2 * math.pi) + np.log(sigma).sum()
                                + 0.5 * (((x - dist.mu[0]) / sigma) ** 2).sum()))
        assert dn.mdn_nll(dist, x) == pytest.approx(
            -math.log(closed_pdf + dn.PDF_FLOOR), abs=1e-9)

    def test_nll_graph_matches_numpy(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(4, 35))
        xs = rng.normal(scale=0.5, size=(4, 2))
        graph = dn.mdn_nll_graph(Tensor(raw), xs).item()
        direct = np.mean([dn.mdn_nll(dn.mdn_head(r), x) for r, x in zip(raw, xs)])
        assert graph == pytest.approx(direct, abs=1e-10)

    def test_nll_gradient(self):
        rng = np.random.default_rng(31)
        for _ in range(3):
            raw = rng.normal(size=(2, 10))
            xs = rng.normal(scale=0.5, size=(2, 2))
            err = grad_check(lambda ts: dn.mdn_nll_graph(ts[0], xs), [raw])
            assert err < 1e-4

    def test_expected_and_top(self):
        dist = dn.MixtureDensity2D(alpha=np.array([0.5, 0.5]),
                                   mu=np.array([[-1.0, 0.0], [1.0, 0.0]]),
                                   sigma=np.full((2, 2), 0.2))
        assert dn.mdn_top_component(dist) == 0  # tie -> lowest index
        skewed = dn.MixtureDensity2D(alpha=np.array([0.25, 0.75]), mu=dist.mu,
                                     sigma=dist.sigma)
        assert dn.mdn_top_component(skewed) == 1

    def test_responsible_component_prefers_nearby_mode(self):
        # a rollout endpoint 5 cm from a low-weight mode and 1 m from the
        # high-weight mode picks the nearby one; top-alpha would not
        dist = dn.MixtureDensity2D(alpha=np.array([0.8, 0.2]),
                                   mu=np.array([[0.5, 0.0], [-0.5, 0.0]]),
                                   sigma=np.full((2, 2), 0.1))
        endpoint = np.array([-0.45, 0.0])
        assert dn.mdn_top_component(dist) == 0
        for spread in (0.0, 0.1, 0.2, 0.3):
            assert dn.mdn_responsible_component(dist, endpoint, spread) == 1

    def test_responsible_component_equidistant_takes_higher_alpha(self):
        dist = dn.MixtureDensity2D(alpha=np.array([0.3, 0.7]),
                                   mu=np.array([[0.5, 0.0], [-0.5, 0.0]]),
                                   sigma=np.full((2, 2), 0.1))
        endpoint = np.array([0.0, 0.2])
        for spread in (0.0, 0.2):
            assert dn.mdn_responsible_component(dist, endpoint, spread) == 1
        swapped = dn.MixtureDensity2D(alpha=dist.alpha[::-1], mu=dist.mu,
                                      sigma=dist.sigma)
        assert dn.mdn_responsible_component(swapped, endpoint, 0.2) == 0


class TestGaussian:
    def test_nll_at_mean_identity_cov(self):
        d = dn.DiagGaussian3(mu=np.zeros(3), var=np.ones(3))
        val = dn.gaussian_nll([d], np.zeros((1, 3)))
        assert val == pytest.approx(1.5 * math.log(2 * math.pi), abs=1e-9)
        assert val == pytest.approx(2.756815, abs=1e-6)

    def test_scaling_variance_increases_nll(self):
        prev = -np.inf
        for v in (0.5, 1.0, 2.0, 5.0):
            d = dn.DiagGaussian3(mu=np.zeros(3), var=np.full(3, v))
            cur = dn.gaussian_nll([d], np.zeros((1, 3)))
            assert cur > prev
            prev = cur

    def test_graph_matches_numpy(self):
        rng = np.random.default_rng(6)
        raw = rng.normal(size=(5, 6))
        ys = rng.normal(size=(5, 3))
        graph = dn.gaussian_nll_graph(Tensor(raw), ys).item()
        direct = dn.gaussian_nll([dn.gaussian_head(r) for r in raw], ys)
        assert graph == pytest.approx(direct, abs=1e-10)

    def test_gradient(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            raw = rng.normal(size=(3, 6))
            ys = rng.normal(size=(3, 3))
            assert grad_check(lambda ts: dn.gaussian_nll_graph(ts[0], ys), [raw]) < 1e-4

    def test_gradient_zero_at_mean(self):
        ys = np.array([[0.3, -0.2, 0.9]])
        raw = np.array([[0.3, -0.2, 0.9, 0.1, 0.4, -0.3]])
        t = Tensor(raw)
        ad.backward(dn.gaussian_nll_graph(t, ys))
        np.testing.assert_allclose(t.grad[0, :3], 0.0, atol=1e-12)


class TestBessel:
    def test_i0_at_zero(self):
        assert dn.bessel_i(0, 0.0) == 1.0

    def test_half_order_closed_form_value(self):
        assert dn.bessel_i(0.5, 1.0) == pytest.approx(
            math.sqrt(2 / math.pi) * math.sinh(1.0), rel=1e-12)
        assert dn.bessel_i(0.5, 1.0) == pytest.approx(0.937674, abs=1e-6)

    def test_half_order_series_vs_closed_form_sweep(self):
        for kappa in np.geomspace(0.01, 50, 60):
            closed = math.sqrt(2 / (math.pi * kappa)) * math.sinh(kappa)
            assert dn.bessel_i(0.5, kappa) == pytest.approx(closed, rel=1e-10)

    def test_integer_orders_vs_scipy(self):
        for s in (0, 1, 2):
            for kappa in (0.1, 1.0, 10.0, 80.0):
                assert dn.bessel_i(s, kappa) == pytest.approx(iv(s, kappa), rel=1e-10)

    def test_large_kappa_log_domain(self):
        # direct series terms would overflow float64 well before 500
        val = dn.log_bessel_i(0.5, 500.0)
        closed = 0.5 * math.log(2 / (math.pi * 500.0)) + 500.0 + math.log1p(
            -math.exp(-1000.0)) - math.log(2.0) + math.log(2.0)
        # log(sinh k) = k - log 2 for large k
        assert val == pytest.approx(0.5 * math.log(2 / (math.pi * 500.0)) + 500.0
                                    - math.log(2.0), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            dn.bessel_i(0, -1.0)


class TestVmf:
    def test_uniform_limit(self):
        dist = dn.VmfDistribution(mu=np.array([0.0, 0.0, 1.0]), kappa=0.0)
        val = dn.vmf_logpdf(dist, np.array([1.0, 0.0, 0.0]))
        assert val == pytest.approx(-math.log(4 * math.pi), abs=1e-12)
        assert val == pytest.approx(-2.531024, abs=1e-6)

    def test_kappa2_at_mean(self):
        mu = np.array([0.0, 0.0, 1.0])
        dist = dn.VmfDistribution(mu=mu, kappa=2.0)
        # C_3(k) = k / (4 pi sinh k) by the half-order Bessel identity
        expected = math.log(2.0 / (4 * math.pi * math.sinh(2.0))) + 2.0
        assert dn.vmf_logpdf(dist, mu) == pytest.approx(expected, abs=1e-9)
        assert dn.vmf_logpdf(dist, mu) == pytest.approx(-1.1262444, abs=1e-6)

    @pytest.mark.parametrize("kappa", [0.0, 0.5, 2.0, 10.0, 50.0])
    def test_sphere_quadrature(self, kappa):
        assert vmf_sphere_quadrature(kappa) == pytest.approx(1.0, abs=1e-2)

    def test_rotational_symmetry(self):
        rng = np.random.default_rng(8)
        mu = rng.normal(size=3)
        mu /= np.linalg.norm(mu)
        dist = dn.VmfDistribution(mu=mu, kappa=4.2)
        # two unit vectors with the same dot product against mu
        basis = np.linalg.qr(np.column_stack([mu, rng.normal(size=(3, 2))]))[0]
        dot = 0.37
        for phi in (0.3, 2.2):
            x = dot * mu + math.sqrt(1 - dot**2) * (
                math.cos(phi) * basis[:, 1] + math.sin(phi) * basis[:, 2])
            assert dn.vmf_logpdf(dist, x) == pytest.approx(
                dn.vmf_logpdf(dist, dot * mu + math.sqrt(1 - dot**2) * basis[:, 1]),
                abs=1e-12)

    def test_renormalization_warning(self):
        dist = dn.VmfDistribution(mu=np.array([0.0, 0.0, 1.0]), kappa=1.0)
        with pytest.warns(UserWarning):
            dn.vmf_logpdf(dist, np.array([0.0, 0.0, 1.1]))

    def test_head_normalizes_direction(self):
        dist, _ = dn.vmf_head(np.array([0.0, 0.0, 5.0, 0.0, 0.0]))
        np.testing.assert_allclose(dist.mu, [0.0, 0.0, 1.0])

    def test_head_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            dn.vmf_head(np.zeros(5))

    def test_point_at_predicted_distance(self):
        dist, d = dn.vmf_head(np.array([1.0, 2.0, -1.0, 0.3, 0.8]))
        point = dn.vmf_point(np.array([0.5, 0.5, 1.0]), dist, d)
        assert np.linalg.norm(point - [0.5, 0.5, 1.0]) == pytest.approx(d)

    def test_loss_gradient(self):
        rng = np.random.default_rng(19)
        for _ in range(3):
            raw = rng.normal(size=(2, 5))
            dirs = rng.normal(size=(2, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            dists = rng.uniform(0.1, 0.5, size=2)
            err = grad_check(
                lambda ts: dn.vmf_loss_graph(ts[0], dirs, dists), [raw])
            assert err < 1e-4

    def test_loss_graph_matches_numpy(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=(3, 5))
        dirs = rng.normal(size=(3, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dists = rng.uniform(0.1, 0.5, size=3)
        graph = dn.vmf_loss_graph(Tensor(raw), dirs, dists).item()
        direct = np.mean([
            dn.vmf_loss(*dn.vmf_head(r), d, t) for r, d, t in zip(raw, dirs, dists)])
        assert graph == pytest.approx(direct, abs=1e-9)

    def test_kappa_sweep_minimum(self):
        # at the exact mean the NLL decreases monotonically with kappa;
        # any angular spread in the batch makes the normalizer dominate
        # eventually, giving a finite interior minimum
        mu = np.array([0.0, 0.0, 1.0])
        kappas = np.linspace(0.5, 100.0, 500)
        at_mean = np.array([-dn.vmf_logpdf(dn.VmfDistribution(mu=mu, kappa=k), mu)
                            for k in kappas])
        assert np.all(np.diff(at_mean) < 0)

        rng = np.random.default_rng(14)
        batch = mu + 0.2 * rng.normal(size=(50, 3))
        batch /= np.linalg.norm(batch, axis=1, keepdims=True)
        nll = np.array([
            np.mean([-dn.vmf_logpdf(dn.VmfDistribution(mu=mu, kappa=k), x)
                     for x in batch]) for k in kappas])
        best = nll.argmin()
        assert 0 < best < len(kappas) - 1


class TestHeatmap:
    def test_export_files(self, tmp_path):
        rng = np.random.default_rng(1)
        dist = random_mixture(rng, m=7)
        csv_path, pgm_path = dn.export_heatmap(dist, (1.6, 0.8),
                                               str(tmp_path / "h"))
        grid = np.loadtxt(csv_path, delimiter=",")
        assert grid.shape == (96, 96)
        header = open(pgm_path, "rb").read(15)
        assert header.startswith(b"P5\n96 96\n255\n")
