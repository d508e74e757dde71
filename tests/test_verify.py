import numpy as np

from nascore import autodiff as ad
from nascore import verify


class TestModelGradCheck:
    def test_planted_wrong_gradient_fails(self, monkeypatch):
        # avg_pool's vjp divides by the full window, as if no ceil-mode window
        # were truncated; mini-mvit's (1, 8, 8) K/V pool on the 12x16 check
        # geometry truncates every window
        def full_window_vjp(g, xs, out, attrs):
            (x,) = xs
            stride = tuple(attrs["stride"])
            expand = g / np.prod(stride)
            for axis, s in enumerate(stride, start=1):
                expand = np.repeat(expand, s, axis=axis)
            return (expand[(slice(None), *[slice(0, n) for n in x.shape[1:-1]])],)

        monkeypatch.setattr(ad._AvgPool, "vjp", staticmethod(full_window_vjp))
        assert verify.model_grad_check("mini-mvit", 0) > verify.MODEL_TOLERANCE

    def test_zero_gradient_parameter_passes(self):
        # seed 4 samples s1b0.k.b, whose true derivative is 0: the analytic
        # value is ~1e-19 and the central difference ~4e-11 of rounding noise
        assert verify.model_grad_check("mini-mvit", 4) < verify.MODEL_TOLERANCE

    def test_floor_separates_noise_from_a_wrong_derivative(self):
        floor = verify.fd_floor(4.3, 1e-5)
        assert ad.rel_err(2.6e-19, -4.44e-11, floor) < verify.MODEL_TOLERANCE
        assert ad.rel_err(1e-4, 1.01e-4, floor) > verify.MODEL_TOLERANCE
        # the op-level default is unchanged
        assert ad.rel_err(2.6e-19, -4.44e-11) > verify.MODEL_TOLERANCE
