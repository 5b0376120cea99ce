"""Estimator-style front end over the two-stage pipeline.

Thin fit/transform wrappers with the usual get_params/set_params
contract (constructor arguments stored under their own names), so the
pipeline drops into tooling that expects that interface.  The settable
values are the method's own parameters: the backgrounds, the cutoff
theta, the scale c_phi and the oversampling for stage one; the weights
alpha and beta per coefficient, the outer-iteration count and whether mu
is unknown for stage two.  Both stages work in the box [BOX_LO, BOX_HI]
of the experiments module.  All numerical work lives in the functional
modules; these classes only orchestrate and validate inputs.
"""

import inspect

import numpy as np

from . import dsm
from .experiments import BOX_HI, BOX_LO, DEFAULT_C_PHI
from .forward import check_measurements
from .grid import ScalarField
from .model import CoefficientPair
from .optimizer import AdiConfig, adi_reconstruct
from .regularization import RegConfig


class BaseEstimator:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [p.name for p in sig.parameters.values()
                if p.name != "self"
                and p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"unknown parameter {key!r} for "
                                 f"{type(self).__name__}")
            setattr(self, key, value)
        return self


class DirectSamplingLocator(BaseEstimator):
    """Stage one: index fields, thresholded masks, initial coefficients.

    fit() computes everything from the measurement list alone; transform()
    returns the box-clipped initial CoefficientPair the least-squares
    stage starts from.
    """

    def __init__(self, background_sigma=1.0, background_mu=1.0,
                 theta=dsm.DEFAULT_THETA, c_phi=DEFAULT_C_PHI, oversample=2):
        self.background_sigma = background_sigma
        self.background_mu = background_mu
        self.theta = theta
        self.c_phi = c_phi
        self.oversample = oversample

    def fit(self, measurements, y=None):
        sets = check_measurements(measurements)
        grid = sets[0].grid
        reference = dsm.homogeneous_reference(
            self.background_sigma, self.background_mu,
            [m.h for m in sets], oversample=self.oversample)
        delta = dsm.scattered_data(sets, reference)
        index = dsm.compute_index(delta, self.background_sigma,
                                  self.background_mu)
        self.index_sigma_ = index.phi_sigma
        self.index_mu_ = index.phi_mu
        self.mask_sigma_ = dsm.threshold_subdomain(index.phi_sigma, self.theta)
        self.mask_mu_ = dsm.threshold_subdomain(index.phi_mu, self.theta)
        init_sigma = dsm.build_initial_guess(
            index.phi_sigma, self.mask_sigma_, self.c_phi, self.background_sigma)
        init_mu = dsm.build_initial_guess(
            index.phi_mu, self.mask_mu_, self.c_phi, self.background_mu)
        clip = lambda f: ScalarField(grid, np.clip(f.values, BOX_LO, BOX_HI))
        self.initial_sigma_ = clip(init_sigma)
        self.initial_mu_ = clip(init_mu)
        return self

    def transform(self, measurements) -> CoefficientPair:
        if not hasattr(self, "initial_sigma_"):
            self.fit(measurements)
        return CoefficientPair(self.initial_sigma_, self.initial_mu_)


class TotalLeastSquaresReconstructor(BaseEstimator):
    """Stage two: alternating minimization from an initial coefficient pair."""

    def __init__(self, alpha_sigma=1e-2, beta_sigma=2e-2,
                 alpha_mu=5e-4, beta_mu=5e-4, max_outer=50, update_mu=True):
        self.alpha_sigma = alpha_sigma
        self.beta_sigma = beta_sigma
        self.alpha_mu = alpha_mu
        self.beta_mu = beta_mu
        self.max_outer = max_outer
        self.update_mu = update_mu

    def _config(self) -> AdiConfig:
        return AdiConfig(
            reg_sigma=RegConfig(self.alpha_sigma, self.beta_sigma, BOX_LO, BOX_HI),
            reg_mu=RegConfig(self.alpha_mu, self.beta_mu, BOX_LO, BOX_HI),
            max_outer=self.max_outer, update_mu=self.update_mu)

    def fit(self, measurements, initial: CoefficientPair | None = None):
        sets = check_measurements(measurements)
        grid = sets[0].grid
        if initial is None:
            initial = CoefficientPair(
                ScalarField.constant(grid, 1.0), ScalarField.constant(grid, 1.0))
        self.report_ = adi_reconstruct(sets, initial, self._config())
        self.sigma_ = self.report_.coefficients.sigma
        self.mu_ = self.report_.coefficients.mu
        return self

    def predict(self, measurements=None) -> CoefficientPair:
        if not hasattr(self, "report_"):
            raise RuntimeError("call fit before predict")
        return CoefficientPair(self.sigma_, self.mu_)


class TwoStageReconstructor(BaseEstimator):
    """Direct sampling initialization followed by the least-squares solve."""

    def __init__(self, locator: DirectSamplingLocator | None = None,
                 reconstructor: TotalLeastSquaresReconstructor | None = None):
        self.locator = locator
        self.reconstructor = reconstructor

    def fit(self, measurements, y=None):
        sets = check_measurements(measurements)
        self.locator_ = self.locator or DirectSamplingLocator()
        self.reconstructor_ = self.reconstructor or TotalLeastSquaresReconstructor()
        initial = self.locator_.fit(sets).transform(sets)
        self.reconstructor_.fit(sets, initial=initial)
        self.sigma_ = self.reconstructor_.sigma_
        self.mu_ = self.reconstructor_.mu_
        self.report_ = self.reconstructor_.report_
        return self

    def predict(self, measurements=None) -> CoefficientPair:
        if not hasattr(self, "sigma_"):
            raise RuntimeError("call fit before predict")
        return CoefficientPair(self.sigma_, self.mu_)
