"""The paper's two stages as fit/transform objects.

DirectSamplingLocator is stage one: from the boundary data alone it
computes the index fields, thresholds them into masks and builds the
initial coefficients.  TotalLeastSquaresReconstructor is stage two: the
alternating total-least-squares solve from that initial pair.  A caller
runs them in turn:

    initial = DirectSamplingLocator().fit(data).transform(data)
    rec = TotalLeastSquaresReconstructor().fit(data, initial=initial)

Their constructor arguments are the method's own parameters, stored
under their own names: the backgrounds, the cutoff theta, the scale
c_phi and the oversampling for stage one; the weights alpha and beta per
coefficient, the outer-iteration count and mu's value where it is known
for stage two.  Both stages work in the box [BOX_LO, BOX_HI] of the
experiments module.  All numerical work lives in the functional modules;
these classes only orchestrate and validate inputs.
"""

from . import dsm
from .experiments import (BACKGROUND_MU, BACKGROUND_SIGMA, BOX_HI, BOX_LO,
                          DEFAULT_C_PHI, DEFAULT_WEIGHTS, clip_to_box)
from .forward import check_measurements
from .model import CoefficientPair
from .optimizer import AdiConfig, adi_reconstruct
from .regularization import RegConfig


class DirectSamplingLocator:
    """Stage one: index fields, thresholded masks, initial coefficients.

    fit() computes everything from the measurement list alone; transform()
    returns the box-clipped initial CoefficientPair the least-squares
    stage starts from.  An empty mask is not reported here: it matters
    only for a coefficient that stage two reconstructs, which the caller
    knows (cli.cmd_dsm warns for those).
    """

    def __init__(self, background_sigma=BACKGROUND_SIGMA,
                 background_mu=BACKGROUND_MU, theta=dsm.DEFAULT_THETA,
                 c_phi=DEFAULT_C_PHI, oversample=2):
        self.background_sigma = background_sigma
        self.background_mu = background_mu
        self.theta = theta
        self.c_phi = c_phi
        self.oversample = oversample

    def fit(self, measurements, y=None):
        sets = check_measurements(measurements)
        reference = dsm.homogeneous_reference(
            self.background_sigma, self.background_mu,
            [m.h for m in sets], oversample=self.oversample)
        delta = dsm.scattered_data(sets, reference)
        index = dsm.compute_index(delta, self.background_sigma,
                                  self.background_mu)
        self.index_sigma_ = index.phi_sigma
        self.index_mu_ = index.phi_mu
        self.atoms_ = index.atoms
        self.mask_sigma_ = dsm.threshold_subdomain(index.phi_sigma, self.theta)
        self.mask_mu_ = dsm.threshold_subdomain(index.phi_mu, self.theta)
        init_sigma = dsm.build_initial_guess(
            index.phi_sigma, self.mask_sigma_, self.c_phi, self.background_sigma)
        init_mu = dsm.build_initial_guess(
            index.phi_mu, self.mask_mu_, self.c_phi, self.background_mu)
        self.initial_sigma_ = clip_to_box(init_sigma)
        self.initial_mu_ = clip_to_box(init_mu)
        return self

    def transform(self, measurements) -> CoefficientPair:
        if not hasattr(self, "initial_sigma_"):
            self.fit(measurements)
        return CoefficientPair(self.initial_sigma_, self.initial_mu_)


class TotalLeastSquaresReconstructor:
    """Stage two: alternating minimization from an initial coefficient pair."""

    def __init__(self, alpha_sigma=DEFAULT_WEIGHTS[0], beta_sigma=DEFAULT_WEIGHTS[1],
                 alpha_mu=DEFAULT_WEIGHTS[2], beta_mu=DEFAULT_WEIGHTS[3],
                 max_outer=50, known_mu=None):
        self.alpha_sigma = alpha_sigma
        self.beta_sigma = beta_sigma
        self.alpha_mu = alpha_mu
        self.beta_mu = beta_mu
        self.max_outer = max_outer
        self.known_mu = known_mu

    def config(self) -> AdiConfig:
        """The alternation's settings: these weights on the box
        [BOX_LO, BOX_HI], the outer-iteration count and the known mu.  The
        command line's reconstruct stage runs with them too."""
        return AdiConfig(
            reg_sigma=RegConfig(self.alpha_sigma, self.beta_sigma, BOX_LO, BOX_HI),
            reg_mu=RegConfig(self.alpha_mu, self.beta_mu, BOX_LO, BOX_HI),
            max_outer=self.max_outer, known_mu=self.known_mu)

    def fit(self, measurements, initial: CoefficientPair | None = None):
        sets = check_measurements(measurements)
        grid = sets[0].grid
        if initial is None:
            initial = CoefficientPair.constant(grid, BACKGROUND_SIGMA, BACKGROUND_MU)
        self.report_ = adi_reconstruct(sets, initial, self.config())
        self.sigma_ = self.report_.coefficients.sigma
        self.mu_ = self.report_.coefficients.mu
        return self

    def predict(self, measurements=None) -> CoefficientPair:
        if not hasattr(self, "report_"):
            raise RuntimeError("call fit before predict")
        return CoefficientPair(self.sigma_, self.mu_)

