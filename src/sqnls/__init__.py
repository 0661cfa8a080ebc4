"""Semiclassical focusing NLS asymptotics for square-barrier initial data.

Modules:
  specfun        elliptic integrals, dilogarithm, theta sums, path quadrature
  scattering     exact forward-scattering data of the barrier
  phase_geometry level-set topology, band endpoint and its solver, breaking curves
  genus0         pre-break (plane-wave) asymptotics
  genus1         post-break (theta-function) asymptotics, the envelope diagnostic
  nls_direct     split-step Fourier reference integrator
  field          region classification, grid sampling, the table of every command
  cli            command line: arguments, config file, dispatch, exit status
"""

from .field import Region, classify, psi_asymptotic
from .genus0 import psi_asy_g0
from .genus1 import psi_asy_g1
from .nls_direct import default_config, evolve
from .phase_geometry import first_breaking_time, second_breaking_time, solve_endpoint
from .scattering import BarrierParams

__all__ = [
    "BarrierParams",
    "Region",
    "classify",
    "default_config",
    "evolve",
    "first_breaking_time",
    "psi_asy_g0",
    "psi_asy_g1",
    "psi_asymptotic",
    "second_breaking_time",
    "solve_endpoint",
]
