"""Heavy-tailed linear processes, likelihood moment fitting of threshold
excesses, closed-form limit covariances, and Monte Carlo validation."""

from . import asymptotics, estimator, montecarlo, process, second_order
from .asymptotics import *  # noqa: F403
from .estimator import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .process import *  # noqa: F403
from .second_order import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (process, estimator, asymptotics, second_order, montecarlo)
           for name in module.__all__] + ["__version__"]
