"""Simulation and classification laboratory for additive processes with
periodically stationary increments.

Build processes from Levy segments tiling a period, sample their paths and
discrete skeletons exactly in law, and decide recurrence versus transience
by analytic criteria cross-checked against Monte Carlo occupation-time
diagnostics and law-of-large-numbers verifiers.
"""

from . import classify, lln, models, schedule, skeleton
from .models import *
from .schedule import *
from .skeleton import *
from .classify import *
from .lln import *
from .util import split_seed

__version__ = "0.1.0"

# the union of the modules' own public names
__all__ = [*models.__all__, *schedule.__all__, *skeleton.__all__, *classify.__all__, *lln.__all__, "split_seed"]
