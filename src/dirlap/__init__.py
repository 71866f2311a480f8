"""Non-symmetric Laplacians on directed weighted graphs.

Build finite truncations of the Laplacian of a directed graph whose weights
satisfy the Kirchhoff balance, check the structural hypotheses that make the
closed operator m-accretive and m-sectorial, and verify the operator-theoretic
consequences numerically: the Green identity, accretivity of the numerical
range, sector containment, Cheeger lower bounds, resolvent bounds and
contraction or exponential decay of the heat semigroup exp(-tA).
"""

from .graph import *  # noqa: F401,F403
from .generators import *  # noqa: F401,F403
from .operators import *  # noqa: F401,F403
from .semigroup import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403

__version__ = "0.1.0"
