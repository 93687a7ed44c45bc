"""Exact invariants of integer matrices and the torus bundles they define:
Smith normal forms, K-theory groups, mapping-torus homology, Alexander
polynomials and shift-equivalence certificates, all over arbitrary-precision
integers."""

from . import abelian, bundle, ck, intmat, sft
from .abelian import *  # noqa: F401,F403
from .bundle import *  # noqa: F401,F403
from .ck import *  # noqa: F401,F403
from .intmat import *  # noqa: F401,F403
from .sft import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = list(
    dict.fromkeys(name for m in (abelian, bundle, ck, intmat, sft) for name in m.__all__)
)
