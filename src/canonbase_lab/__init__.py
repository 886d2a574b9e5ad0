"""canonbase-lab: canonical-base constructions over finite measure spaces,
verified against brute-force oracles.

Import the names from their modules (``rules``, ``measure_core``,
``legendre``, ``lp_canon``, ``oracle``, ``terms``, ``krivine``, ``rv_canon``,
``hilbert_canon``, ``ultra_ball``, ``cli``); ``import canonbase_lab`` alone
loads no submodule and no numpy.
"""

__version__ = "0.1.0"
