"""canonbase-lab: canonical-base constructions over finite measure spaces,
verified against brute-force oracles.

The names below load their module on first use (PEP 562), so
``import canonbase_lab`` loads no submodule and no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "measure_core": "ExtensionPair LatticeElement MeasureSpace SubStructure band_decompose cond_exp"
    " distance lattice_op lp_norm orthogonal signed_power",
    "legendre": "PLConvexFn attainment_check biconjugate conjugate",
    "krivine": "HomogeneousFn approximate_on_sphere eval_element eval_scalar interpolating_term"
    " parse_term term_sup_norm to_text",
    "lp_canon": "LpCanonicalBase canonical_base_1type canonical_base_ntype f_zero grid_approx"
    " increasing_realisation interval_cond_exp lq_transport p1_counterexample partial_cond_exp"
    " psi remark_counterexample slices",
    "oracle": "DirectionalMass absolute_type_equal type_equal_1 type_equal_n",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted([*globals(), *__all__])
