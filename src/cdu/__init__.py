"""Finite-field toolkit for c-differential uniformity of bivariate functions.

Build a base field, pair it with its quadratic extension, evaluate a
construction family, measure c-DDTs by brute force and check them against
the closed-form predictions:

    from cdu import make_field, make_quadext, parse_func_spec, ddt, predict

    base = make_field(2, 4)
    qx = make_quadext(base, base.parse_elem("w^3"))
    spec = parse_func_spec("genlinh{L=x;h=inv}")
    result = predict.verify(spec, qx, ddt.c_all_biv(base.q))
    assert result.ok
"""

from . import ddt, funcs, gf, oracles, predict, quadext
from .gf import (FieldCtx, FieldElem, make_field, CduError, SQ, NSQ, ZERO)
from .quadext import BivElem, QuadExtCtx, make_quadext, select_t
from .funcs import (FuncSpec, LinearizedPoly, InnerFunc, func_spec,
                    parse_func_spec, parse_linpoly, linpoly_props,
                    univariate_lift)
from .ddt import CParam, CDdtReport, c_uniformity, sweep, equivalence_check

__all__ = [
    "ddt", "funcs", "gf", "oracles", "predict", "quadext",
    "FieldCtx", "FieldElem", "make_field", "CduError", "SQ", "NSQ", "ZERO",
    "BivElem", "QuadExtCtx", "make_quadext", "select_t",
    "FuncSpec", "LinearizedPoly", "InnerFunc", "func_spec", "parse_func_spec",
    "parse_linpoly", "linpoly_props", "univariate_lift",
    "CParam", "CDdtReport", "c_uniformity", "sweep", "equivalence_check",
]

__version__ = "0.1.0"
