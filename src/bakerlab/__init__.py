"""Tools for an entire map built from a ring product.

The map is f(z) = z + exp(h(z)) where h is an infinite product with zeros
on prescribed rings.  The package evaluates h and f without overflow,
verifies the growth and probe-point estimates behind the construction,
replays the contraction-obstruction chain, iterates the map on grids, and
renders the results.

All evaluation of the product goes through `_kernels`: one scalar core
for single points and one vectorized numpy path for batches.
"""

__version__ = "0.1.0"

from .dynamics import Grid, classify_grid, iterate, read_grid, write_grid
from .hfun import EvalResult, NonConvergence, eval_f, eval_g, eval_h, theta
from .logc import LogComplex, Zero
from .params import ParamSeq, load_params, make_toy, validate_1b
from .render import render_escape, render_phase
from .verify import obstruction_chain, verify_2a, verify_2b, verify_2c

__all__ = [
    "EvalResult",
    "Grid",
    "LogComplex",
    "NonConvergence",
    "ParamSeq",
    "Zero",
    "__version__",
    "classify_grid",
    "eval_f",
    "eval_g",
    "eval_h",
    "iterate",
    "load_params",
    "make_toy",
    "obstruction_chain",
    "read_grid",
    "render_escape",
    "render_phase",
    "theta",
    "validate_1b",
    "verify_2a",
    "verify_2b",
    "verify_2c",
    "write_grid",
]
