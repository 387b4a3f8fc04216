"""tensorjet: higher-order differentiation of program DAGs via multi-tensor series.

Programs are expression DAGs over analytic primitives; evaluating one
together with all its derivative tensors up to a chosen order yields a
derivative tower, on which the package provides an operator toolkit:
truncated Taylor expansion at a point, composition of towers by the
higher-order chain rule (and forward/reverse accumulation over pipelines),
order reduction that turns derivatives back into differentiable programs,
exact Bernoulli-number closed forms for summing a program over equally
spaced shifts, and Schroeder-series fractional iteration of scalar programs.
"""

from .multitensor import (
    MultiTensor,
    Shape,
    ShapeMismatchError,
    add,
    algebra_product,
    contract_once,
    eval_polynomial,
    from_json,
    scale,
    symmetrize,
    to_json,
    truncate,
    zero,
)
from .program import (
    Affine,
    Compose,
    Constant,
    ContractionLayer,
    DerivativeTower,
    DomainEvalError,
    Elementwise,
    ExtractedDerivative,
    Identity,
    Primitive,
    Program,
    ProgramSignature,
    Product,
    Sum,
    derivative_tower,
    evaluate,
    get_primitive,
    integer_power,
    jet,
    primitive_library,
    structurally_equal,
    tensor_network,
)
from .operators import (
    TensorSeries,
    compose_towers,
    differentiable_derivative,
    forward_chain,
    order_reduce,
    reverse_chain,
    series_eval,
    taylor_series,
)
from .reducesum import (
    RationalPoly,
    ShiftOp,
    bernoulli,
    brute_force_partial_sum,
    reduce_sum_apply,
    reduce_sum_closed_form,
    reduce_sum_polynomials,
    reduction_velocity,
)
from .iterators import (
    FixedPointError,
    HyperbolicityError,
    ResonanceError,
    SchroederData,
    convergence_radius,
    find_fixed_point,
    fractional_iterate,
    iterating_velocity,
    schroeder,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
