"""Workload `module-stack`: factorization, factored division and the module layer.

Time goes to `division.remainder_polynomial` (m+1 `divide_linear` calls
plus interpolation), the `polynomials` root search, `series` arithmetic
and the `modules` fixed point, while `elements.mul` only sees moderate
operands.  It mostly bypasses the dense kernels of `dense-kernels`.
"""

from __future__ import annotations

import random

from abalg import division, elements, modules
from abalg.coefficients import GaussianRational
from abalg.division import FactoredProduct
from abalg.elements import LEFT, RIGHT, AlgebraElement
from abalg.modules import DifferentialSystem, Fresco, SimplePoleModule
from abalg.series import APolynomial, BSeries

import gen
from harness import Op

NAME = "module-stack"

FULL = {
    "factor": (4, 5, 6, 7, 8),  # number of linear forms m
    "divide": ((2, 8), (2, 10), (3, 8), (3, 10), (4, 10), (4, 12)),  # (factors k, order N)
    "fresco_act": ((2, 8), (2, 10), (3, 8), (3, 10)),  # (rank k, order N)
    "module_act": ((2, 10), (2, 12), (3, 10), (3, 12), (4, 10), (4, 12)),  # (rank k, b-order N)
    "ode2ab": ((2, 8), (3, 6), (2, 10)),  # (rank k, order)
    "spectrum": (3, 4, 5, 6, 3, 4, 5, 6),  # matrix rank, for bernstein and geometric
}
TINY = {
    "factor": (3,),
    "divide": ((2, 4),),
    "fresco_act": ((2, 4),),
    "module_act": ((2, 3),),
    "ode2ab": ((2, 3),),
    "spectrum": (3,),
}

def _split_product(rng, m):
    """c * b * prod (a - lam_i b), at order m + 1.

    The order of the factors changes the product and the cost of the root
    searches that take it apart, so it is fixed; the seed draws signs.
    """
    order = m + 1
    x = AlgebraElement.monomial(0, 1, order, GaussianRational(rng.choice((2, -2))))
    a, b = elements.gen_a(order), elements.gen_b(order)
    for lam in gen.lambdas(rng, m, shuffle=False):
        x = elements.mul(x, a - elements.scale(lam, b))
    return x


def _product(rng, shape, k, n):
    return FactoredProduct(tuple((GaussianRational(lam), gen.bseries_unit(rng, shape, n))
                                 for lam in gen.product_lambdas(rng, k)), n)


def make_inputs(seed: int, tiny: bool = False) -> list:
    """The op pool.  Sizes, supports and value multisets are the same for every
    seed (they come from `shape`); the seed orders values and draws signs."""
    rng = random.Random(f"{NAME}:{seed}")
    shape = random.Random(f"{NAME}:shape")
    sizes = TINY if tiny else FULL
    ops = []

    def add(kind, label, *args):
        ops.append(Op(len(ops), kind, label, args))

    for m in sizes["factor"]:
        add("factor", f"m={m}", _split_product(rng, m))
    for k, n in sizes["divide"]:
        add("divide", f"k={k} N={n}", gen.sparse_element(rng, shape, n, 10),
            _product(rng, shape, k, n))
    for k, n in sizes["fresco_act"]:
        fresco = Fresco(_product(rng, shape, k, n))
        rep = APolynomial.from_element(
            gen.sparse_element(rng, shape, n, 4, RIGHT, max_degree=k - 1))
        add("fresco_act", f"k={k} N={n}", gen.sparse_element(rng, shape, n, 5), rep, fresco)
    for k, n in sizes["module_act"]:
        module = SimplePoleModule(gen.matrix(rng, k), n)
        v = module.element([BSeries(n, dict(zip(shape.sample(range(0, n + 1), 3),
                                                gen.small_values(rng, 3)))) for _ in range(k)])
        # the second element is the referee's: y.(x.v) must equal (y x).v
        add("module_act", f"k={k} N={n}", gen.sparse_element(rng, shape, n, 4, RIGHT), v,
            module, gen.sparse_element(rng, shape, n, 3, RIGHT))
    for k, order in sizes["ode2ab"]:
        system = DifferentialSystem(tuple(gen.shuffled_matrix(rng, k)
                                          for _ in range(3)))
        add("ode2ab", f"k={k} order={order}", system, order)
    for i, k in enumerate(sizes["spectrum"]):
        # the second matrix of each rank has a negative eigenvalue
        negative = i >= len(sizes["spectrum"]) // 2
        theta, eigen = gen.spectrum_matrix(rng, k, shape, negative)
        add("bernstein", f"k={k}", SimplePoleModule(theta, 0), eigen)
        theta, eigen = gen.spectrum_matrix(rng, k, shape, negative)
        add("geometric", f"k={k}", SimplePoleModule(theta, 0), eigen)
    return ops


def execute(op: Op):
    # Module attributes are looked up per call so that the traced run's spans see them.
    kind, args = op.kind, op.args
    if kind == "factor":
        return division.factor_homogeneous(args[0])
    if kind == "divide":
        return division.divide(args[0], args[1])
    if kind == "fresco_act":
        return modules.fresco_act(*args)
    if kind == "module_act":
        return modules.act(args[0], args[1], args[2])
    if kind == "ode2ab":
        return modules.from_differential_system(*args)
    if kind == "bernstein":
        return modules.bernstein(args[0])
    if kind == "geometric":
        return modules.is_geometric_spectrum(args[0])
    raise ValueError(f"unknown op kind {kind}")


def _division_identity(x, product, res) -> bool:
    """x = Q P + R in the order-N quotient, with R of a-degree below k."""
    n = x.order
    k = len(product)
    if res.remainder.a_degree is not None and res.remainder.a_degree > k - 1:
        return False
    recon = elements.mul(res.quotient.lifted(n), product.expanded(n)) \
        + res.remainder.to_element(LEFT)
    return recon == x


def check(op: Op, result) -> bool:
    kind, args = op.kind, op.args
    if kind == "factor":
        # A partial factorization (a core left unfactored) is documented behaviour;
        # the peel ratio of the traced run shows the wasted root searches.
        return result.expanded() == args[0]
    if kind == "divide":
        return _division_identity(args[0], args[1], result)
    if kind == "fresco_act":
        x, rep, fresco = args
        if result.a_degree is not None and result.a_degree > fresco.rank - 1:
            return False
        prod = elements.mul(x, rep.to_element(LEFT))
        diff = prod - result.to_element(LEFT)
        res = division.divide(diff, fresco.product)
        return res.remainder.is_zero and _division_identity(diff, fresco.product, res)
    if kind == "module_act":
        x, v, module, y = args
        yx = elements.mul(y.to_left(), x.to_left()).to_right()
        return modules.act(y, result, module) == modules.act(yx, v, module)
    if kind == "ode2ab":
        system, order = args
        module, coeffs = result
        return (len(coeffs) == order + 1 and module.x_at_zero() == system.residue
                and modules.satisfies_system(module, system))
    if kind == "bernstein":
        expected = gen.poly_from_roots(sorted({-e for e in args[1]}))
        return list(result.coeffs) == expected
    if kind == "geometric":
        eigen = tuple(sorted(args[1]))
        return result.eigenvalues == eigen and result.is_geometric == all(e > 0 for e in eigen)
    raise ValueError(f"unknown op kind {kind}")
