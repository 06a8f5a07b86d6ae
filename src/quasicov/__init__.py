"""Exact computation with the quasi-symmetrizing wreath-product action.

The library computes, in exact arithmetic, the quasi-symmetrizing action of
the generalized symmetric group on polynomials, the reduced Groebner basis
and standard monomials of the ideal generated by quasi-invariants, the
lattice-path basis of the quotient, and its Hilbert series by three
independent routes.
"""

from .scalars import Cyclotomic, cyclotomic_polynomial, euler_phi
from .polynomials import (
    Polynomial,
    apply_diff,
    exponent_vectors,
    parse_polynomial,
    render_polynomial,
    scalar_product,
)
from .qsym import (
    compositions_of,
    elementary_symmetric_power,
    fundamental_qsym,
    monomial_qsym,
    quasi_invariant_generators,
    vector_to_composition,
)
from .group import (
    GroupElement,
    classical_act,
    enumerate_group,
    fixed_space_dimension,
    generators,
    group_mul,
    identity,
    inverse,
    is_quasi_invariant,
    parse_group_element,
    quasi_act,
    render_group_element,
)
from .paths import (
    catalan,
    enumerate_dyck,
    is_dyck,
    minimal_transdiagonal,
    quotient_basis,
)
from .groebner import (
    GroebnerBasis,
    StandardMonomialSet,
    buchberger,
    classical_ideal_basis,
    default_degree_bound,
    direct_quasi_ideal_basis,
    normal_form,
    quasi_ideal_basis,
    reduce_basis,
    reduced_groebner_basis,
    s_polynomial,
    standard_monomials,
    substitute_basis_power,
    verify_buchberger_criterion,
)
from .hilbert import (
    HilbertSeries,
    coinvariant_kernel_dim,
    dyck_series,
    kernel_dims_until_zero,
    quotient_series,
    series_from_monomials,
    single_prefactor_series,
)
from .errors import ResourceLimitError

__version__ = "0.1.0"
