"""The argument contract: every moment route and every integer argument is
checked by `errors.require_int`, so a bool, a non-integer or a value below
the argument's bound raises InvalidParameterError naming the value, and an
integral numpy scalar gives the same result as the int."""

import numpy as np
import pytest

from nimspec import _recurrence, deltoid, graphs, measures, paths, series, subgroups
from nimspec.errors import InvalidParameterError

A3 = graphs.by_id("A(3)")
TORUS = measures.canonical_measure("SU3-A(6)")
CIRCLE = measures.canonical_measure("A(5)")
BT = subgroups.class_data(subgroups.generate_group("BT"))
A3_EIGEN = graphs.eigendata("A(3)")


def _values(result):
    """A comparable form of a route's result: arrays by their bytes (so NaNs
    compare), matrix series by their blocks, measures by their atoms."""
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if isinstance(result, tuple):
        return tuple(map(_values, result))
    if isinstance(result, series.MatrixSeries):
        return _values(result.blocks), result.tail
    if isinstance(result, measures.DiscreteMeasure):
        return result.atoms
    return result


# name -> (call of one integer argument, a valid value for it)
CALLS = {
    "paths.moments:m": (lambda k: paths.moments(A3, [(k, 1)]), 2),
    "paths.moments:n": (lambda k: paths.moments(A3, [(1, k)]), 2),
    "moment_path_count:m": (lambda k: paths.moment_path_count(A3, k), 2),
    "moment_path_count:n": (lambda k: paths.moment_path_count(A3, 1, k), 2),
    "moment_table:max_m": (lambda k: paths.moment_table(A3, k), 2),
    "moment_table:max_n": (lambda k: paths.moment_table(A3, 1, k), 2),
    "moment_formula_su3_A6inf:m": (lambda k: paths.moment_formula_su3_A6inf(k, 5), 2),
    "moment_formula_su3_A6inf:n": (lambda k: paths.moment_formula_su3_A6inf(5, k), 2),
    "moment_formula_su3_Ainf:m": (lambda k: paths.moment_formula_su3_Ainf(k, 5), 2),
    "moment_formula_su3_Ainf:n": (lambda k: paths.moment_formula_su3_Ainf(5, k), 2),
    "eigen_moment:m": (lambda k: graphs.eigen_moment(A3_EIGEN, k), 2),
    "eigen_moment:n": (lambda k: graphs.eigen_moment(A3_EIGEN, 1, k), 2),
    "subgroup_moment": (lambda k: subgroups.subgroup_moment(BT, k), 2),
    "moment_t": (lambda k: measures.moment_t(CIRCLE, k), 2),
    "moments_t": (lambda k: measures.moments_t(CIRCLE, [1, k]), 2),
    "moment_t_exact": (lambda k: measures.moment_t_exact(CIRCLE, k), 2),
    "moment_t2:m": (lambda k: measures.moment_t2(TORUS, k, 1), 2),
    "moment_t2:n": (lambda k: measures.moment_t2(TORUS, 1, k), 2),
    "moments_t2": (lambda k: measures.moments_t2(TORUS, [(1, 1), (k, 0)]), 2),
    "combinatorial_dimension": (lambda k: paths.combinatorial_dimension("su3_group", k), 2),
    "su3_path_count_formula:n": (lambda k: paths.su3_path_count_formula(k, 1, 1), 3),
    "su3_path_count_formula:l1": (lambda k: paths.su3_path_count_formula(4, k, 0), 1),
    "su3_path_count_formula:l2": (lambda k: paths.su3_path_count_formula(4, 0, k), 2),
    "hecke_dimension": (lambda k: paths.hecke_dimension(k, 1, 1), 2),
    "hecke_shapes": (lambda k: paths.hecke_shapes(k), 2),
    "TruncatedSeries.zero": (lambda k: series.TruncatedSeries.zero(k), 2),
    "TruncatedSeries.one": (lambda k: series.TruncatedSeries.one(k), 2),
    "circle_series": (lambda k: measures.circle_series(CIRCLE, k), 2),
    "circle_series:float": (
        lambda k: measures.circle_series(measures.canonical_measure("E(8)"), k), 2),
    "inverse_quadratic": (lambda k: series.TruncatedSeries.inverse_quadratic(1, k), 2),
    "loop_series": (lambda k: series.loop_series(A3, k), 2),
    "hilbert_su2:order": (lambda k: series.hilbert_su2(A3, k), 2),
    "_solve:numerator degree": (
        lambda k: _recurrence._solve(A3, False, 6, (k, _recurrence._identity_rows(3))), 2),
    "poly_from_factors:k": (lambda k: series.poly_from_factors([(-1, k)], 6), 2),
    "molien_abelian:m": (lambda k: series.molien_abelian(k, (1, 1, 0), 0, 4), 2),
    "abelian_mckay:m": (lambda k: series.abelian_mckay(k, (1, 1, 0)).out_edges, 2),
    "uniform_roots": (lambda k: measures.uniform_roots(k), 2),
    "d_measure": (lambda k: measures.d_measure(k), 2),
    "with_alpha": (lambda k: measures.with_alpha(measures.d_measure(3), k), 2),
    "dl_numerators": (lambda k: deltoid.dl_numerators(k), 4),
    "density_grid": (lambda k: deltoid.density_grid(k), 2),
}

BAD = [-1, 1.5, 2.0, True, "2", None]


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("name", CALLS)
def test_a_bad_integer_argument_raises_a_typed_error_naming_it(name, bad):
    call, _ = CALLS[name]
    with pytest.raises(InvalidParameterError) as info:
        call(bad)
    assert repr(bad) in str(info.value)


@pytest.mark.parametrize("name", CALLS)
def test_a_numpy_integer_argument_gives_the_ints_result(name):
    call, good = CALLS[name]
    assert _values(call(np.int64(good))) == _values(call(good))


@pytest.mark.parametrize("bad", [b for b in BAD if b is not None], ids=repr)
def test_from_coeffs_holds_a_given_order_to_the_contract(bad):
    """from_coeffs's order may be None, which keeps every coefficient; any
    other order is an integer argument like the rest."""
    with pytest.raises(InvalidParameterError) as info:
        series.TruncatedSeries.from_coeffs([1, 2], order=bad)
    assert repr(bad) in str(info.value)
    assert series.TruncatedSeries.from_coeffs([1, 2], order=None).coeffs == [1, 2]
    assert series.TruncatedSeries.from_coeffs([1, 2], order=np.int64(3)).coeffs == [1, 2, 0, 0]


def test_batched_moments_are_keyed_by_the_callers_orders():
    orders = [np.int64(3), 1, np.int16(2)]
    pairs = [(np.int64(2), 1), (0, np.int32(3))]
    for got, asked in [(paths.moments(A3, pairs), pairs),
                       (measures.moments_t(CIRCLE, orders), orders),
                       (measures.moments_t2(TORUS, pairs), pairs)]:
        assert list(got) == asked
