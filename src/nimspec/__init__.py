"""nimspec: spectral measures, exact moment identities and Hilbert series
for ADE / affine Dynkin diagrams, finite SU(2) subgroups and SU(3) fusion
graphs."""

from .graphs import (
    EigenData,
    EigenEntry,
    Graph,
    by_id,
    eigen_moment,
    eigendata,
)
from .paths import (
    combinatorial_dimension,
    hecke_dimension,
    moment_formula_su3_A6inf,
    moment_formula_su3_Ainf,
    moment_path_count,
    moments,
    su3_path_count_formula,
)
from .measures import (
    DiscreteMeasure,
    canonical_measure,
    cyclotomic_fit,
    make_measure,
    moment_t,
    moment_t2,
    moments_t,
    moments_t2,
)
from .series import (
    MatrixSeries,
    TruncatedSeries,
    cy3_hilbert,
    hilbert_su2,
    hilbert_su3,
    t_series,
    theta_series,
)
from .subgroups import class_data, generate_group, subgroup_moment

__version__ = "0.1.0"
