"""lipkit: certified Lipschitz bounds for computation graphs and the
spectral calculus underlying them."""

from .matcore import DenseMatrix, SvdTriple, full_svd, kron, unvec, vec
from .svdcalc import (
    JordanWielandt,
    PerturbationSeries,
    ReducedResolvent,
    fd_gradient_oracle,
    fd_hessian_oracle,
    jordan_wielandt,
    reduced_resolvent,
    sv_expansion_coeff,
    sv_hessian,
    sv_hessian_apply,
    sv_hessian_contract,
    sv_jacobian,
)
from .specest import (
    bjorck_orthogonalize,
    cayley_orthogonal,
    expmap_orthogonal,
    local_lipschitz_sample,
    power_iteration,
    semi_orthogonality_defect,
)
from .activations import (
    ActivationSpec,
    closed_form_lipschitz,
    make_activation,
    numeric_scalar_lipschitz,
    numeric_softmax_lipschitz,
    softmax_jacobian,
)
from .netbounds import (
    NetworkGraph,
    Node,
    NodeLip,
    articulation_bound,
    attention_bound,
    certified_radius,
    dag_bound,
    lip_algebra,
    node_lipschitz,
    product_bound,
    residual_bound,
)
from .fourlip import (
    SpectralSignal,
    band_bound,
    band_remove,
    directional_transform,
    grid_gradient_sup,
    mi_gap_bound,
    radial_esd,
    snr,
    spectral_contribution,
    spectral_lipschitz_bound,
)
from .dynamics import (
    LayerDynamicsState,
    NetworkDynamics,
    aggregate,
    driving_forces,
    euler_maruyama,
    log_lip_increment,
    opnorm_jacobian,
    simulate_ensemble,
)
from .specgame import (
    CoalitionGame,
    band_partition,
    coalition_filter,
    importance_score,
    shapley_exact,
    shapley_mc,
)

__version__ = "0.1.0"
