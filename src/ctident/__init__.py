"""Continuous-time system identification from sampled data.

Estimates strictly proper continuous-time transfer functions by fitting a
discrete-time output-error model to zero-order-hold data, mapping the result
back through the principal logarithms of its poles, and optionally
enforcing a known relative degree by a covariance-weighted projection that
is optimal in the asymptotic sense.
"""

from . import errors
from .lti import (
    CtModel,
    DtModel,
    SampledDataset,
    companion,
    freq_response,
    is_stable,
    l2_norm_sq,
    model_from_dict,
    model_to_dict,
    simulate_dt,
)
from .metrics import fit, mse_g, mse_theta
from .montecarlo import (
    ExperimentConfig,
    McReport,
    Metrics,
    MultisineInput,
    NoiseSetting,
    PrbsInput,
    RandomSystemSpec,
    WhiteNoiseInput,
    run_monte_carlo,
)
from .pem import (
    EstimationResult,
    init_arx_iv,
    oe_fit,
    prediction_jacobian,
)
from .rdproj import (
    PemrdResult,
    ct_info_matrix,
    pemrd,
    project_estimate,
    project_rd,
    projected_covariance,
)
from .sampling import (
    NoiseSpec,
    ZohMapPoint,
    c2d_zoh,
    d2c_zoh,
    load_dataset,
    naive_truncate,
    save_dataset,
    simulate_ct_zoh,
    zoh_map_point,
)
from .signals import gen_multisine, gen_prbs, gen_random_system, lfsr_bits

__version__ = "0.1.0"
