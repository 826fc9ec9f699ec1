"""tfmbe: energy-stable nonuniform time stepping for time-fractional
molecular beam epitaxy growth models.

Building blocks: nonuniform time meshes (timemesh), discrete Caputo
convolution kernels with positive semi-definite cell-averaged variants
(kernels), certified exponential-sum compression for O(1)-memory history
(soe), a periodic pseudo-spectral spatial layer (spectral), linear
auxiliary-variable time steppers with a discrete energy bound (sav), an
accuracy-driven adaptive controller (adaptive), scalar observables and
fits (diagnostics), and reproducible experiment drivers (harness, cli).
"""

__version__ = "0.1.0"

from .timemesh import (TimeMesh, build_uniform, build_graded, extend_random,
                       extend_uniform)
from .kernels import rl_weight, l1_row, l1plus_row
from .soe import SOEApprox, build_soe, verify_soe, HistoryBank
from .spectral import (Grid2D, ModelParams, slope_nonlinearity,
                       noslope_nonlinearity, sav_u_functional,
                       sav_v_functional, write_field, read_field)
from .sav import (SAVState, StepCandidate, init_state, cn_sav_step,
                  be_l1_sav_step, commit_candidate, trajectory_observables,
                  make_history)
from .adaptive import AdaptiveParams, StepRecord, tau_ada, adaptive_run, run_fixed
from .diagnostics import (convergence_order, powerlaw_fit, loglinear_fit,
                          singularity_slope)
from .harness import (ode_convergence, pde_convergence, adaptive_benchmark,
                      coarsening, singularity_run, solve_caputo_ode, table_mesh)
from .errors import SolverError
