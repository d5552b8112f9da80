"""fedcycle: desk-scale simulation of collaborative training across
patient-siloed institutions (single, central, ensemble, single weight
transfer, cyclical weight transfer)."""

from .data import Dataset, augment, export_csv, gen_synthetic, load_csv, normalize
from .heuristics import (ExperimentConfig, MetricsRow, RunResult, ScaledSplit,
                         evaluate, mlp_specs, run_heuristic, run_scaling_sweep,
                         scale_split, train_on)
from .nn import (LayerSpec, ModelState, OptimizerConfig, backward,
                 forward, glorot_init, grad_check, init_model, loss, opt_step)
from .partition import Split, SplitPlan, pool, split_manifest, stratified_split
from .schedule import (ExpDecayPolicy, PlateauPolicy, PlateauState,
                       exp_decay_lr, observe)
from .transport import deserialize, serialize

__version__ = "0.1.0"
