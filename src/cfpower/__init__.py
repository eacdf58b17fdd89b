"""Downlink power allocation for cell-free massive MIMO networks.

The package simulates a wrap-around deployment of multi-antenna access
points jointly serving single-antenna users, estimates the
channel-hardening SE bound by Monte-Carlo, and allocates per-AP transmit
power three ways: a weighted-MMSE optimizer (sum-SE or proportional
fairness), closed-form fractional heuristics, and small neural networks
trained to imitate the optimizer from large-scale fading inputs.
"""

from .allocator import (cluster_partition, features_for, labels_for,
                        load_model, predict_allocation, save_model)
from .config import NetworkConfig, load_config, save_config
from .errors import (CfPowerError, ConfigError, DataFormatError,
                     NumericalError, SolverDegeneracyError,
                     TrainingDivergedError)
from .estimation import (ChannelBatch, ChannelDraw, DirectionLayout,
                         MmseEstimator, mmse_estimate, sample_channels)
from .heuristics import (equal_power, fractional_coefficients,
                         heuristic_allocation, side_info_ratios)
from .mlp import (MlpModel, TrainConfig, TrainResult, build_model, forward,
                  train)
from .network import (ChannelStatistics, Scenario, build_statistics,
                      drop_scenario, pathloss_beta, place_aps)
from .pilots import PilotAssignment, assign_pilots
from .pipeline import (EvalReport, cmd_bench, cmd_evaluate, cmd_generate,
                       cmd_inspect, cmd_train)
from .precoding import compute_precoders
from .scaling import ScalerParams, apply_scaler, fit_scaler
from .se import (MomentSums, PowerAllocation, SEParameters, compute_se,
                 effective_sinr, estimate_se_parameters)
from .wmmse import (SolverConfig, WmmseResult, solve_subproblem,
                    update_auxiliaries, utility, wmmse_solve)

__version__ = "0.1.0"
