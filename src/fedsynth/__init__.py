"""Differentially private federated synthesis of mixed-type tabular data.

The package trains a denoising diffusion model over an encoded table whose
numeric columns pass through quantile maps and whose categorical columns are
represented by small learned embeddings. Training runs across simulated
clients with per-sample gradient clipping and Gaussian noise, tracked by an
RDP accountant. Samplers, attack-based privacy scoring, and fidelity/utility
metrics round out the workflow.
"""

from .attacks import (adjusted_risk, gower_distances, inference_risk,
                      linkability_risk, privacy_score, singling_out_risk)
from .data import (EncodingPipeline, QuantileMap, RawTable, TabularSchema,
                   fit_quantile_map, load_csv, load_partitions, partition_iid,
                   partition_noniid, save_partitions, write_csv)
from .diffusion import (NoiseSchedule, generate, linear_schedule,
                        make_training_example, p_sample_step, q_sample, respace)
from .dp import (DEFAULT_ORDERS, DpConfig, RdpAccountant, calibrate_sigma,
                 epsilon_after, privatize, rdp_subsampled_gaussian)
from .errors import (CalibrationError, CheckpointError, CsvFormatError,
                     DivergenceError, FedsynthError, PrivacyBudgetError,
                     SchemaError, ValidationError)
from .experiment import (DiffusionConfig, ExperimentConfig, FedConfig,
                         ModelConfig, Seeds, cmd_evaluate, cmd_generate,
                         cmd_prepare, cmd_sweep, cmd_train, desk_preset,
                         run_pipeline)
from .federation import (ClientDataset, ClientState, FederatedState,
                         fedavg_aggregate, init_state, make_client_datasets,
                         run_round, train)
from .fixtures import (INDEPENDENT_SCHEMA, MIXTURE_SCHEMA, SEPARABLE_SCHEMA,
                       gaussian_mixture_table, independent_table,
                       separable_table, shuffle_column)
from .metrics import (MetricsReport, column_fidelity, evaluate_tables,
                      js_similarity, row_fidelity, theil_u, utility_score,
                      wasserstein_similarity)
from .nn import (AdamState, DenoiserParams, adam_step, forward,
                 init_denoiser, per_sample_grads, time_embed)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "CalibrationError", "CheckpointError",
    "ClientDataset", "ClientState", "CsvFormatError",
    "DEFAULT_ORDERS", "DenoiserParams", "DiffusionConfig", "DivergenceError",
    "DpConfig", "EncodingPipeline", "ExperimentConfig", "FedConfig",
    "FederatedState", "FedsynthError", "INDEPENDENT_SCHEMA", "MIXTURE_SCHEMA",
    "MetricsReport", "ModelConfig", "NoiseSchedule", "PrivacyBudgetError",
    "QuantileMap", "RawTable", "RdpAccountant", "SEPARABLE_SCHEMA",
    "SchemaError", "Seeds", "TabularSchema", "ValidationError",
    "adam_step", "adjusted_risk", "calibrate_sigma",
    "cmd_evaluate", "cmd_generate", "cmd_prepare", "cmd_sweep", "cmd_train",
    "column_fidelity", "desk_preset", "epsilon_after", "evaluate_tables",
    "fedavg_aggregate", "fit_quantile_map", "forward",
    "gaussian_mixture_table", "generate", "gower_distances",
    "independent_table", "inference_risk", "init_denoiser", "init_state",
    "js_similarity",
    "linear_schedule", "linkability_risk", "load_csv", "load_partitions",
    "make_client_datasets", "make_training_example", "p_sample_step",
    "partition_iid", "partition_noniid", "per_sample_grads",
    "privacy_score", "privatize", "q_sample", "rdp_subsampled_gaussian", "respace",
    "row_fidelity", "run_pipeline", "run_round", "save_partitions",
    "separable_table", "shuffle_column", "singling_out_risk", "theil_u",
    "time_embed", "train", "utility_score", "wasserstein_similarity",
    "write_csv",
]
