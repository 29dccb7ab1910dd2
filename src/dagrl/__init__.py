"""Domain-adaptive graph classification with dual encoder branches."""

from .adversarial import (
    DomainDiscriminator,
    PerturbationStore,
    discriminator_update,
    domain_accuracy,
    domain_loss,
    perturbation_step,
)
from .autodiff import Adam, Tape, Tensor, load_checkpoint, save_checkpoint
from .errors import (
    ConfigurationError,
    ContractViolation,
    DagrlError,
    DatasetFormatError,
    IngestionError,
)
from .experiments import ALL_PAIRS, ExperimentPlan, ResultTable, emit_report, run_plan
from .gin import GinEncoder
from .graphs import (
    DensityPartition,
    DomainDataset,
    Graph,
    edge_density,
    parse_tudataset,
    split_by_density,
    subset_as_source,
    subset_as_target,
    write_tudataset,
)
from .trainer import TrainConfig, TrainState, build_state, evaluate, train, train_epoch
from .wl import GknHead, WlRefinement

__version__ = "0.1.0"

__all__ = [
    "ALL_PAIRS",
    "Adam",
    "ConfigurationError",
    "ContractViolation",
    "DagrlError",
    "DatasetFormatError",
    "DensityPartition",
    "DomainDataset",
    "DomainDiscriminator",
    "ExperimentPlan",
    "GinEncoder",
    "GknHead",
    "Graph",
    "IngestionError",
    "PerturbationStore",
    "ResultTable",
    "Tape",
    "Tensor",
    "TrainConfig",
    "TrainState",
    "WlRefinement",
    "build_state",
    "discriminator_update",
    "domain_accuracy",
    "domain_loss",
    "edge_density",
    "emit_report",
    "evaluate",
    "load_checkpoint",
    "parse_tudataset",
    "perturbation_step",
    "run_plan",
    "save_checkpoint",
    "split_by_density",
    "subset_as_source",
    "subset_as_target",
    "train",
    "train_epoch",
    "write_tudataset",
]
