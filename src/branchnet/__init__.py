"""branchnet: a residual identity trunk with branchable task heads.

From-scratch channels-last tensor ops with explicit backward passes, exact
parameter/cost accounting with a stage-composition resolver, branch
fine-tuning with layer freezing, shared-trunk multi-head inference, and
the evaluation protocols around them.
"""

from .graph import ArchConfig, GraphSpec, LayerNode, build_trunk
from .params import ParamStore, load_checkpoint, save_checkpoint
from .train import (Branch, Dataset, TrainConfig, finetune, init_params,
                    make_branch, train)

__version__ = "0.1.0"

__all__ = [
    "ArchConfig", "Branch", "Dataset", "GraphSpec", "LayerNode", "ParamStore",
    "TrainConfig", "build_trunk", "finetune", "init_params", "load_checkpoint",
    "make_branch", "save_checkpoint", "train", "__version__",
]
