"""Application workloads: XG-Boost, DeepCNN-X, VGG-9 (Table VI), plus the
functional homomorphic building blocks (dense/ReLU layers, encrypted
tree ensembles) that prove the lowerings on the real scheme."""

from .deepcnn import deepcnn_specs, deepcnn_workload
from .nn_layers import (
    PBS_PER_ACTIVATION,
    ConvSpec,
    FcSpec,
    conv_layer_demand,
    encrypted_dense_relu,
    encrypted_dot,
    fc_layer_demand,
)
from .vgg import ACTIVATION_REDUCTION, vgg9_specs, vgg9_workload
from .workload import Workload
from .xgboost import (
    NODES_PER_TREE,
    EncryptedTreeEnsemble,
    TreeNode,
    xgboost_workload,
)

__all__ = [
    "Workload",
    "ConvSpec",
    "FcSpec",
    "PBS_PER_ACTIVATION",
    "conv_layer_demand",
    "fc_layer_demand",
    "encrypted_dot",
    "encrypted_dense_relu",
    "deepcnn_specs",
    "deepcnn_workload",
    "ACTIVATION_REDUCTION",
    "vgg9_specs",
    "vgg9_workload",
    "NODES_PER_TREE",
    "TreeNode",
    "EncryptedTreeEnsemble",
    "xgboost_workload",
]
