"""unforget: a desk-scale machine-unlearning laboratory.

A minimal differentiable network engine plus three unlearning algorithms
(exact retraining, random relabeling, saliency-masked fine-tuning), a
synthetic patient-grouped data generator, AUROC evaluation, and a seeded
benchmark harness that reports retain/forget/test performance across forget
set sizes, class difficulty, group fairness, and compute cost.
"""

from .data import (
    LabeledDataset,
    SplitPlan,
    SyntheticSpec,
    apply_u_one,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_forget_retain,
    split_train_val_test,
)
from .harness import (
    ExperimentConfig,
    UnlearnReport,
    default_config,
    emit_report,
    run_experiment,
    sweep_hparams,
)
from .metrics import EvalResult, auroc_binary, evaluate, rank_difficulty
from .nn_core import (
    ArchSpec,
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    ModelState,
    ReLU,
    clone_with_params,
    forward,
    init_model,
    load_model,
    loss_and_grad,
    save_model,
)
from .optim import AdamState, TrainConfig, adam_step, cosine_lr, train
from .unlearn import (
    UnlearnConfig,
    compute_saliency_mask,
    exact_unlearn,
    random_relabel,
    relabel_finetune,
    relabel_unlearn,
    saliency_unlearn,
)

__version__ = "0.1.0"
