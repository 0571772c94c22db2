"""Desk-scale lab for extraction and promotion attacks on sequential recommenders."""

from . import attack
from .attack import (
    AttackConfig,
    ExposureResult,
    attack_user,
    baseline_rand_alter,
    baseline_sim_alter,
    cohort_filter,
    collab_signal,
    fuse,
    grad_alignment,
    load_polluted_sequences,
    pollute,
    pollute_detailed,
    save_polluted_sequences,
    validate,
)
from .config import ExperimentConfig, build_config, load_config
from .corpus import (
    CoMatrix,
    InteractionCorpus,
    SplitDataset,
    build_comatrix,
    corel,
    corel_row,
    leave_one_out_split,
    load_corpus,
    save_corpus,
    topk_neighbors,
)
from .distill import (
    DistillConfig,
    cognitive_distribution,
    cognitive_prior,
    distill_loss,
    distill_train,
    kl_loss,
    pairwise_loss,
    rank_equivalence_check,
    surrogate_distribution,
)
from .errors import ConfigError, StageError
from .evalkit import (
    agreement_at_k,
    ndcg_at_k,
    plausibility_score,
    recall_at_k,
)
from .harness import ExperimentReport, run_ablation, run_alpha_sweep, run_pipeline
from .oracle import BlackBox, BudgetExhausted, QuerySet, load_queryset, save_queryset
from .recmodel import (
    RecommenderParams,
    TrainConfig,
    ce_loss_and_grads,
    embed,
    encode,
    forward_scores,
    init_params,
    load_params,
    recommend_topk,
    recommend_topk_batch,
    save_params,
    score_all,
    train,
)
from .ranking import topk_ids
from .synthetic import SyntheticSpec, gen_synthetic_corpus
from .synthgen import SamplerPolicy, generate_sequences

__version__ = "0.1.0"
