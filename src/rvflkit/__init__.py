"""Robust random vector functional link classifiers with benchmarking and statistics."""

from .data import Dataset, NormalizationParams, apply_normalization, fit_normalization, \
    load_csv, one_hot, stratified_k_fold
from .evaluate import BenchmarkTable, CVResult, GridSearchResult, GridSpec, accuracy, \
    average_ranks, cross_validate, grid_search
from .model import ModelConfig, RandomLayer, TrainedModel, load_model, predict, save_model, train
from .solver import solve_auto, solve_dual, solve_primal
from .stats import FriedmanResult, WilcoxonResult, friedman, nemenyi_cd, nemenyi_table, \
    wilcoxon_signed_rank
from .weighting import ClassGeometry, ContributionScores, WeightingConfig, \
    build_class_geometry, compute_contribution_scores, kernel_matrix

__version__ = "0.1.0"
