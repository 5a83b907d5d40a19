"""evadelab: sparse feature-addition evasion, gradient attributions, and
evenness/robustness analysis for binary malware-style classifiers."""

__version__ = "0.1.0"

from .featurespace import (LabeledDataset, SyntheticConfig, generate_synthetic,
                           load_dataset, save_dataset, split)
from .models import (KernelModel, LinearModel, TrainConfig, auc,
                     detection_rate_at_fpr, load_model, roc_curve, save_model,
                     score, train_linear, train_rbf_svm, train_secsvm)
from .attack import (NOT_EVADABLE, AttackConfig, SecurityCurve,
                     attack_scores_over_grid, epsilon_min, epsilon_min_batch,
                     security_evaluation)
from .explain import (attribution_gradient, attribution_gradient_input,
                      attribution_integrated_gradients)
from .evenness import (EvennessReport, UndefinedEvennessError, evenness_e1,
                       evenness_e2, evenness_report)
from .robustness import RobustnessScore, robustness_from_scores
from .stats import (CorrelationReport, correlation_suite, kendall, pearson,
                    spearman)
from .pipeline import (PRESETS, ClassifierSpec, ExperimentConfig,
                       ExperimentReport, emit_scatter_data, grid_cv,
                       run_experiment)
