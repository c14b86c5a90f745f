"""mindkit: discover which inputs a trained model is invariant to.

Fits parameterized input transformations against a frozen differentiable
model so that predictions stay put while the transform drifts from the
identity; the per-feature gates that survive are invariance scores.
"""
from .analysis import (ClosedFormInputs, ClosedFormSolution, SanityOutcome,
                       build_report, closed_form_gating, completeness_gap,
                       correlation_profile, integrated_gradients,
                       integrated_gradients_scores, restart_baseline,
                       saliency_scores, sanity_check, second_moment, spearman,
                       weak_invariance_lambda)
from .data import (Dataset, SyntheticSpec, from_arrays, generate_synthetic,
                   load_dataset, save_dataset, substream)
from .diffcore import Graph, leaf
from .errors import (AnalysisError, DataError, GraphError, MindkitError,
                     TrainingError)
from .mindtrain import (MindConfig, MindDiagnostics, MindResult, TuneResult,
                        mind_loss, multi_restart, train_transform, tune_lambda,
                        w1_reduced)
from .models import (Model, TrainConfig, build_model, load_model, predict,
                     save_model, shuffle_layer, train)
from .transforms import (BasisGatingTransform, BasisSet, GatingTransform,
                         ResidualTransform, Transform, TransformSpec,
                         apply_transform, decode, encode, init_transform,
                         load_transform, make_basis, save_transform,
                         window_split)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
