"""Model-based biclustering of count matrices.

Rows (samples) are clustered with a mixture of multivariate
Poisson-lognormal distributions fitted by variational EM; columns
(variables) are grouped inside each mixture component through the
block-diagonal structure of its latent covariance matrix.
"""

__version__ = "0.1.0"

from .data import (  # noqa: F401
    CountMatrix,
    OffsetVector,
    compute_offsets,
    filter_top_variable,
    load_counts,
    load_offsets,
    save_counts,
    save_offsets,
)
from .errors import (  # noqa: F401
    AllCellsFailed,
    AllRestartsFailed,
    EmptyComponent,
    LengthMismatch,
    MplnError,
    NegativeCount,
    NonIntegerCount,
    NonpositiveOffset,
    NotPositiveDefinite,
    ZeroLibrarySize,
    ZeroVariance,
)
from .colgroup import (  # noqa: F401
    ColumnPartition,
    Dendrogram,
    agglomerate,
    cut,
    distance_matrix,
    select_k_silhouette,
    silhouette,
)
from .model import (  # noqa: F401
    MixtureModel,
    VariationalState,
    bic,
    load_model,
    save_model,
)
from .vem import (  # noqa: F401
    EqualK,
    FitConfig,
    FitResult,
    PerGroupK,
    SilhouetteK,
    fit,
    load_result,
    save_labels,
    save_result,
)
from .select import (  # noqa: F401
    SelectionGrid,
    fit_varying_k,
    grid_search_equal_k,
    save_grid,
)
from .simulate import (  # noqa: F401
    GroundTruth,
    SimSpec,
    load_spec,
    load_truth,
    preset,
    sample_dataset,
    save_spec,
    save_truth,
    spec_offsets,
)
from .evaluate import (  # noqa: F401
    EvalReport,
    aggregate_reports,
    ari,
    column_misclassification,
    evaluate_fit,
    load_report,
    param_mse,
    save_report,
    support_count_heatmap,
)
