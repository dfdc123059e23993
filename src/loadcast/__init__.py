"""Short-term electric load forecasting toolkit.

Pipeline: hourly load/weather ingest -> feature selection -> sliding-window
dataset -> model zoo (persistence, per-hour SVR, FCNN, LSTM, LRCN) ->
MAPE/R^2/tolerance evaluation -> feature-grid and ablation experiments.
"""

__version__ = "0.1.0"

from .dataset import (  # noqa: F401
    Normalizer,
    WindowConfig,
    WindowedDataset,
    build_windows,
    chronological_split,
)
from .errors import LoadcastError  # noqa: F401
from .evaluation import (  # noqa: F401
    EvaluationReport,
    emit_plot_data,
    evaluate,
    mape,
    r_squared,
    tolerance_accuracy,
)
from .features import (  # noqa: F401
    FeatureMatrix,
    FeatureSelector,
    all_features,
    assemble,
    encode_time,
)
from .ingest import (  # noqa: F401
    AlignedSeries,
    LoadSeries,
    WeatherColumns,
    align,
    combine_wind,
    format_hour,
    load_and_align,
    parse_hour,
    parse_load_csv,
    parse_weather_csv,
    read_aligned_csv,
    utc_to_cst,
    write_aligned_csv,
)
from .models import (  # noqa: F401
    ModelSpec,
    TrainedModel,
    build_model,
    load,
    persistence_predict,
    predict_at,
    predict_batch,
    save,
    train,
)
from .synthetic import generate_synthetic  # noqa: F401
