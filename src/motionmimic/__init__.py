"""Keyframe motion mimicking: splines, datasets, a small network, and a joint plant."""

from .errors import (
    ConfigError,
    DivergenceError,
    FormatError,
    IngestionError,
    MimicError,
    OutOfRangeError,
    ShapeError,
    ValidationError,
)
from .motion import (
    KeyframeMovement,
    KeyframeStep,
    ValidationReport,
    load_movement,
    playback_duration,
    poses,
    reference_pose,
    save_movement,
    validate_movement,
)
from .network import (
    DenseLayer,
    GradientSet,
    MimicNetwork,
    backward,
    forward,
    initialize,
    leaky_relu,
    load_weights,
    mse_loss,
    param_count,
    save_weights,
)
from .optimizer import (
    AdamState,
    TrainingSchedule,
    adam_init,
    adam_step,
    desk_schedule,
    load_schedule,
    reference_schedule,
    reset_state,
    save_schedule,
)
from .plant import PlantConfig, PlantState, p_command, simulate, step
from .spline import CubicSpline, build_spline
from .trainer import (
    EvalReport,
    MotionDataset,
    Rollout,
    TrainedModel,
    TrainingLog,
    evaluate,
    ingest_log,
    load_dataset,
    load_model,
    rollout,
    sample_movement,
    save_dataset,
    save_model,
    train,
)

__version__ = "0.1.0"
