"""Adam updates and phased learning-rate schedules.

The reference schedule mirrors the motion-training recipe: 30000 epochs
at lr 0.001, then four 5000-epoch phases stepping the rate down by
0.0002 each.  Phase boundaries can reset the moment accumulators, which
reproduces the transient loss peaks seen when a model is rebuilt between
phases; the weights themselves are untouched by a reset.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, FormatError, ShapeError
from .textio import format_record, parse_record, text_lines


@dataclass
class AdamState:
    """Per-parameter moment accumulators plus the step counter."""

    first_moment: list
    second_moment: list
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if self.eps <= 0:
            raise ConfigError("eps must be positive")
        if self.t < 0:
            raise ConfigError("step counter must be non-negative")


def adam_init(params, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> AdamState:
    """Fresh state with zero moments shaped like the given parameter list."""
    return AdamState(
        [np.zeros_like(p) for p in params],
        [np.zeros_like(p) for p in params],
        t=0,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def reset_state(state: AdamState) -> AdamState:
    """Zeroed moments and step counter; betas and eps are retained."""
    return adam_init(state.first_moment, state.beta1, state.beta2, state.eps)


def adam_step(state: AdamState, params, grads, lr: float):
    """One bias-corrected Adam update, applied to params in place.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps).
    Raises DivergenceError on a non-finite gradient, naming its index.
    """
    if len(params) != len(grads) or len(params) != len(state.first_moment):
        raise ShapeError(
            f"expected {len(state.first_moment)} parameter tensors, "
            f"got {len(params)} params and {len(grads)} grads"
        )
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape or p.shape != state.first_moment[i].shape:
            raise ShapeError(f"parameter {i}: shape {p.shape} does not match gradient/state")
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient in parameter {i}")

    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.t
    bc2 = 1.0 - b2**state.t
    for p, g, m, v in zip(params, grads, state.first_moment, state.second_moment):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


MAX_EPOCHS = 1_000_000  # 20 times the reference recipe


@dataclass
class TrainingSchedule:
    """Ordered (epochs, learning rate) phases, at most MAX_EPOCHS epochs in all."""

    phases: list
    reset_on_phase: bool = True

    def __post_init__(self):
        if not self.phases:
            raise ConfigError("schedule needs at least one phase")
        cleaned = []
        for i, (epochs, lr) in enumerate(self.phases):
            if int(epochs) != epochs or epochs <= 0:
                raise ConfigError(f"phase {i}: epochs must be a positive integer, got {epochs}")
            if not (np.isfinite(lr) and lr > 0):
                raise ConfigError(f"phase {i}: learning rate must be positive, got {lr}")
            cleaned.append((int(epochs), float(lr)))
        self.phases = cleaned
        if self.total_epochs > MAX_EPOCHS:
            raise ConfigError(f"{self.total_epochs} epochs; a schedule holds at most {MAX_EPOCHS}")

    @property
    def total_epochs(self) -> int:
        return sum(e for e, _ in self.phases)

    def epoch_lrs(self) -> np.ndarray:
        """Learning rate for every epoch, phases concatenated in order."""
        return np.concatenate([np.full(e, lr) for e, lr in self.phases])

    def epoch_phases(self) -> np.ndarray:
        """Phase index (0-based) for every epoch."""
        return np.concatenate(
            [np.full(e, i, dtype=int) for i, (e, _) in enumerate(self.phases)]
        )


def reference_schedule() -> TrainingSchedule:
    """The full 50000-epoch recipe: 30000 at 0.001, then 4 x 5000 stepping down by 0.0002."""
    return TrainingSchedule(
        [(30000, 0.001), (5000, 0.0008), (5000, 0.0006), (5000, 0.0004), (5000, 0.0002)]
    )


def desk_schedule() -> TrainingSchedule:
    """Compressed 5000-epoch preset with the same phase proportions and rates."""
    return TrainingSchedule(
        [(3000, 0.001), (500, 0.0008), (500, 0.0006), (500, 0.0004), (500, 0.0002)]
    )


SCHEDULE_PRESETS = {"reference": reference_schedule, "desk": desk_schedule}


# --- schedule config format -------------------------------------------------

PHASE = "phase epochs=<int> lr=<float>"
RESET = "reset_on_phase=<true|false>"


def format_schedule(schedule: TrainingSchedule) -> str:
    lines = [format_record(PHASE, e, lr) for e, lr in schedule.phases]
    lines.append(format_record(RESET, schedule.reset_on_phase))
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> TrainingSchedule:
    phases, reset = [], True
    for no, line in text_lines(text):
        if line.lstrip().startswith("reset_on_phase"):
            (reset,) = parse_record(RESET, line, no)
        else:
            phases.append(parse_record(PHASE, line, no))
    if not phases:
        raise FormatError("schedule file contains no phases")
    return TrainingSchedule(phases, reset_on_phase=reset)


def save_schedule(schedule: TrainingSchedule, path):
    Path(path).write_text(format_schedule(schedule))


def load_schedule(path) -> TrainingSchedule:
    return parse_schedule(Path(path).read_text())
