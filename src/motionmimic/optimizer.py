"""Adam updates and phased learning-rate schedules.

The reference schedule mirrors the motion-training recipe: 30000 epochs
at lr 0.001, then four 5000-epoch phases stepping the rate down by
0.0002 each.  Phase boundaries can reset the moment accumulators, which
reproduces the transient loss peaks seen when a model is rebuilt between
phases; the weights themselves are untouched by a reset.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import MimicError, require_positive
from .textio import format_record, parse_record, read_text, text_lines


BETA1 = 0.9  # decay of the first-moment average
BETA2 = 0.999  # decay of the second-moment average
EPS = 1e-8  # keeps the update finite where the second moment is zero


@dataclass
class AdamState:
    """Moment accumulators shaped like the parameter vector, plus the step counter.

    scratch holds two more such vectors that adam_step writes its
    intermediates into, so no step allocates.
    """

    first_moment: np.ndarray
    second_moment: np.ndarray
    t: int = 0
    scratch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.first_moment), np.empty_like(self.first_moment))


def adam_init(params) -> AdamState:
    """Fresh state with zero moments shaped like the given parameter vector."""
    return AdamState(np.zeros_like(params), np.zeros_like(params))


def reset_state(state: AdamState) -> AdamState:
    """Zeroed moments and step counter."""
    return adam_init(state.first_moment)


def adam_step(state: AdamState, params, grads, lr: float):
    """One bias-corrected Adam update, applied to the params vector in place.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps).
    grads is laid out like params; the trainer has checked that it is finite.
    """
    m, v = state.first_moment, state.second_moment
    s1, s2 = state.scratch
    state.t += 1
    bc1 = 1.0 - BETA1**state.t
    bc2 = 1.0 - BETA2**state.t
    # the operations and their order are those of the plain expressions in the docstring
    m *= BETA1
    m += np.multiply(1.0 - BETA1, grads, out=s1)
    v *= BETA2
    np.multiply(1.0 - BETA2, grads, out=s1)
    v += np.multiply(s1, grads, out=s1)
    np.divide(m, bc1, out=s1)
    s1 *= lr
    np.divide(v, bc2, out=s2)
    np.sqrt(s2, out=s2)
    s2 += EPS
    s1 /= s2
    params -= s1


MAX_EPOCHS = 1_000_000  # 20 times the reference recipe


@dataclass
class TrainingSchedule:
    """Ordered (epochs, learning rate) phases, at most MAX_EPOCHS epochs in all."""

    phases: list
    reset_on_phase: bool = True

    def __post_init__(self):
        if not self.phases:
            raise MimicError("schedule needs at least one phase")
        cleaned = []
        for i, (epochs, lr) in enumerate(self.phases):
            if int(epochs) != epochs or epochs <= 0:
                raise MimicError(f"phase {i}: epochs must be a positive integer, got {epochs}")
            require_positive(f"phase {i}: learning rate", lr)
            cleaned.append((int(epochs), float(lr)))
        self.phases = cleaned
        if self.total_epochs > MAX_EPOCHS:
            raise MimicError(f"{self.total_epochs} epochs; a schedule holds at most {MAX_EPOCHS}")

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
    """Read the phases, then at most one reset_on_phase line (true when absent)."""
    phases, reset = [], None
    for no, line in text_lines(text):
        if reset is not None:
            raise MimicError(f"line {no}: nothing may follow the reset_on_phase line")
        if line.lstrip().startswith("reset_on_phase"):
            (reset,) = parse_record(RESET, line, no)
        else:
            phases.append(parse_record(PHASE, line, no))
    if not phases:
        raise MimicError("schedule file contains no phases")
    return TrainingSchedule(phases, reset_on_phase=True if reset is None else reset)


def load_schedule(path) -> TrainingSchedule:
    return parse_schedule(read_text(path))
