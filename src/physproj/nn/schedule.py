"""Early stopping and learning-rate scheduling rules.

Both rules are pure functions of the recorded loss history, so they can be
unit tested on constructed curves and reused by the training loop without
hidden state. The trainer passes the history slice since the last learning
rate reduction to get the usual reset-after-reduction behavior.
"""

from __future__ import annotations

import numpy as np

from physproj.errors import TrainingDivergedError

_PLATEAU_REL_THRESHOLD = 1e-4  # smallest relative gain that counts as progress


def pq_alpha_should_stop(
    train_losses,
    val_losses,
    alpha: float,
    strip_length: int = 5,
) -> bool:
    """Stop when generalization loss outpaces training progress.

    GL(t) = 100 * (E_va(t)/E_opt(t) - 1), where E_opt is the best validation
    loss seen so far. Progress over the last k epochs is
    P_k(t) = 1000 * (sum(strip)/(k * min(strip)) - 1) on training losses.
    Returns True when GL/P_k > alpha. With fewer than k epochs there is
    nothing to measure yet (False); a strip with zero training progress
    cannot improve further, so it stops regardless of the ratio.
    """
    tr = np.asarray(train_losses, dtype=np.float64)
    va = np.asarray(val_losses, dtype=np.float64)
    if tr.size != va.size:
        raise ValueError("training and validation histories must have equal length")
    if tr.size == 0:
        return False
    if not (np.all(np.isfinite(tr)) and np.all(np.isfinite(va))):
        raise TrainingDivergedError("non-finite loss in the training history")
    if tr.size < strip_length:
        return False
    e_opt = va.min()
    gl = 100.0 * (va[-1] / e_opt - 1.0)
    strip = tr[-strip_length:]
    progress = 1000.0 * (strip.sum() / (strip_length * strip.min()) - 1.0)
    if progress <= 0.0:
        return True
    return gl / progress > alpha


def plateau_lr(val_losses, patience: int, factor: float, current_lr: float) -> float:
    """Cut the learning rate when validation loss stalls.

    If none of the last ``patience`` epochs improved on the best loss seen
    before them by more than ``_PLATEAU_REL_THRESHOLD`` (relative), returns
    current_lr * factor; otherwise current_lr unchanged.
    """
    va = np.asarray(val_losses, dtype=np.float64)
    if va.size < patience + 1:
        return current_lr
    best_before = va[:-patience].min()
    recent = va[-patience:]
    improved = recent < best_before - _PLATEAU_REL_THRESHOLD * abs(best_before)
    if improved.any():
        return current_lr
    return current_lr * factor
