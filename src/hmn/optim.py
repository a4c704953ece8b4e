"""Adam with decoupled weight decay, and the warmup-then-cosine schedule."""

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def lr_at(epoch_fraction, cfg):
    """Learning rate at a fractional epoch position in [0, epochs].

    Linear ramp to lr over the warmup epochs, then a half-cosine down to
    exactly 0 at the final epoch. Continuous, peaking at the warmup point.
    """
    e = float(epoch_fraction)
    warm, total, peak = cfg.warmup_epochs, cfg.epochs, cfg.lr
    if e < 0 or e > total:
        raise ValueError(f"epoch fraction {e} outside [0, {total}]")
    if warm > 0 and e < warm:
        return peak * e / warm
    return peak * 0.5 * (1.0 + np.cos(np.pi * (e - warm) / (total - warm)))


class Adam:
    def __init__(self, params, lr=1e-3, weight_decay=0.0):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        self.m = {n: np.zeros_like(p.value) for n, p in self.params.items()}
        self.v = {n: np.zeros_like(p.value) for n, p in self.params.items()}

    def step(self, lr=None):
        """One update from the .grad fields; decay shrinks weights first.

        A parameter with no grad this step (unreached by the loss) still
        decays but gets a zero moment update.
        """
        # Python floats, so a float32 parameter's update stays float32
        lr = float(self.lr if lr is None else lr)
        self.t += 1
        b1, b2 = BETA1, BETA2
        bias1 = 1.0 - b1 ** self.t
        bias2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.value)
            if self.weight_decay:
                p.value *= 1.0 - lr * self.weight_decay
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p.value -= lr * (m / bias1) / (np.sqrt(v / bias2) + EPS)

    def state_records(self):
        """Named arrays for checkpoint embedding; moments hold their parameter's
        dtype and are stored as f32."""
        out = [("opt.t", np.array([self.t], dtype=np.int64))]
        for name in self.params:
            out.append((f"opt.m.{name}", self.m[name]))
            out.append((f"opt.v.{name}", self.v[name]))
        return out
