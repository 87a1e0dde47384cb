"""Named parameter storage, Adam updates, the minibatch training loop, and
checkpoint IO."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .tensor import Tensor

CHECKPOINT_MAGIC = b"IMCKPT1\n"


class OptimizerError(Exception):
    """Raised when an update step cannot be applied."""


class TrainingError(RuntimeError):
    """Divergence or unusable training inputs."""


# Two flat buffers that every adam_step works in, grown to the largest
# tensor updated so far.  Kept for the life of the process: buffers
# allocated per step cost their page faults again on every step, and
# buffers kept per store would stay with every trained model.  Each
# tensor's update writes them before reading them, so no state passes
# between tensors or stores; it also means two threads must not run
# adam_step at once (the library runs on one thread).
_SCRATCH = [np.empty(0), np.empty(0)]


def _adam_scratch(shape):
    size = math.prod(shape)
    if _SCRATCH[0].size < size:
        _SCRATCH[:] = [np.empty(size), np.empty(size)]
    return [buf[:size].reshape(shape) for buf in _SCRATCH]


class ParamStore:
    """Collection of named parameter tensors with per-tensor trainable flags.

    A tensor's ``requires_grad`` equals its ``trainable`` flag: ``add``,
    ``load`` and ``merge_from`` set both.  Backward passes
    therefore give only trainable tensors a ``grad``; frozen tensors keep
    ``grad`` at None, cost the backward pass nothing, and are never
    touched by :meth:`adam_step`.
    """

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self.trainable: dict[str, bool] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0

    def add(self, name, values, trainable=True):
        if name in self.params:
            raise KeyError(f"parameter {name!r} already exists")
        t = Tensor(np.array(values, dtype=np.float64), requires_grad=trainable)
        self.params[name] = t
        self.trainable[name] = bool(trainable)
        return t

    def __getitem__(self, name):
        return self.params[name]

    def __contains__(self, name):
        return name in self.params

    def names(self):
        return list(self.params)

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def end_training(self):
        """Drop what only training reads: every gradient and the Adam
        moments and step count.  Checkpoints hold neither, so a later
        ``adam_step`` starts as it would on a loaded checkpoint."""
        self.zero_grad()
        self._m.clear()
        self._v.clear()
        self._t = 0

    def clip_grad_norm(self, max_norm):
        """Scale every trainable gradient by one factor so that their global
        norm is at most ``max_norm``."""
        grads = [t.grad for n, t in self.params.items()
                 if self.trainable[n] and t.grad is not None]
        total = 0.0
        for g in grads:
            total += float((g * g).sum())
        norm = np.sqrt(total)
        if norm > max_norm:
            scale = max_norm / norm
            for g in grads:
                g *= scale

    # initializers -----------------------------------------------------

    def glorot(self, name, shape, fan_in, fan_out, rng):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self.add(name, rng.uniform(-limit, limit, size=shape))

    def dense_layer(self, name, n_in, n_out, rng):
        w = self.glorot(name + "/w", (n_in, n_out), n_in, n_out, rng)
        b = self.add(name + "/b", np.zeros(n_out))
        return w, b

    def conv_layer(self, name, kh, kw, c_in, c_out, rng):
        fan_in = kh * kw * c_in
        fan_out = kh * kw * c_out
        k = self.glorot(name + "/k", (kh, kw, c_in, c_out), fan_in, fan_out, rng)
        b = self.add(name + "/b", np.zeros(c_out))
        return k, b

    # optimization -----------------------------------------------------

    def adam_step(self, lr):
        """One Adam update over trainable tensors with populated gradients,
        with b1 = 0.9, b2 = 0.999 and eps = 1e-8.

        Every gradient is checked before any tensor changes.  The update
        runs in two shared scratch buffers, in the operation order of
        ``m += (1 - b1) * (g - m)``, ``v += (1 - b2) * (g**2 - v)`` and
        ``w -= lr * (m / c1) / (sqrt(v / c2) + eps)``.
        """
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for name, t in self.params.items():
            if t.grad is not None and not np.isfinite(t.grad).all():
                raise OptimizerError(f"non-finite gradient on {name!r}")
        self._t += 1
        corr1 = 1.0 - beta1**self._t
        corr2 = 1.0 - beta2**self._t
        for name, t in self.params.items():
            if not self.trainable[name] or t.grad is None:
                continue
            if name not in self._m:
                self._m[name] = np.zeros_like(t.values)
                self._v[name] = np.zeros_like(t.values)
            m, v = self._m[name], self._v[name]
            a, b = _adam_scratch(t.values.shape)
            g = t.grad
            np.subtract(g, m, out=a)
            a *= 1.0 - beta1
            m += a
            np.square(g, out=a)
            a -= v
            a *= 1.0 - beta2
            v += a
            np.divide(m, corr1, out=a)
            a *= lr
            np.divide(v, corr2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            t.values -= a

    # checkpointing ----------------------------------------------------
    #
    # Format (little-endian):
    #   magic "IMCKPT1\n"
    #   u32 record count
    #   per record: u16 name length, name utf-8, u8 trainable,
    #               u8 ndim, ndim x u32 dims, float64 row-major payload

    def save(self, path):
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", len(self.params)))
            for n in self.params:
                t = self.params[n]
                nb = n.encode()
                f.write(struct.pack("<H", len(nb)))
                f.write(nb)
                f.write(struct.pack("<BB", int(self.trainable[n]), t.values.ndim))
                f.write(struct.pack(f"<{t.values.ndim}I", *t.values.shape))
                f.write(t.values.astype("<f8").tobytes())

    @classmethod
    def load(cls, path):
        """Read a checkpoint; any malformed body raises OptimizerError."""
        store = cls()
        with open(path, "rb") as f:
            if f.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
                raise OptimizerError(f"{path}: not an intentmotion checkpoint")
            left = os.fstat(f.fileno()).st_size - len(CHECKPOINT_MAGIC)

            def read(n):
                # checked against the bytes left before reading, so a
                # corrupt length never allocates more than the file holds
                nonlocal left
                if n > left:
                    raise OptimizerError(f"{path}: truncated checkpoint")
                left -= n
                data = f.read(n)
                if len(data) != n:
                    raise OptimizerError(f"{path}: truncated checkpoint")
                return data

            (count,) = struct.unpack("<I", read(4))
            for _ in range(count):
                (nlen,) = struct.unpack("<H", read(2))
                try:
                    name = read(nlen).decode()
                except UnicodeDecodeError:
                    raise OptimizerError(
                        f"{path}: tensor name is not UTF-8") from None
                if name in store.params:
                    raise OptimizerError(f"{path}: duplicate tensor {name!r}")
                trainable, ndim = struct.unpack("<BB", read(2))
                shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
                payload = read(8 * math.prod(shape))
                values = np.frombuffer(payload, dtype="<f8").reshape(shape)
                store.add(name, values, bool(trainable))
            if left:
                raise OptimizerError(f"{path}: {left} trailing bytes")
        return store

    def merge_from(self, other, prefix="", trainable=None):
        """Copy parameters from another store under the same names."""
        for n in other.params:
            if n.startswith(prefix):
                flag = other.trainable[n] if trainable is None else trainable
                self.add(n, other.params[n].values.copy(), flag)


def minibatch_adam(store, n, batch_step, epochs, lr, seed, batch,
                   clip_norm=None):
    """Minibatch Adam over ``n`` rows, reshuffled every epoch.

    ``batch_step(idx, epoch, rng)`` returns the loss value of rows ``idx``
    and a zero-argument function that writes their gradients into the
    store, the deferred form ``lbfgs_minimize`` takes.  ``rng`` is the
    loop's generator, seeded by ``seed``; a step may draw from it after the
    epoch's permutation.  With ``clip_norm`` the gradients are clipped to
    that global norm (``ParamStore.clip_grad_norm``) before each update.
    Returns the per-epoch mean loss curve; a non-finite loss raises
    TrainingError before its gradients are written.  The store ends
    without gradients or Adam moments (``ParamStore.end_training``).
    """
    rng = np.random.default_rng(seed)
    curve = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        total = 0.0
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            value, write_grads = batch_step(idx, epoch, rng)
            if not np.isfinite(value):
                raise TrainingError(f"training diverged at epoch {epoch}: "
                                    f"loss={value}")
            store.zero_grad()
            write_grads()
            if clip_norm is not None:
                store.clip_grad_norm(clip_norm)
            store.adam_step(lr)
            total += value * len(idx)
        curve.append(total / n)
    store.end_training()
    return curve
