"""Named parameter storage, Adam updates, and checkpoint IO."""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from .tensor import Tensor

CHECKPOINT_MAGIC = b"IMCKPT1\n"


class OptimizerError(Exception):
    """Raised when an update step cannot be applied."""


class ParamStore:
    """Collection of named parameter tensors with per-tensor trainable flags.

    A tensor's ``requires_grad`` equals its ``trainable`` flag: ``add``,
    ``load``, ``merge_from`` and ``freeze`` set both.  Backward passes
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

    def freeze(self, name):
        self.trainable[name] = False
        self.params[name].requires_grad = False
        self.params[name].grad = None

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def num_params(self, prefix=""):
        return sum(t.values.size for n, t in self.params.items()
                   if n.startswith(prefix))

    # initializers -----------------------------------------------------

    def glorot(self, name, shape, fan_in, fan_out, rng, trainable=True):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return self.add(name, rng.uniform(-limit, limit, size=shape), trainable)

    def dense_layer(self, name, n_in, n_out, rng, trainable=True):
        w = self.glorot(name + "/w", (n_in, n_out), n_in, n_out, rng, trainable)
        b = self.add(name + "/b", np.zeros(n_out), trainable)
        return w, b

    def conv_layer(self, name, kh, kw, c_in, c_out, rng, trainable=True):
        fan_in = kh * kw * c_in
        fan_out = kh * kw * c_out
        k = self.glorot(name + "/k", (kh, kw, c_in, c_out), fan_in, fan_out,
                        rng, trainable)
        b = self.add(name + "/b", np.zeros(c_out), trainable)
        return k, b

    # optimization -----------------------------------------------------

    def adam_step(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        """One Adam update over trainable tensors with populated gradients."""
        for name, t in self.params.items():
            if t.grad is not None and not np.all(np.isfinite(t.grad)):
                raise OptimizerError(f"non-finite gradient on {name!r}")
        self._t += 1
        corr1 = 1.0 - beta1**self._t
        corr2 = 1.0 - beta2**self._t
        for name, t in self.params.items():
            if not self.trainable[name] or t.grad is None:
                continue
            m = self._m.setdefault(name, np.zeros_like(t.values))
            v = self._v.setdefault(name, np.zeros_like(t.values))
            m += (1.0 - beta1) * (t.grad - m)
            v += (1.0 - beta2) * (t.grad**2 - v)
            t.values -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)

    # checkpointing ----------------------------------------------------
    #
    # Format (little-endian):
    #   magic "IMCKPT1\n"
    #   u32 record count
    #   per record: u16 name length, name utf-8, u8 trainable,
    #               u8 ndim, ndim x u32 dims, float64 row-major payload

    def save(self, path, prefix=""):
        names = [n for n in self.params if n.startswith(prefix)]
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", len(names)))
            for n in names:
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
