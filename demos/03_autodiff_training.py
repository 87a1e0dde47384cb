"""The reverse-mode tape: fitting a tiny network with Adam.

Demonstrates tensor operations, gradient computation, the parameter
store, and checkpoint save/load.
"""

import tempfile

import numpy as np

import intentmotion.autodiff as ad

rng = np.random.default_rng(1)

# target function: y = sin(3x) on [-1, 1]
x = rng.uniform(-1, 1, size=(256, 1))
y = np.sin(3 * x)

store = ad.ParamStore()
store.dense_layer("l1", 1, 32, rng)
store.dense_layer("l2", 32, 1, rng)


def forward(inputs):
    h = ad.tanh(ad.dense(inputs, store["l1/w"], store["l1/b"]))
    return ad.dense(h, store["l2/w"], store["l2/b"])


for step in range(400):
    pred = forward(ad.Tensor(x))
    diff = ad.sub(pred, ad.Tensor(y))
    loss = ad.mean(ad.mul(diff, diff))
    store.zero_grad()
    ad.backward(loss)
    store.adam_step(1e-2)
    if step % 100 == 0:
        print(f"step {step:3d}  mse {loss.item():.5f}")

size = sum(t.values.size for t in store.params.values())
print(f"final mse {loss.item():.5f} with {size} parameters")

# gradients agree with finite differences
worst = ad.grad_check(
    lambda ts: ad.mean(ad.mul(ad.tanh(ts[0]), ts[0])),
    [rng.normal(size=(4, 3))])
print(f"finite-difference check, worst relative error: {worst:.2e}")

# checkpoints round-trip bit-exactly
with tempfile.NamedTemporaryFile(suffix=".ckpt") as f:
    store.save(f.name)
    loaded = ad.ParamStore.load(f.name)
    same = all(np.array_equal(store[n].values, loaded[n].values)
               for n in store.params)
    print("checkpoint round-trip exact:", same)
