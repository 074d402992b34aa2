"""Time each part of one training epoch of the 1:75:50:23 net, layer by layer.

Usage: python3 tools/epochprofile.py [--rows N] [--repeats K]

An epoch is what trainer.train runs once per epoch: the forward and
backward pass of network.forward_backward through buffers made once,
the finite check, optimizer.adam_step and the MAE.  Here it is split
into parts, run in the same order on the same buffers and timed one by
one:

- layerI.affine: the layer's one matrix product [a, 1] @ [Wᵀ; b], bias
  included (a 1-row batch takes a @ W.T, then + b);
- layerI.activation: leaky_relu, which writes the activation and its slope;
- loss: predictions minus targets, the half mean square, and the output
  delta divided by the batch size;
- weight_copy: the C-ordered copies of the W of every layer after layer
  0, which delta @ W reads (forward_backward takes each just before its
  delta_back);
- layerI.weight_grad: the layer's gradient block [a, 1]ᵀ @ delta, bias
  row included, a sum of matrix products over network.BLOCK_ROWS-row
  blocks;
- layerI.delta_back: delta @ W, the delta of the layer below, a block of
  rows at a time;
- layerI.activation_grad: that delta times the layer's slope;
- finite_check: the loss and the gradient sum are finite;
- adam: the whole update;
- mae: the mean absolute error of the joint outputs.

Before timing, it checks that the parts give forward_backward's loss and
gradients, and np.mean's MAE, bit for bit.  It prints each part's median
and quartiles over K epochs (after that untimed check), their sum, and
the numpy version, BLAS library, thread count and kernel.  Run it with
OPENBLAS_NUM_THREADS set to pin the thread count the way the benchmark
does, and with OPENBLAS_CORETYPE set to pick another kernel.
"""

import argparse
import ctypes
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from motionmimic.network import (BLOCK_ROWS, _one_product, epoch_buffers,  # noqa: E402
                                  forward_backward, initialize, leaky_relu)
from motionmimic.optimizer import adam_init, adam_step  # noqa: E402

SIZES = [1, 75, 50, 23]


def blas_probe():
    """(thread count, kernel name) reported by the OpenBLAS library numpy loaded, or (None, None).

    The kernel is openblas_get_corename's, such as SkylakeX or Haswell;
    a build with DYNAMIC_ARCH picks it for the CPU, or takes it from
    OPENBLAS_CORETYPE.
    """
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            if hasattr(lib, f"{prefix}_get_num_threads{suffix}"):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                threads.restype = ctypes.c_int
                corename = getattr(lib, f"{prefix}_get_corename{suffix}")
                corename.restype = ctypes.c_char_p
                return threads(), corename().decode()
    return None, None


def epoch_parts(net, x, y, buffers, state, lr):
    """(name, run) pairs that, run in order, make one epoch.

    run() of 'loss', 'finite_check' and 'mae' returns its value.
    """
    acts, slopes = buffers.acts, buffers.slopes
    inputs = [buffers.x1, *acts[:-1]]  # each layer's [a, 1]
    last = len(net.blocks) - 1
    blocks = [slice(start, start + BLOCK_ROWS) for start in range(0, len(x), BLOCK_ROWS)]
    abs_error = np.empty((len(x), SIZES[-1] - 1))
    epoch = {}
    parts = []

    def affine(i):
        z = acts[i][:, : SIZES[i + 1]]
        if _one_product(len(x), SIZES[i + 1]):
            np.matmul(inputs[i], net.blocks[i], out=z)
        else:
            np.matmul(inputs[i][:, :-1], net.blocks[i][:-1], out=z)
            z += net.biases[i]

    def weight_copy():
        for i in range(1, last + 1):
            np.copyto(buffers.weights[i], net.weights[i])

    def weight_grad(i, delta):
        np.matmul(inputs[i][blocks[0]].T, delta[blocks[0]], out=buffers.grad_blocks[i])
        for rows in blocks[1:]:
            buffers.grad_blocks[i] += np.matmul(inputs[i][rows].T, delta[rows],
                                                out=buffers.block_grads[i])

    def delta_back(i, delta):
        below = inputs[i][:, :-1]
        for rows in blocks:
            np.matmul(delta[rows], buffers.weights[i], out=below[rows])

    def loss():
        np.subtract(acts[-1], y, out=buffers.error)
        np.multiply(buffers.error, buffers.error, out=buffers.delta)
        epoch["loss"] = float(0.5 * np.add.reduce(buffers.delta, axis=None) / len(x))
        np.divide(buffers.error, len(x), out=buffers.delta)
        return epoch["loss"]

    def finite_check():
        return math.isfinite(epoch["loss"]) and (math.isfinite(np.add.reduce(buffers.grads))
                                                  or np.isfinite(buffers.grads).all())

    def mae():
        np.abs(buffers.error[:, : abs_error.shape[1]], out=abs_error)
        return np.add.reduce(abs_error, axis=None) / abs_error.size

    for i in range(last + 1):
        parts.append((f"layer{i}.affine", lambda i=i: affine(i)))
        if i < last:
            parts.append((f"layer{i}.activation",
                          lambda i=i: leaky_relu(acts[i], net.alpha, slopes[i])))
    parts.append(("loss", loss))
    parts.append(("weight_copy", weight_copy))
    for i in range(last, -1, -1):
        delta = buffers.delta if i == last else acts[i][:, :-1]
        parts.append((f"layer{i}.weight_grad", lambda i=i, d=delta: weight_grad(i, d)))
        if i > 0:
            parts.append((f"layer{i}.delta_back", lambda i=i, d=delta: delta_back(i, d)))
            parts.append((f"layer{i - 1}.activation_grad",
                          lambda i=i: np.multiply(inputs[i], slopes[i - 1], out=inputs[i])))
    parts.append(("finite_check", finite_check))
    parts.append(("adam", lambda: adam_step(state, net.params, buffers.grads, lr)))
    parts.append(("mae", mae))
    return parts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, default=1500)
    parser.add_argument("--repeats", type=int, default=50)
    args = parser.parse_args(argv)
    if args.rows < 1 or args.repeats < 1:
        parser.error("--rows and --repeats must be at least 1")
    rng = np.random.default_rng(0)
    net = initialize(SIZES, seed=0)
    x = np.linspace(0.0, 1.0, args.rows)[:, None]
    y = rng.uniform(-1.0, 1.0, size=(args.rows, SIZES[-1]))
    buffers = epoch_buffers(net, x)
    parts = epoch_parts(net, x, y, buffers, adam_init(net.params), lr=1e-3)

    # one epoch up to the update, then the MAE of its predictions
    results = {name: run() for name, run in parts if name != "adam"}
    ref_loss, ref_pred, ref_grads = forward_backward(net, x, y, epoch_buffers(net, x))
    ref_mae = np.mean(np.abs(ref_pred[:, :-1] - y[:, :-1]))
    match = (results["loss"] == ref_loss and results["finite_check"]
             and np.array_equal(buffers.grads.view(np.uint64), ref_grads.view(np.uint64))
             and results["mae"].view(np.uint64) == ref_mae.view(np.uint64))

    times = {name: [] for name, _ in parts}
    for _ in range(args.repeats):
        for name, run in parts:
            start = time.perf_counter_ns()
            run()
            times[name].append((time.perf_counter_ns() - start) / 1e3)
    times["epoch (sum of parts)"] = [sum(t) for t in zip(*times.values())]

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, kernel = blas_probe()
    print(f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
          f"{threads} BLAS threads, {kernel} kernel, {len(os.sched_getaffinity(0))} CPUs")
    print(f"net {':'.join(map(str, SIZES))}, {args.rows} rows, {args.repeats} timed epochs; "
          f"parts match forward_backward and the MAE bit for bit: {'yes' if match else 'NO'}")
    print(f"{'part':<24}{'median_us':>12}{'q1_us':>12}{'q3_us':>12}")
    for name, values in times.items():
        q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
        print(f"{name:<24}{median:>12.1f}{q1:>12.1f}{q3:>12.1f}")
    return 0 if match else 1


if __name__ == "__main__":
    sys.exit(main())
