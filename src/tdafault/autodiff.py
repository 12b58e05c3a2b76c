"""Minimal dense reverse-mode automatic differentiation on numpy arrays.

Just enough machinery to train the encoder: 64-bit tensors of rank <= 3, a
fixed catalogue of differentiable primitives with hand-written adjoints, and
a gradient checker against central finite differences.  Every op validates
its output for NaN/Inf and aborts with :class:`NumericsError` so a diverging
training step fails loudly instead of poisoning the parameters.

The ops take a single sample as a 2-D ``(T, d)`` tensor or a minibatch as a
3-D ``(B, T, d)`` tensor, so one graph (and one ``backward``) covers a whole
batch.  Row-wise ops work along the last axis; weights shared by every
sample stay 2-D and their adjoints sum over the batch.  Multi-head
attention folds its heads into the batch axis (:func:`split_heads`,
:func:`merge_heads`), so no tensor needs a fourth axis.

Graph mechanics follow the usual closure pattern: each op records its parent
tensors and an adjoint closure; ``backward`` replays the closures in exact
reverse creation order, accumulating gradients by addition.  A closure
reaches its own node only through a weak reference, so graphs hold no
reference cycles and are freed as soon as their root is dropped.  Inside a
:func:`no_grad` block ops record nothing: their outputs have no parents and
no adjoint, so inference keeps no graph alive.

Gradients are owned, not zero-filled: a node's first contribution becomes
its ``grad`` as it is when the adjoint made that array itself (``fresh``)
and both it and ``data`` are C-contiguous with the same shape; otherwise it
is copied into a buffer laid out like ``data``, so an array shared with
another node is never adopted.  Later contributions add into that buffer.
Either way the buffer has ``data``'s layout, as a zero-filled one would, so
products of gradients sum in the same order and give the same bits.

Adjoints never write into the incoming ``out.grad``; forward passes and
adjoints work in place on the arrays they allocate (softmax, layer norm,
GELU), in the same float operations and order as the textbook formulas.
:func:`matmul` takes an optional ``bias`` row added into the product's own
buffer, which is how the model applies every bias; ``add_rowvec`` stays in
the catalog as the standalone form.

Inside a :func:`buffer_pool` block every array an op, an adjoint or
``accumulate`` makes comes from a pool of recycled buffers (see
:class:`BufferPool`), so a training step reuses the previous step's memory
instead of returning it to the operating system; outside one, ops allocate
fresh arrays.  Either way the float operations are the same.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import sys
import weakref

import numpy as np

__all__ = [
    "Tensor",
    "NumericsError",
    "matmul",
    "transpose",
    "split_heads",
    "merge_heads",
    "add",
    "subtract",
    "multiply",
    "scale",
    "mul_rowvec",
    "mul_colvec",
    "add_rowvec",
    "softmax_rows",
    "exp",
    "mean_rows",
    "layer_norm",
    "gelu",
    "cross_entropy_logits",
    "op_catalog",
    "grad_check",
    "zero_grad",
    "no_grad",
    "BufferPool",
    "buffer_pool",
    "empty",
]

_SEQ = itertools.count()
_LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# False inside a no_grad block (per thread and per asyncio task)
_GRAD_ENABLED = contextvars.ContextVar("tdafault_grad_enabled", default=True)
# The BufferPool of the innermost buffer_pool block, or None
_POOL = contextvars.ContextVar("tdafault_buffer_pool", default=None)


def _idle_refs() -> int:
    """``sys.getrefcount(arrays[i])`` of an array that only the list ``arrays`` holds."""
    arrays = [np.empty(0)]
    return sys.getrefcount(arrays[0])


_IDLE_REFS = _idle_refs()


class BufferPool:
    """Arrays recycled by shape and dtype.

    :meth:`empty` hands out a pooled array of the requested shape that
    nothing outside the pool references, as its reference count shows, or
    else a new array that joins the pool.  An array stays in use while any
    tensor, closure or view (a view holds its base) keeps it, so a request
    never gets memory that is still read.  The pool holds on to its arrays
    until it is dropped.
    """

    def __init__(self):
        self._arrays: dict = {}  # (shape, dtype) -> arrays, the last handed out first

    def empty(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        arrays = self._arrays.get((shape, dtype))
        if arrays is None:
            arrays = self._arrays[(shape, dtype)] = []
        # Newest first, as malloc reuses the block freed last: a temporary
        # released a moment ago is handed out again while it is in cache.
        for i in range(len(arrays)):
            if sys.getrefcount(arrays[i]) == _IDLE_REFS:
                arrays.insert(0, arrays.pop(i))
                return arrays[0]
        arrays.insert(0, np.empty(shape, dtype))
        return arrays[0]


@contextlib.contextmanager
def buffer_pool():
    """Draw every array the ops allocate inside the block from one new :class:`BufferPool`.

    The pool and its arrays are released on exit; arrays still referenced
    then (a parameter's ``grad``, say) stay valid.
    """
    token = _POOL.set(BufferPool())
    try:
        yield
    finally:
        _POOL.reset(token)


def empty(shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised array: from the active :func:`buffer_pool`, else ``np.empty``."""
    pool = _POOL.get()
    return np.empty(shape, dtype) if pool is None else pool.empty(shape, dtype)


def _empty_like(x: np.ndarray) -> np.ndarray:
    """``np.empty_like(x)``, from the pool when ``x`` or its last-two-axes swap is C-contiguous."""
    if x.flags.c_contiguous:
        return empty(x.shape)
    if x.ndim >= 2 and _swap(x).flags.c_contiguous:
        return _swap(empty(_swap(x).shape))
    return np.empty_like(x)


def _row_stat(x: np.ndarray) -> np.ndarray:
    """A buffer for one statistic per row of ``x`` (``keepdims`` over the last axis)."""
    return empty(x.shape[:-1] + (1,))


class NumericsError(ArithmeticError):
    """An operation produced NaN or Inf."""


class Tensor:
    """Dense float64 array node in the autodiff graph."""

    __slots__ = (
        "data", "requires_grad", "grad", "_backward", "_parents", "_seq", "_op", "__weakref__",
    )

    def __init__(self, data, requires_grad: bool = False, _parents=(), _op: str = "leaf"):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 3:
            raise ValueError(f"rank {arr.ndim} tensor not supported (max 3)")
        if not np.isfinite(arr, out=empty(arr.shape, np.bool_)).all():
            raise NumericsError(f"non-finite values in result of op {_op!r}")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents = _parents
        self._op = _op
        self._seq = next(_SEQ)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        """Add the contribution ``g`` to this node's gradient.

        ``fresh`` promises that the caller allocated ``g`` itself and keeps
        no other use of it; only then may the first contribution be adopted
        without a copy.
        """
        if self.grad is not None:
            self.grad += g
        elif (fresh and g.shape == self.data.shape and g.flags.c_contiguous
              and self.data.flags.c_contiguous):
            self.grad = g
        else:
            self.grad = _empty_like(self.data)
            self.grad[...] = g

    def backward(self) -> None:
        """Backpropagate from a scalar output through the recorded graph.

        Leaves accumulate their gradients; every other node's ``grad`` is
        released as soon as its adjoint has run.
        """
        if self.data.size != 1:
            raise ValueError(f"backward needs a scalar output, got shape {self.shape}")
        nodes = []
        seen = {id(self)}
        stack = [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            for parent in node._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        nodes.sort(key=lambda t: t._seq, reverse=True)
        self.grad = np.ones_like(self.data)
        for node in nodes:
            if node._backward is not None:
                node._backward()
                if node is not self:
                    node.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


@contextlib.contextmanager
def no_grad():
    """Build no graph inside the block; the previous mode returns on exit.

    Ops still compute and check their outputs (NaN/Inf raise
    :class:`NumericsError`) but record no parents and no adjoint, so the
    outputs do not require grad and nothing can be back-propagated through
    them.  Blocks nest, and the mode is restored also when the body raises.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _make(data, parents, op: str, backward=None) -> Tensor:
    tracked = tuple(p for p in parents if p.requires_grad) if _GRAD_ENABLED.get() else ()
    out = Tensor(data, requires_grad=bool(tracked), _parents=tracked, _op=op)
    if tracked and backward is not None:
        ref = weakref.ref(out)
        out._backward = lambda: backward(ref())
    return out


def _need_2d(t: Tensor, op: str) -> None:
    if t.data.ndim != 2:
        raise ValueError(f"{op} expects a 2-D tensor, got shape {t.shape}")


def _need_rows(t: Tensor, op: str) -> None:
    if t.data.ndim not in (2, 3):
        raise ValueError(f"{op} expects a 2-D or 3-D tensor, got shape {t.shape}")


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product; a 3-D ``a`` multiplies each sample by ``b``.

    ``b`` is either one 2-D matrix shared by every sample or a 3-D stack
    holding one matrix per sample.  ``bias``, a vector with one entry per
    output column, is added to every row of the product in the product's
    own buffer: the same sums as ``add_rowvec(matmul(a, b), bias)``, without
    a second output array.
    """
    _need_rows(a, "matmul")
    _need_rows(b, "matmul")
    shared = b.data.ndim < a.data.ndim
    if a.shape[-1] != b.shape[-2] or (not shared and a.shape[:-2] != b.shape[:-2]):
        raise ValueError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    if bias is not None and (bias.data.ndim != 1 or bias.shape[0] != b.shape[-1]):
        raise ValueError(f"matmul bias shape mismatch: {b.shape} vs vector {bias.shape}")

    def backward(out):
        g = out.grad
        if a.requires_grad:
            a.accumulate(np.matmul(g, _swap(b.data), out=empty(a.shape)), fresh=True)
        if b.requires_grad:
            if shared:
                gb = np.matmul(a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]),
                               out=empty(b.shape))
            else:
                gb = np.matmul(_swap(a.data), g, out=empty(b.shape))
            b.accumulate(gb, fresh=True)
        if bias is not None and bias.requires_grad:
            bias.accumulate(_batch_sum(g, g.shape[-1]), fresh=True)

    y = np.matmul(a.data, b.data, out=empty(a.shape[:-1] + b.shape[-1:]))
    parents = (a, b)
    if bias is not None:
        y += bias.data
        parents += (bias,)
    return _make(y, parents, "matmul", backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes (each sample's matrix transpose)."""
    _need_rows(a, "transpose")

    def backward(out):
        a.accumulate(_swap(out.grad))

    return _make(_swap(a.data), (a,), "transpose", backward)


def _split(x: np.ndarray, heads: int) -> np.ndarray:
    """Copy of ``(B, T, heads*d)`` as ``(B*heads, T, d)``."""
    n_batch, t, width = x.shape
    out = empty((n_batch * heads, t, width // heads))
    out.reshape(n_batch, heads, t, -1)[...] = x.reshape(n_batch, t, heads, -1).swapaxes(1, 2)
    return out


def _merge(x: np.ndarray, heads: int) -> np.ndarray:
    """Copy of ``(B*heads, T, d)`` as ``(B, T, heads*d)``."""
    samples, t, d = x.shape
    out = empty((samples // heads, t, heads * d))
    out.reshape(-1, t, heads, d)[...] = x.reshape(-1, heads, t, d).swapaxes(1, 2)
    return out


def split_heads(a: Tensor, heads: int) -> Tensor:
    """Fold heads into the batch, ``(B, T, heads*d) -> (B*heads, T, d)``.

    Sample ``b*heads + h`` is column block ``h`` of sequence ``b``.
    """
    if a.data.ndim != 3 or heads < 1 or a.shape[-1] % heads:
        raise ValueError(f"split_heads cannot split {a.shape} into {heads} heads")

    def backward(out):
        a.accumulate(_merge(out.grad, heads), fresh=True)

    return _make(_split(a.data, heads), (a,), "split_heads", backward)


def merge_heads(a: Tensor, heads: int) -> Tensor:
    """Unfold heads from the batch: ``(B*heads, T, d) -> (B, T, heads*d)``."""
    if a.data.ndim != 3 or heads < 1 or a.shape[0] % heads:
        raise ValueError(f"merge_heads cannot merge {a.shape} over {heads} heads")

    def backward(out):
        a.accumulate(_split(out.grad, heads), fresh=True)

    return _make(_merge(a.data, heads), (a,), "merge_heads", backward)


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"{op} shape mismatch: {a.shape} vs {b.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def backward(out):
        # both parents see the same array, so neither may adopt it
        if a.requires_grad:
            a.accumulate(out.grad)
        if b.requires_grad:
            b.accumulate(out.grad)

    return _make(np.add(a.data, b.data, out=empty(a.shape)), (a, b), "add", backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "subtract")

    def backward(out):
        if a.requires_grad:
            a.accumulate(out.grad)
        if b.requires_grad:
            b.accumulate(np.negative(out.grad, out=empty(b.shape)), fresh=True)

    return _make(np.subtract(a.data, b.data, out=empty(a.shape)), (a, b), "subtract", backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "multiply")

    def backward(out):
        if a.requires_grad:
            a.accumulate(np.multiply(out.grad, b.data, out=empty(a.shape)), fresh=True)
        if b.requires_grad:
            b.accumulate(np.multiply(out.grad, a.data, out=empty(b.shape)), fresh=True)

    return _make(np.multiply(a.data, b.data, out=empty(a.shape)), (a, b), "multiply", backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(out):
        a.accumulate(np.multiply(out.grad, c, out=empty(a.shape)), fresh=True)

    return _make(np.multiply(a.data, c, out=empty(a.shape)), (a,), "scale", backward)


def _batch_sum(x: np.ndarray, n: int) -> np.ndarray:
    """Sum a (..., n) array over every leading axis."""
    return x.reshape(-1, n).sum(axis=0, out=empty((n,)))


def mul_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Scale column ``j`` of sample ``s`` of ``a`` by ``v[s % k, j]``.

    ``v`` is a ``(k, m)`` table with ``m >= n = a.shape[-1]``; a 2-D ``a`` is
    sample 0, and the number of samples must be a multiple of ``k``.  Only
    the first ``n`` entries of each row apply; the rest get zero gradient.
    ``k = 1`` is one positional row for every sample; ``k = heads`` gives
    each head of a ``(B*heads, T, T)`` score stack its own row.
    """
    _need_rows(a, "mul_rowvec")
    t, n = a.shape[-2:]
    samples = a.shape[0] if a.data.ndim == 3 else 1
    if v.data.ndim != 2 or v.shape[0] < 1 or v.shape[1] < n or samples % v.shape[0]:
        raise ValueError(f"mul_rowvec shape mismatch: {a.shape} vs table {v.shape}")
    k = v.shape[0]
    grouped = a.data.reshape(-1, k, t, n)  # [g, r] is sample g*k + r
    factors = v.data[:, None, :n]

    def backward(out):
        g = out.grad.reshape(grouped.shape)
        if a.requires_grad:
            ga = empty(a.shape)
            np.multiply(g, factors, out=ga.reshape(grouped.shape))
            a.accumulate(ga, fresh=True)
        if v.requires_grad:
            gv = empty(v.shape)
            gv.fill(0.0)
            # row r: its samples in order, each sample's positions in order
            by_row = empty((k, grouped.shape[0]) + grouped.shape[2:])
            np.multiply(np.swapaxes(g, 0, 1), np.swapaxes(grouped, 0, 1), out=by_row)
            gv[:, :n] = by_row.reshape(k, -1, n).sum(axis=1, out=empty((k, n)))
            v.accumulate(gv, fresh=True)

    y = empty(a.shape)
    np.multiply(grouped, factors, out=y.reshape(grouped.shape))
    return _make(y, (a, v), "mul_rowvec", backward)


def mul_colvec(a: Tensor, u: Tensor) -> Tensor:
    """Multiply row ``i`` of ``a`` (of every sample) by ``u[i]``."""
    _need_rows(a, "mul_colvec")
    m = a.shape[-2]
    if u.data.ndim != 1 or u.shape[0] != m:
        raise ValueError(f"mul_colvec shape mismatch: {a.shape} vs vector {u.shape}")

    def backward(out):
        if a.requires_grad:
            a.accumulate(np.multiply(out.grad, u.data[:, None], out=empty(a.shape)), fresh=True)
        if u.requires_grad:
            prod = np.multiply(out.grad, a.data, out=empty(a.shape))
            u.accumulate(_batch_sum(prod.sum(axis=-1, out=empty(a.shape[:-1])), m), fresh=True)

    return _make(np.multiply(a.data, u.data[:, None], out=empty(a.shape)), (a, u),
                 "mul_colvec", backward)


def add_rowvec(a: Tensor, v: Tensor) -> Tensor:
    """Add the vector ``v`` to every row of ``a`` (bias add)."""
    _need_rows(a, "add_rowvec")
    n = a.shape[-1]
    if v.data.ndim != 1 or v.shape[0] != n:
        raise ValueError(f"add_rowvec shape mismatch: {a.shape} vs vector {v.shape}")

    def backward(out):
        if a.requires_grad:
            a.accumulate(out.grad)
        if v.requires_grad:
            v.accumulate(_batch_sum(out.grad, n), fresh=True)

    return _make(np.add(a.data, v.data, out=empty(a.shape)), (a, v), "add_rowvec", backward)


def softmax_rows(a: Tensor) -> Tensor:
    _need_rows(a, "softmax_rows")
    # exp(x - max) / sum, computed in one buffer
    x = a.data
    p = np.subtract(x, x.max(axis=-1, keepdims=True, out=_row_stat(x)), out=empty(x.shape))
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True, out=_row_stat(p))

    def backward(out):
        # dL/dx = P * (g - sum_j g_j P_j) row-wise, in one buffer
        g = out.grad
        dx = np.multiply(g, p, out=empty(p.shape))
        dot = dx.sum(axis=-1, keepdims=True, out=_row_stat(dx))
        np.subtract(g, dot, out=dx)
        dx *= p
        a.accumulate(dx, fresh=True)

    return _make(p, (a,), "softmax_rows", backward)


def exp(a: Tensor) -> Tensor:
    # Overflow becomes inf here and is converted to NumericsError by the
    # Tensor constructor; the numpy warning would just be noise on top.
    with np.errstate(over="ignore"):
        e = np.exp(a.data, out=empty(a.shape))

    def backward(out):
        a.accumulate(np.multiply(out.grad, e, out=empty(a.shape)), fresh=True)

    return _make(e, (a,), "exp", backward)


def mean_rows(a: Tensor) -> Tensor:
    """Mean-pool each sample's rows into one row.

    ``(m, n) -> (1, n)`` for a single sample, ``(B, m, n) -> (B, n)`` for a
    batch: row ``b`` of the result is sample ``b``'s mean row.
    """
    _need_rows(a, "mean_rows")
    m, n = a.shape[-2:]

    def backward(out):
        per_sample = out.grad.reshape(a.shape[:-2] + (1, n))
        share = np.divide(per_sample, m, out=empty(per_sample.shape))
        a.accumulate(np.broadcast_to(share, a.shape))

    means = a.data.mean(axis=-2, out=empty(a.shape[:-2] + (n,)))
    return _make(means.reshape(-1, n), (a,), "mean_rows", backward)


def layer_norm(a: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalise each row to zero mean and unit variance (no affine part).

    The variance is ``np.var``'s: the mean of the squared centred row.
    """
    _need_rows(a, "layer_norm")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True, out=_row_stat(x))
    # one buffer: first the squared centred rows, then the normalised rows
    y = np.subtract(x, mu, out=empty(x.shape))
    np.square(y, out=y)
    # inv = 1 / sqrt(var + eps), in the variance's buffer
    inv = y.sum(axis=-1, keepdims=True, out=_row_stat(y))
    inv /= x.shape[-1]
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.subtract(x, mu, out=y)
    y *= inv

    def backward(out):
        # inv * (g - mean(g) - y * mean(g * y)) row-wise
        g = out.grad
        dx = np.multiply(g, y, out=empty(y.shape))
        gy = dx.mean(axis=-1, keepdims=True, out=_row_stat(dx))
        gm = g.mean(axis=-1, keepdims=True, out=_row_stat(g))
        y_gy = np.multiply(y, gy, out=empty(y.shape))
        np.subtract(g, gm, out=dx)
        dx -= y_gy
        dx *= inv
        a.accumulate(dx, fresh=True)

    return _make(y, (a,), "layer_norm", backward)


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    # Imported here to keep scipy.special off the cold start of every verb.
    from scipy.special import erf

    x = a.data
    # cdf = 0.5 * (1 + erf(x / sqrt 2)), in one buffer
    cdf = np.multiply(x, _INV_SQRT2, out=empty(x.shape))
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def backward(out):
        # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer
        dx = np.square(x, out=empty(x.shape))
        dx *= -0.5
        np.exp(dx, out=dx)
        dx *= _INV_SQRT2PI
        dx *= x
        dx += cdf
        dx *= out.grad
        a.accumulate(dx, fresh=True)

    return _make(np.multiply(x, cdf, out=empty(x.shape)), (a,), "gelu", backward)


def cross_entropy_logits(logits: Tensor, target) -> Tensor:
    """Summed cross-entropy of ``(B, C)`` logit rows against class indices.

    ``target`` is a length-B integer array, one class per row, or a plain
    ``int`` for a single ``(1, C)`` row.  The result is the ``(1, 1)`` sum of
    the per-row losses.  Fused with log-sum-exp for stability; the adjoint
    is softmax minus the one-hot target, row by row.
    """
    _need_2d(logits, "cross_entropy_logits")
    n_rows, n_classes = logits.shape
    if np.ndim(target) == 0 and n_rows != 1:
        raise ValueError(f"cross_entropy_logits expects one logit row, got {logits.shape}")
    targets = np.asarray(target).reshape(-1)
    if targets.shape != (n_rows,) or not np.issubdtype(targets.dtype, np.integer):
        raise ValueError(
            f"cross_entropy_logits needs {n_rows} integer targets, got {np.shape(target)}"
        )
    if np.any((targets < 0) | (targets >= n_classes)):
        raise ValueError(f"target {target} out of range for {n_classes} classes")
    z = logits.data
    rows = np.arange(n_rows)
    zmax = z.max(axis=1, keepdims=True, out=_row_stat(z))
    shifted = np.subtract(z, zmax, out=empty(z.shape))
    np.exp(shifted, out=shifted)
    # lse = zmax + log(sum(exp(z - zmax))), in the sum's buffer
    lse = shifted.sum(axis=1, keepdims=True, out=_row_stat(z))
    np.log(lse, out=lse)
    np.add(zmax, lse, out=lse)
    loss = (lse[:, 0] - z[rows, targets]).sum()

    def backward(out):
        p = np.subtract(z, lse, out=empty(z.shape))
        np.exp(p, out=p)
        p[rows, targets] -= 1.0
        p *= out.grad.reshape(())
        logits.accumulate(p, fresh=True)

    return _make(np.array([[loss]]), (logits,), "cross_entropy_logits", backward)


def op_catalog() -> dict:
    """The differentiable primitives, by name."""
    return {
        "matmul": matmul,
        "transpose": transpose,
        "split_heads": split_heads,
        "merge_heads": merge_heads,
        "add": add,
        "subtract": subtract,
        "multiply": multiply,
        "scale": scale,
        "mul_rowvec": mul_rowvec,
        "mul_colvec": mul_colvec,
        "add_rowvec": add_rowvec,
        "softmax_rows": softmax_rows,
        "exp": exp,
        "mean_rows": mean_rows,
        "layer_norm": layer_norm,
        "gelu": gelu,
        "cross_entropy_logits": cross_entropy_logits,
    }


def grad_check(f, params, h: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central-difference grads.

    ``f`` must rebuild a scalar Tensor from the live ``params`` on every
    call.  The error at each coordinate is
    ``|g_ad - g_fd| / max(1, |g_ad|, |g_fd|)``.
    """
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step size h must lie in [1e-7, 1e-3], got {h}")
    params = list(params)
    for p in params:
        if not np.all(np.isfinite(p.data)):
            raise ValueError("parameters contain non-finite values")
    zero_grad(params)
    out = f()
    if out.data.size != 1:
        raise ValueError(f"grad_check needs a scalar-valued f, got shape {out.shape}")
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    worst = 0.0
    for p, g_ad in zip(params, analytic):
        flat = p.data.reshape(-1)
        g_flat = g_ad.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = f().item()
            flat[i] = saved - h
            f_minus = f().item()
            flat[i] = saved
            g_fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(g_flat[i] - g_fd) / max(1.0, abs(g_flat[i]), abs(g_fd))
            worst = max(worst, err)
    return worst
