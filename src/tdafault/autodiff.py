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
Those arrays come from ``np.empty`` and are filled through ``out=``, so they
are C-contiguous whatever their inputs' layout, which adoption requires.
:func:`matmul` takes an optional ``bias`` row added into the product's own
buffer, which is how the model applies every bias; ``add_rowvec`` stays in
the catalog as the standalone form.  Likewise :func:`softmax_rows` takes a
``scale`` (default 1.0) applied in its own buffer, which is how the model
applies attention's ``1/sqrt(d_k)``; ``scale`` stays in the catalog.

GELU's ``erf`` is computed here with numpy alone (:func:`_erf`, a port of
FreeBSD msun's ``s_erf.c``), within 1 ulp of the correctly rounded value.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
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
]

_SEQ = itertools.count()
_LN_EPS = 1e-5
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
# False inside a no_grad block (per thread and per asyncio task)
_GRAD_ENABLED = contextvars.ContextVar("tdafault_grad_enabled", default=True)


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
        if not np.isfinite(arr).all():
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
            self.grad = np.empty_like(self.data)
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
            a.accumulate(np.matmul(g, _swap(b.data), out=np.empty(a.shape)), fresh=True)
        if b.requires_grad:
            if shared:
                gb = np.matmul(a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]),
                               out=np.empty(b.shape))
            else:
                gb = np.matmul(_swap(a.data), g, out=np.empty(b.shape))
            b.accumulate(gb, fresh=True)
        if bias is not None and bias.requires_grad:
            bias.accumulate(_batch_sum(g, g.shape[-1]), fresh=True)

    y = np.matmul(a.data, b.data, out=np.empty(a.shape[:-1] + b.shape[-1:]))
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
    out = np.empty((n_batch * heads, t, width // heads))
    out.reshape(n_batch, heads, t, -1)[...] = x.reshape(n_batch, t, heads, -1).swapaxes(1, 2)
    return out


def _merge(x: np.ndarray, heads: int) -> np.ndarray:
    """Copy of ``(B*heads, T, d)`` as ``(B, T, heads*d)``."""
    samples, t, d = x.shape
    out = np.empty((samples // heads, t, heads * d))
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

    return _make(np.add(a.data, b.data, out=np.empty(a.shape)), (a, b), "add", backward)


def subtract(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "subtract")

    def backward(out):
        if a.requires_grad:
            a.accumulate(out.grad)
        if b.requires_grad:
            b.accumulate(np.negative(out.grad, out=np.empty(b.shape)), fresh=True)

    return _make(np.subtract(a.data, b.data, out=np.empty(a.shape)), (a, b), "subtract", backward)


def multiply(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "multiply")

    def backward(out):
        if a.requires_grad:
            a.accumulate(np.multiply(out.grad, b.data, out=np.empty(a.shape)), fresh=True)
        if b.requires_grad:
            b.accumulate(np.multiply(out.grad, a.data, out=np.empty(b.shape)), fresh=True)

    return _make(np.multiply(a.data, b.data, out=np.empty(a.shape)), (a, b), "multiply", backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def backward(out):
        a.accumulate(np.multiply(out.grad, c, out=np.empty(a.shape)), fresh=True)

    return _make(np.multiply(a.data, c, out=np.empty(a.shape)), (a,), "scale", backward)


def _batch_sum(x: np.ndarray, n: int) -> np.ndarray:
    """Sum a (..., n) array over every leading axis."""
    return x.reshape(-1, n).sum(axis=0, out=np.empty((n,)))


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
            ga = np.empty(a.shape)
            np.multiply(g, factors, out=ga.reshape(grouped.shape))
            a.accumulate(ga, fresh=True)
        if v.requires_grad:
            gv = np.empty(v.shape)
            gv.fill(0.0)
            # row r: its samples in order, each sample's positions in order
            by_row = np.empty((k, grouped.shape[0]) + grouped.shape[2:])
            np.multiply(np.swapaxes(g, 0, 1), np.swapaxes(grouped, 0, 1), out=by_row)
            gv[:, :n] = by_row.reshape(k, -1, n).sum(axis=1, out=np.empty((k, n)))
            v.accumulate(gv, fresh=True)

    y = np.empty(a.shape)
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
            a.accumulate(np.multiply(out.grad, u.data[:, None], out=np.empty(a.shape)), fresh=True)
        if u.requires_grad:
            prod = np.multiply(out.grad, a.data, out=np.empty(a.shape))
            u.accumulate(_batch_sum(prod.sum(axis=-1, out=np.empty(a.shape[:-1])), m), fresh=True)

    return _make(np.multiply(a.data, u.data[:, None], out=np.empty(a.shape)), (a, u),
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

    return _make(np.add(a.data, v.data, out=np.empty(a.shape)), (a, v), "add_rowvec", backward)


def softmax_rows(a: Tensor, scale: float = 1.0) -> Tensor:
    """Softmax of each row of ``a`` times ``scale``.

    ``scale`` multiplies ``a`` in the output's own buffer: the same float
    operations as ``softmax_rows(scale(a, c))``, without a second output
    array.  Multiplying by 1.0 is exact, so the default changes no bit.
    """
    _need_rows(a, "softmax_rows")
    scale = float(scale)
    # exp(x * scale - max) / sum, computed in one buffer
    p = np.multiply(a.data, scale, out=np.empty(a.shape))
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)

    def backward(out):
        # dL/dx = P * (g - sum_j g_j P_j) * scale row-wise, in one buffer
        g = out.grad
        dx = np.multiply(g, p, out=np.empty(p.shape))
        dot = dx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=dx)
        dx *= p
        dx *= scale
        a.accumulate(dx, fresh=True)

    return _make(p, (a,), "softmax_rows", backward)


def exp(a: Tensor) -> Tensor:
    # Overflow becomes inf here and is converted to NumericsError by the
    # Tensor constructor; the numpy warning would just be noise on top.
    with np.errstate(over="ignore"):
        e = np.exp(a.data, out=np.empty(a.shape))

    def backward(out):
        a.accumulate(np.multiply(out.grad, e, out=np.empty(a.shape)), fresh=True)

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
        share = np.divide(per_sample, m, out=np.empty(per_sample.shape))
        a.accumulate(np.broadcast_to(share, a.shape))

    means = a.data.mean(axis=-2, out=np.empty(a.shape[:-2] + (n,)))
    return _make(means.reshape(-1, n), (a,), "mean_rows", backward)


def layer_norm(a: Tensor, eps: float = _LN_EPS) -> Tensor:
    """Normalise each row to zero mean and unit variance (no affine part).

    The variance is ``np.var``'s: the mean of the squared centred row.
    """
    _need_rows(a, "layer_norm")
    x = a.data
    mu = x.mean(axis=-1, keepdims=True)
    # one buffer: first the squared centred rows, then the normalised rows
    y = np.subtract(x, mu, out=np.empty(x.shape))
    np.square(y, out=y)
    # inv = 1 / sqrt(var + eps), in the variance's buffer
    inv = y.sum(axis=-1, keepdims=True)
    inv /= x.shape[-1]
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    np.subtract(x, mu, out=y)
    y *= inv

    def backward(out):
        # inv * (g - mean(g) - y * mean(g * y)) row-wise
        g = out.grad
        dx = np.multiply(g, y, out=np.empty(y.shape))
        gy = dx.mean(axis=-1, keepdims=True)
        gm = g.mean(axis=-1, keepdims=True)
        y_gy = np.multiply(y, gy, out=np.empty(y.shape))
        np.subtract(g, gm, out=dx)
        dx -= y_gy
        dx *= inv
        a.accumulate(dx, fresh=True)

    return _make(y, (a,), "layer_norm", backward)


# erf as in FreeBSD msun's s_erf.c (after Cody, Math. Comp. 23, 1969): each
# region's rational approximation in Horner form, coefficients lowest first.
# |x| < 0.84375: erf(x) = x + x * PP(x^2) / QQ(x^2)
_ERF_PP = (1.28379167095512558561e-01, -3.25042107247001499370e-01,
           -2.84817495755985104766e-02, -5.77027029648944159157e-03,
           -2.37630166566501626084e-05)
_ERF_QQ = (1.0, 3.97917223959155352819e-01, 6.50222499887672944485e-02,
           5.08130628187576562776e-03, 1.32494738004321644526e-04,
           -3.96022827877536812320e-06)
# 0.84375 <= |x| < 1.25: erf(|x|) = ERX + PA(|x| - 1) / QA(|x| - 1)
_ERF_ERX = 8.45062911510467529297e-01
_ERF_PA = (-2.36211856075265944077e-03, 4.14856118683748331666e-01,
           -3.72207876035701323847e-01, 3.18346619901161753674e-01,
           -1.10894694282396677476e-01, 3.54783043256182359371e-02,
           -2.16637559486879084300e-03)
_ERF_QA = (1.0, 1.06420880400844228286e-01, 5.40397917702171048937e-01,
           7.18286544141962662868e-02, 1.26171219808761642112e-01,
           1.36370839120290507362e-02, 1.19844998467991074170e-02)
# 1.25 <= |x| < 6: erfc(|x|) = exp(-z^2 - 0.5625) * exp((z - |x|)(z + |x|) + R(s) / S(s)) / |x|,
# s = 1 / x^2, z = |x| with the low 32 bits of its mantissa cleared; (RA, SA) below
# _ERF_MID_END (the double whose high word is 0x4006DB6E, about 1 / 0.35), else (RB, SB).
# erf(x) rounds to +-1 from |x| = 6 on.
_ERF_RA = (-9.86494403484714822705e-03, -6.93858572707181764372e-01,
           -1.05586262253232909814e+01, -6.23753324503260060396e+01,
           -1.62396669462573470355e+02, -1.84605092906711035994e+02,
           -8.12874355063065934246e+01, -9.81432934416914548592e+00)
_ERF_SA = (1.0, 1.96512716674392571292e+01, 1.37657754143519042600e+02,
           4.34565877475229228821e+02, 6.45387271733267880336e+02,
           4.29008140027567833386e+02, 1.08635005541779435134e+02,
           6.57024977031928170135e+00, -6.04244152148580987438e-02)
_ERF_RB = (-9.86494292470009928597e-03, -7.99283237680523006574e-01,
           -1.77579549177547519889e+01, -1.60636384855821916062e+02,
           -6.37566443368389627722e+02, -1.02509513161107724954e+03,
           -4.83519191608651397019e+02)
_ERF_SB = (1.0, 3.03380607434824582924e+01, 3.25792512996573918826e+02,
           1.53672958608443695994e+03, 3.19985821950859553908e+03,
           2.55305040643316442583e+03, 4.74528541206955367215e+02,
           -2.24409524465858183362e+01)
_ERF_SMALL_END = 0.84375
# |x| >= 0.84375 exactly when fl(x * x) >= 0.84375**2 (exact): rounding is monotone
# and x * x for the double below 0.84375 rounds two ulps under it.
_ERF_SMALL_END_SQ = _ERF_SMALL_END ** 2
_ERF_NEAR_END = 1.25
_ERF_MID_END = float(np.array(0x4006DB6E << 32, dtype=np.uint64).view(np.float64))
_ERF_ONE_FROM = 6.0
_HIGH_WORD = np.uint64(0xFFFFFFFF00000000)
# rows of an erf call's scratch block: 2 that live through the call, 3 more for
# the tail below 1.25 and 5 for its part past 1.25
_ERF_WORK_ROWS = 10


def _rational(s: np.ndarray, num: tuple, den: tuple, out: np.ndarray,
              den_buf: np.ndarray) -> np.ndarray:
    """``out = num(s) / den(s)``, each polynomial by Horner's rule as s_erf.c nests it."""
    for poly, buf in ((num, out), (den, den_buf)):
        np.multiply(s, poly[-1], out=buf)
        for c in poly[-2:0:-1]:
            buf += c
            buf *= s
        buf += poly[0]
    out /= den_buf
    return out


def _gather(values: np.ndarray, mask: np.ndarray, out_row: np.ndarray):
    """The indices where ``mask`` holds and ``values`` there, in the head of ``out_row``."""
    where = np.flatnonzero(mask)
    # any mode but "raise" spares take a defensive copy of its output
    return where, np.take(values, where, out=out_row[:where.size], mode="clip")


def _erf_far(f: np.ndarray, work: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """erf of the values ``f``, each in [1.25, 6], as ``1 - erfc``, in ``work``'s rows."""
    n = f.size
    s = np.square(f, out=work[0, :n])
    np.divide(1.0, s, out=s)
    ratio = _rational(s, _ERF_RA, _ERF_SA, work[1, :n], work[2, :n])
    above, s_above = _gather(s, np.greater_equal(f, _ERF_MID_END, out=mask[:n]), work[2])
    if above.size:
        k = above.size
        ratio[above] = _rational(s_above, _ERF_RB, _ERF_SB, work[3, :k], work[4, :k])
    # erfc = exp(-z*z - 0.5625) * exp((z - f) * (z + f) + R/S) / f
    z = np.bitwise_and(f.view(np.uint64), _HIGH_WORD, out=s.view(np.uint64)).view(np.float64)
    arg = np.subtract(z, f, out=work[2, :n])
    erfc = np.add(z, f, out=work[3, :n])
    arg *= erfc
    arg += ratio
    np.exp(arg, out=arg)
    np.square(z, out=erfc)
    np.subtract(-0.5625, erfc, out=erfc)
    np.exp(erfc, out=erfc)
    erfc *= arg
    erfc /= f
    return np.subtract(1.0, erfc, out=erfc)


def _erf_tail(xt: np.ndarray, work: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """erf of the values ``xt``, each with |x| >= 0.84375, in ``work``'s rows."""
    n = xt.size
    t = np.abs(xt, out=work[0, :n])
    np.minimum(t, _ERF_ONE_FROM, out=t)  # erf(6) rounds to 1, as at every larger value
    far, f = _gather(t, np.greater_equal(t, _ERF_NEAR_END, out=mask[:n]), work[1])
    near = _rational(np.subtract(t, 1.0, out=work[0, :n]), _ERF_PA, _ERF_QA,
                     work[2, :n], work[3, :n])
    near += _ERF_ERX
    if far.size:
        near[far] = _erf_far(f, work[3:], mask)
    return np.copysign(near, xt, out=near)


def _erf(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """erf of the C-contiguous array ``x`` into the C-contiguous ``out``, which may be ``x``.

    Within 1 ulp of the correctly rounded value.  The rational for
    |x| < 0.84375 runs over the whole array; every other region runs only
    over the elements that fall in it, gathered by the indices of a boolean
    mask, and their results are scattered back.
    """
    flat = x.reshape(-1)
    size = flat.size
    work = np.empty((_ERF_WORK_ROWS, size))
    mask = np.empty((size,), np.bool_)
    # x + x * PP(x^2) / QQ(x^2); values past the region may overflow and are replaced
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.square(flat, out=work[2])
        tail, xt = _gather(flat, np.greater_equal(z, _ERF_SMALL_END_SQ, out=mask), work[1])
        y = _rational(z, _ERF_PP, _ERF_QQ, work[0], work[3])
        y *= flat
    # rows 0 and 1 hold y and the tail's values; the tail works in the rest
    near = _erf_tail(xt, work[2:], mask) if tail.size else None
    np.add(flat, y, out=out.reshape(-1))
    if tail.size:
        out.reshape(-1)[tail] = near
    return out


def gelu(a: Tensor) -> Tensor:
    """Exact (erf-based) Gaussian error linear unit."""
    x = a.data
    # cdf = 0.5 * (1 + erf(x / sqrt 2)), in one buffer
    cdf = np.multiply(x, _INV_SQRT2, out=np.empty(x.shape))
    _erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5

    def backward(out):
        # g * (cdf + x * pdf), pdf = exp(-x^2 / 2) / sqrt(2 pi), in one buffer
        dx = np.square(x, out=np.empty(x.shape))
        dx *= -0.5
        np.exp(dx, out=dx)
        dx *= _INV_SQRT2PI
        dx *= x
        dx += cdf
        dx *= out.grad
        a.accumulate(dx, fresh=True)

    return _make(np.multiply(x, cdf, out=np.empty(x.shape)), (a,), "gelu", backward)


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
    zmax = z.max(axis=1, keepdims=True)
    shifted = np.subtract(z, zmax, out=np.empty(z.shape))
    np.exp(shifted, out=shifted)
    # lse = zmax + log(sum(exp(z - zmax))), in the sum's buffer
    lse = shifted.sum(axis=1, keepdims=True)
    np.log(lse, out=lse)
    np.add(zmax, lse, out=lse)
    loss = (lse[:, 0] - z[rows, targets]).sum()

    def backward(out):
        p = np.subtract(z, lse, out=np.empty(z.shape))
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
