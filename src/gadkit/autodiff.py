"""Dense float64 tensors with tape-recorded reverse-mode gradients.

A Tape is a single-threaded recording context: operations executed inside
`with Tape() as tape:` append nodes in execution order whenever a gradient
can flow, and `backward(tape, loss)` replays them in exact reverse order.
Tensors are 2-D (rows, cols) and always double precision; non-finite values
are rejected at construction, which covers every op boundary.
Op outputs are adopted without a copy; the finiteness check still runs at
each op boundary.

Everything here is deterministic: identical inputs give bit-identical
outputs, and no kernel consumes randomness.

`train` is the one optimization loop: full-batch Adam over a loss closure,
with an optional best-validation checkpoint, e.g.

    losses, best = train(params, lambda: bce_with_logits(logits(), y), 200,
                         0.005, validate=lambda: auprc(scores(), y_val))
"""

import threading

import numpy as np


class NonFiniteError(ValueError):
    """Raised when a tensor would contain NaN or Inf."""


class Tensor:
    """A (rows, cols) float64 matrix, optionally trainable.

    `grad`, when populated by backward(), has exactly the tensor's shape.
    Gradients accumulate across backward calls until explicitly reset
    (see Adam.zero_grad / zero_grad).
    """

    __slots__ = ("values", "requires_grad", "grad")

    def __init__(self, values, requires_grad=False, *, _adopt=False):
        # _adopt: `values` is a fresh op result that nothing else holds, so
        # it is taken over rather than copied (only _emit passes it)
        if _adopt:
            arr = np.asarray(values, dtype=np.float64, order="C")
        else:
            arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D; got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("tensor contains non-finite values")
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        if self.values.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 tensor, got {self.values.shape}")
        return float(self.values[0, 0])

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def zero_grad(params):
    for p in params:
        p.grad = None


_TLS = threading.local()


def _stack():
    s = getattr(_TLS, "tapes", None)
    if s is None:
        s = _TLS.tapes = []
    return s


def active_tape():
    s = _stack()
    return s[-1] if s else None


class _Node:
    __slots__ = ("out", "inputs", "vjp")

    def __init__(self, out, inputs, vjp):
        self.out = out
        self.inputs = inputs
        self.vjp = vjp


class Tape:
    """Recording context; enter to capture gradients, then call backward()."""

    def __init__(self):
        self._nodes = []
        self._tracked = set()
        self._spent = False

    def __enter__(self):
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _stack().pop()
        return False

    def reset(self):
        self._nodes.clear()
        self._tracked.clear()
        self._spent = False

    def _needs_grad(self, t):
        return t.requires_grad or id(t) in self._tracked

    def _record(self, out, inputs, vjp):
        if self._spent:
            raise RuntimeError("tape already consumed by backward(); reset or use a fresh tape")
        self._nodes.append(_Node(out, inputs, vjp))
        self._tracked.add(id(out))


def _emit(out_values, inputs, vjp):
    """Create the output tensor, recording a node if a gradient can flow."""
    out = Tensor(out_values, _adopt=True)
    tape = active_tape()
    if tape is not None and any(tape._needs_grad(t) for t in inputs):
        tape._record(out, inputs, vjp)
    return out


def backward(tape, loss, params=None):
    """Accumulate d loss / d tensor into .grad for every trainable tensor.

    loss must be a 1x1 tensor recorded on this tape. A second backward on
    the same tape (without reset) is an error. If `params` is given, any
    listed tensor left untouched by the graph gets an explicit zero grad.
    """
    if tape._spent:
        raise RuntimeError("backward() already ran on this tape; reset or use a fresh tape")
    if loss.values.shape != (1, 1):
        raise ValueError(f"loss must be scalar (1x1), got {loss.values.shape}")
    if id(loss) not in tape._tracked:
        raise ValueError("loss was not produced on this tape (stale or foreign tape)")

    adjoint = {id(loss): np.ones((1, 1))}
    for node in reversed(tape._nodes):
        g = adjoint.pop(id(node.out), None)
        if g is None:
            continue
        for t, adj in zip(node.inputs, node.vjp(g)):
            if adj is None:
                continue
            if t.requires_grad:
                if t.grad is None:
                    t.grad = np.zeros_like(t.values)
                t.grad += adj
            if id(t) in tape._tracked:
                acc = adjoint.get(id(t))
                adjoint[id(t)] = adj if acc is None else acc + adj
    tape._spent = True

    if params is not None:
        for p in params:
            if p.grad is None:
                p.grad = np.zeros_like(p.values)


def _check_shape(cond, msg):
    if not cond:
        raise ValueError(msg)


def matmul(a, b, bias=None):
    """a @ b, plus a (1, cols) bias row broadcast over the rows if given."""
    _check_shape(a.shape[1] == b.shape[0],
                 f"matmul shape mismatch: {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    out = av @ bv
    if bias is None:
        return _emit(out, (a, b), lambda g: (g @ bv.T, av.T @ g))
    _check_shape(bias.shape == (1, out.shape[1]),
                 f"bias shape {bias.shape} does not broadcast over {out.shape}")
    out += bias.values
    return _emit(out, (a, b, bias),
                 lambda g: (g @ bv.T, av.T @ g, g.sum(axis=0, keepdims=True)))


def transpose(a):
    return _emit(a.values.T.copy(), (a,), lambda g: (g.T,))


def add(a, b):
    _check_shape(a.shape == b.shape, f"add shape mismatch: {a.shape} vs {b.shape}")
    return _emit(a.values + b.values, (a, b), lambda g: (g, g))


def scale(a, c):
    c = float(c)
    return _emit(a.values * c, (a,), lambda g: (g * c,))


def add_bias(h, b):
    _check_shape(b.shape == (1, h.shape[1]),
                 f"bias shape {b.shape} does not broadcast over {h.shape}")
    return _emit(h.values + b.values, (h, b),
                 lambda g: (g, g.sum(axis=0, keepdims=True)))


LEAKY_SLOPE = 0.01
PRELU_SLOPE = 0.25

ACTIVATIONS = ("relu", "leaky_relu", "tanh", "prelu", "sigmoid")


def stable_sigmoid(z):
    # exp only ever sees -|z| <= 0, so it cannot overflow
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def activation(h, kind):
    x = h.values
    if kind == "relu":
        out = np.maximum(x, 0.0)
        mask = (x > 0).astype(np.float64)
        return _emit(out, (h,), lambda g: (g * mask,))
    if kind == "leaky_relu" or kind == "prelu":
        slope = LEAKY_SLOPE if kind == "leaky_relu" else PRELU_SLOPE
        # 1.0 where x > 0, slope elsewhere; (1 - slope) + slope == 1.0
        # exactly for both slopes, so x * mask equals the two-branch form
        mask = (x > 0) * (1.0 - slope)
        mask += slope
        return _emit(x * mask, (h,), lambda g: (g * mask,))
    if kind == "tanh":
        out = np.tanh(x)
        return _emit(out, (h,), lambda g: (g * (1.0 - out * out),))
    if kind == "sigmoid":
        out = stable_sigmoid(x)
        return _emit(out, (h,), lambda g: (g * out * (1.0 - out),))
    raise ValueError(f"unknown activation {kind!r}; choose from {ACTIVATIONS}")


def mean_rows(h):
    n = h.shape[0]
    out = h.values.mean(axis=0, keepdims=True)
    return _emit(out, (h,), lambda g: (np.repeat(g, n, axis=0) / n,))


def sum_all(h):
    return _emit(np.array([[h.values.sum()]]), (h,),
                 lambda g: (np.full_like(h.values, g[0, 0]),))


def gather_rows(h, rows):
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size and (rows.min() < 0 or rows.max() >= h.shape[0]):
        raise ValueError("row index out of range")

    def vjp(g):
        gh = np.zeros_like(h.values)
        np.add.at(gh, rows, g)
        return (gh,)

    return _emit(h.values[rows], (h,), vjp)


def concat_rows(tensors):
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat_rows needs at least one tensor")
    cols = tensors[0].shape[1]
    _check_shape(all(t.shape[1] == cols for t in tensors),
                 "concat_rows column mismatch")
    sizes = [t.shape[0] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[bounds[i]:bounds[i + 1]] for i in range(len(tensors)))

    return _emit(np.vstack([t.values for t in tensors]), tuple(tensors), vjp)


def row_substitute(x, rows, token):
    """x with the given rows replaced by a shared (1, D) token row."""
    rows = np.asarray(rows, dtype=np.int64)
    _check_shape(token.shape == (1, x.shape[1]),
                 f"token shape {token.shape} does not match row width {x.shape[1]}")
    out = x.values.copy()
    out[rows] = token.values

    def vjp(g):
        gx = g.copy()
        gx[rows] = 0.0
        return gx, g[rows].sum(axis=0, keepdims=True)

    return _emit(out, (x, token), vjp)


def zero_rows(h, rows):
    rows = np.asarray(rows, dtype=np.int64)
    out = h.values.copy()
    out[rows] = 0.0

    def vjp(g):
        gh = g.copy()
        gh[rows] = 0.0
        return (gh,)

    return _emit(out, (h,), vjp)


def spmm(adj, h):
    """adj @ h for a symmetric scipy sparse matrix; the adjoint reuses adj."""
    _check_shape(adj.shape[1] == h.shape[0],
                 f"operator over {adj.shape[1]} nodes cannot multiply {h.shape}")
    return _emit(np.asarray(adj @ h.values), (h,),
                 lambda g: (np.asarray(adj @ g),))


def bce_with_logits(logits, targets, weights=None):
    """Mean binary cross-entropy from logits, in stable log-sum-exp form.

    targets (and optional per-element weights) are plain arrays; the mean is
    taken over all elements with weights applied multiplicatively.
    """
    z = logits.values
    y = np.asarray(targets, dtype=np.float64)
    _check_shape(y.shape == z.shape, f"targets shape {y.shape} vs logits {z.shape}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("targets must be 0/1")
    if weights is None:
        w = np.ones_like(z)
    else:
        w = np.asarray(weights, dtype=np.float64)
        _check_shape(w.shape == z.shape, f"weights shape {w.shape} vs logits {z.shape}")
    count = z.size
    elem = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = np.array([[(w * elem).sum() / count]])
    return _emit(out, (logits,),
                 lambda g: (g[0, 0] * w * (stable_sigmoid(z) - y) / count,))


_NORM_EPS = 1e-12


def scaled_cosine_error(x, xhat, gamma):
    """Mean over rows of (1 - cos(x_i, xhat_i))^gamma, gamma >= 1."""
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    _check_shape(x.shape == xhat.shape,
                 f"shape mismatch: {x.shape} vs {xhat.shape}")
    m = x.shape[0]
    if m < 1:
        raise ValueError("need at least one row")
    xv, rv = x.values, xhat.values
    nx = np.maximum(np.linalg.norm(xv, axis=1, keepdims=True), _NORM_EPS)
    nr = np.maximum(np.linalg.norm(rv, axis=1, keepdims=True), _NORM_EPS)
    cos = (xv * rv).sum(axis=1, keepdims=True) / (nx * nr)
    d = np.maximum(1.0 - cos, 0.0)
    out = np.array([[(d ** gamma).mean()]])

    def vjp(g):
        # d/dc (1-c)^gamma = -gamma (1-c)^(gamma-1); dc/dx̂ via quotient rule
        coef = -g[0, 0] * gamma * d ** (gamma - 1.0) / m
        dc_dr = xv / (nx * nr) - cos * rv / (nr * nr)
        dc_dx = rv / (nx * nr) - cos * xv / (nx * nx)
        return coef * dc_dx, coef * dc_dr

    return _emit(out, (x, xhat), vjp)


class Adam:
    """Adam with bias correction over a fixed parameter list.

    The step reads each parameter's .grad; gradients are reset only by an
    explicit zero_grad(), never implicitly.
    """

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.step_count = 0
        self.m = [np.zeros_like(p.values) for p in self.params]
        self.v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self):
        zero_grad(self.params)

    def step(self):
        self.step_count += 1
        t = self.step_count
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                raise ValueError("parameter has no gradient; run backward() first")
            if g.shape != p.values.shape:
                raise ValueError(f"gradient shape {g.shape} vs parameter {p.values.shape}")
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g
            m_hat = self.m[i] / (1.0 - b1 ** t)
            v_hat = self.v[i] / (1.0 - b2 ** t)
            p.values = p.values - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


VAL_CHECK_EVERY = 10


def train(params, loss_fn, epochs, lr, validate=None):
    """Minimize loss_fn() over params with full-batch Adam for `epochs` steps.

    loss_fn takes no arguments and builds a 1x1 loss on the active tape.
    validate, if given, takes no arguments and returns a score (higher is
    better); it runs every VAL_CHECK_EVERY epochs and after the last one,
    and params end at the values of the first check with the best score.
    Returns (losses, best) with best = (score, epoch), or None without
    validate. A non-finite value raises RuntimeError naming the epoch.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    params = list(params)
    opt = Adam(params, lr=lr)
    losses = []
    best = None  # (score, epoch, parameter values)
    for epoch in range(epochs):
        opt.zero_grad()
        try:
            with Tape() as tape:
                loss = loss_fn()
            backward(tape, loss, params=params)
            opt.step()
            losses.append(loss.item())
            if validate is not None and ((epoch + 1) % VAL_CHECK_EVERY == 0
                                         or epoch == epochs - 1):
                score = validate()
                if best is None or score > best[0]:
                    best = (score, epoch, [p.values.copy() for p in params])
        except NonFiniteError as exc:
            raise RuntimeError(f"training diverged at epoch {epoch}: {exc}") from exc
    if best is None:
        return losses, None
    for p, values in zip(params, best[2]):
        p.values = values
    return losses, best[:2]
