"""A long-double oracle for the charging fits' variable projection. numpy.linalg
takes no long double, so projection() orthogonalises its two or three design
columns itself, by modified Gram-Schmidt run twice (Giraud et al., Numer.
Math. 101, 87 (2005)), never forming a Gram matrix; with np.longdouble's
64-bit mantissa its results stand in for exact ones.

Each result carries kappa, the condition number of its design with unit
columns, and eps = p n u, the columnwise backward error (constant 1) of a QR
solve of the n x p design in doubles, u the unit roundoff (Higham, Accuracy
and Stability of Numerical Algorithms, 2nd ed., Thm 20.3). A backward-stable
solve's residual then lies within eps (1 + 2 kappa) |y| of the exact one
(Wedin; Higham Thm 20.1); a solve from the Gram matrix loses kappa once more
(Higham sec. 20.4), to eps (1 + 2 kappa^2) of each result's scale."""

from types import SimpleNamespace

import numpy as np
import pytest

LD = np.longdouble
U = np.finfo(float).eps / 2

needs_long_double = pytest.mark.skipif(
    np.finfo(LD).eps > 1e-18, reason="np.longdouble is no wider than a double here, so it is no oracle for one"
)


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _less(Q, v, passes=1):
    """v less its parts along the orthonormal vectors Q, and their sizes."""
    coef = [0] * len(Q)
    for _ in range(passes):
        for k, q in enumerate(Q):
            c = _dot(q, v)
            v, coef[k] = v - c[..., None] * q, coef[k] + c
    return v, coef


def projection(tau, f, w, kind, fix_f0, log_T):
    """_fit_window's linear least squares, in long double, at each row
    (log Ta, log Tb) of log_T; tau holds the times since the window's start,
    w the weights (None unweighted). The design is the one the fits solve:
    s_a (1 - e_a) w and s_b (1 - e_b) w, e = exp(-tau/T), s = (+1, -1) for a
    charging window and (+1, +1) for a discharge at a free f0, or -e_a w and
    -e_b w for a discharge at a fixed f0; then w if f0 is free. The target is
    w f, or w (f - fix_f0). Per row: lin (dfa, dfb[, f0]), where Ta = Tb the
    minimum-norm split; resid = A lin - y; cost = |resid|^2; norms, the norms
    of A's columns; kappa; D = d(A lin)/d log T; model(), the Jacobian in
    (dfa, dfb, log Ta, log Tb[, f0]). For all rows: eps and y_norm = |y|.
    Each distinct T's column is built, and orthogonalised against w, once."""
    tau = np.asarray(tau, dtype=LD)
    w = np.ones_like(tau) if w is None else np.asarray(w, dtype=LD)
    free = fix_f0 is None
    y = w * (np.asarray(f, dtype=LD) - (0 if free else LD(fix_f0)))
    log_T = np.asarray(log_T, dtype=float).reshape(-1, 2)
    values, index = np.unique(log_T, return_inverse=True)
    i, j = index.reshape(log_T.shape).T
    scaled = tau / np.exp(values.astype(LD))[:, None]  # tau/T at each distinct T
    e = np.exp(-scaled)
    base = w * (-np.expm1(-scaled) if kind == "charging" or free else -e)  # a column is its sign times base
    slope = -w * scaled * e  # d base / d log T
    sign = (1, -1) if kind == "charging" else (1, 1)
    ww = np.sqrt(_dot(w, w))
    Qw = [w / ww] * free
    # QR in the column order (w, a, b), before the signs; where Ta = Tb the
    # columns coincide and b is dropped
    u, (r_wu,) = _less(Qw, base, 2) if free else (base, [np.zeros(len(values), LD)])
    r_uu = np.sqrt(_dot(u, u))
    qa, tie = u / r_uu[:, None], i == j
    v, (r_ab,) = _less([qa[i]], u[j], 2)
    r_bb = np.where(tie, 0, np.sqrt(_dot(v, v)))
    qb = v / np.where(tie, np.inf, r_bb)[:, None]
    y_w, (c_w,) = _less(Qw, y) if free else (y, [0])
    y_a, (c_a,) = _less([qa], y_w)
    resid, (c_b,) = _less([qb], y_a[i])
    x_b = np.where(tie, 0, c_b / np.where(tie, 1, r_bb))
    x_a = (c_a[i] - r_ab * x_b) / r_uu[i]
    x_a, x_b = np.where(tie, x_a / 2, x_a), np.where(tie, x_a / 2, x_b)
    lin = [sign[0] * x_a, sign[1] * x_b]
    if free:  # a discharge's x_w w + (1 - e) w dfa is f0 w - e w dfa, f0 = x_w + dfa + dfb
        x_w = (c_w - r_wu[i] * x_a - r_wu[j] * x_b) / ww
        lin.append(x_w + (x_a + x_b) * (kind == "discharge"))
    nb = np.sqrt(_dot(base, base))
    norms = np.stack([nb[i], nb[j], np.full(len(i), ww)], axis=1)
    R = np.zeros((len(i), 3, 3), dtype=LD)
    R[:, 0] = np.stack([np.full(len(i), ww), r_wu[i], r_wu[j]], axis=1)
    R[:, 1, 1], R[:, 1, 2], R[:, 2, 2] = r_uu[i], r_ab, r_bb
    R = (R / norms[:, None, [2, 0, 1]]).astype(float)[:, 1 - free :, 1 - free :]
    kappa = np.empty(len(i))
    for rows, M in ((~tie, R[~tie]), (tie, R[tie, :-1, :-1])):
        sv = np.linalg.svd(M, compute_uv=False)
        kappa[rows] = sv[:, 0] / sv[:, -1]
    D = (x_a[:, None] * slope[i], x_b[:, None] * slope[j])
    reported = -w * e if kind == "discharge" else base  # a discharge's amplitude columns are -e w
    return SimpleNamespace(
        lin=np.stack(lin, axis=1), resid=-resid, cost=_dot(resid, resid), norms=norms[:, : 2 + free].astype(float),
        kappa=kappa, eps=(2 + free) * tau.size * U, y_norm=float(np.sqrt(y @ y)), D=D, basis=(*Qw, qa[i], qb),
        model=lambda: np.stack([sign[0] * reported[i], sign[1] * reported[j], *D] + [np.broadcast_to(w, D[0].shape)] * free, axis=2),
    )


def jacobian(exact):
    """Kaufman's Jacobian (I - P) D in log T at each row of a projection(),
    P the projector onto A's columns, and the gradient of cost / 2."""
    J = np.stack([_less(exact.basis, d)[0] for d in exact.D], axis=2)
    return J, np.einsum("mnk,mn->mk", J, exact.resid)
