"""Hot numeric kernels: one log-space triangular recurrence and the sequential samplers.

Everything here is plain numpy/Python; there is one implementation of each
kernel.

* Recurrence kernels. The generalized factorial coefficients obey
  D(n+1,s) = (n - s*alpha - gamma) D(n,s) + D(n,s-1), D(0,0) = 1, written once
  in ``_gfc_log_rows`` as a row of logs advanced one n at a time. With
  gamma = 0, D(n,s) is C(n,s;alpha)/alpha^s (at alpha = 0 the unsigned Stirling
  numbers |s(n,s)|); with gamma < 0 it is the non-central C(n,s;alpha,gamma)/alpha^s.
  ``gfc_log_row`` and ``gfc_nc_log_row`` return its last row and
  ``oldest_inv_moments`` reads a moment off every row.
* Sampler kernels (``ocrp_steps``, ``ocrp_qnew``, ``crp_steps``,
  ``stable_order_steps``, ``mc_chunk``) consume one uniform per step (per
  opened cluster for ``stable_order_steps``) and update caller-owned arrays
  in place.

``mc_chunk`` holds its own reference to ``ocrp_steps``, bound when the module
is built, rather than looking the name up at each call. Per-layer tracing
(``bench/tracing.py``) rebinds every module-level name of ``ocrp_steps``; the
Monte Carlo attempts are counted at ``mc_chunk``, and a global lookup would
count their inner steps a second time as ``ocrp_steps`` calls.
"""

from __future__ import annotations

import math

import numpy as np

NEG_INF = -math.inf


# ---------------------------------------------------------------------------
# recurrence kernels
# ---------------------------------------------------------------------------


def _gfc_log_rows(n, alpha, gamma):
    """Yield log D(nn, s), s = 0..n, for nn = 0..n: one array updated in place.

    Every surviving term is positive, so each cell is a log-sum-exp of two
    terms. D(nn,s) > 0 implies s <= nn, so the factor nn - s*alpha - gamma is
    positive wherever it multiplies a finite cell; the clamped log keeps the
    other cells -inf. D(nn+1,0) = (nn - gamma) D(nn,0) is zero from nn = 1 on
    when gamma = 0.
    """
    row = np.full(n + 1, NEG_INF)
    row[0] = 0.0
    s_alpha = np.arange(1, n + 1, dtype=np.float64) * alpha
    yield row
    for nn in range(n):
        hi = min(nn + 1, n)
        fac = np.log(np.maximum(nn - s_alpha[:hi] - gamma, 1e-300))
        row[1:hi + 1] = np.logaddexp(row[1:hi + 1] + fac, row[0:hi])
        row[0] = row[0] + math.log(nn - gamma) if nn > gamma else NEG_INF
        yield row


def _last_row(n, alpha, gamma):
    for row in _gfc_log_rows(n, alpha, gamma):
        pass
    return row


def gfc_log_row(n, alpha):
    """log of C(n,k;alpha)/alpha^k for k = 0..n (log|s(n,k)| at alpha = 0)."""
    return _last_row(n, alpha, 0.0)


def gfc_nc_log_row(m, alpha, gamma):
    """log of C(m,s;alpha,gamma)/alpha^s for s = 0..m, gamma < 0."""
    return _last_row(m, alpha, gamma)


def oldest_inv_moments(nmax, alpha, theta):
    """E[1/(theta + alpha K_j)] under PYP(alpha, theta) for j = 0..nmax.

    Pr[K_j = k] = prod_{i<k} (theta + i*alpha) * C(j,k;alpha)/alpha^k / (theta)_(j),
    and row j of the recurrence holds log C(j,k;alpha)/alpha^k.
    """
    k = np.arange(nmax + 1, dtype=np.float64)
    logpref = np.concatenate(([0.0], np.cumsum(np.log(theta + alpha * k[:-1]))))
    inv = 1.0 / (theta + alpha * k)
    out = np.empty(nmax + 1)
    out[0] = 1.0 / theta  # K_0 = 0
    rows = _gfc_log_rows(nmax, alpha, 0.0)
    next(rows)
    log_rise = 0.0  # log (theta)_(j)
    for j, row in enumerate(rows, 1):
        log_rise += math.log(theta + (j - 1))
        lp = logpref[1:j + 1] + row[1:j + 1] - log_rise
        out[j] = float(np.exp(lp) @ inv[1:j + 1])
    return out


# ---------------------------------------------------------------------------
# sampler kernels
# ---------------------------------------------------------------------------


def ocrp_steps(u, alpha, theta, freqs, ids, k, next_id, assign, t0):
    """Advance the ordered CRP by len(u) steps, one uniform per step.

    freqs[j] / ids[j] hold the count and creation id of the species at order
    j (0-based, 0 = oldest); both are modified in place and must have room
    for every table the steps can open. assign[t0+t] records the creation id
    joined at step t. Returns the updated (k, next_id).
    """
    n = 0
    for j in range(k):
        n += freqs[j]
    for t in range(u.shape[0]):
        x = u[t]
        tot = theta + n
        prod = 1.0
        rj = float(n)
        acc = 0.0
        pos = -1
        is_new = True
        for j in range(k):
            q = (theta + alpha * rj) / ((1.0 + rj) * tot) * prod
            acc += q
            if x < acc:
                pos = j
                is_new = True
                break
            mj = freqs[j]
            rj1 = rj - mj
            base = alpha * rj1 + theta * mj
            q = rj * (mj - alpha) * (base + theta) / ((1.0 + rj) * tot * base) * prod
            acc += q
            if x < acc:
                pos = j
                is_new = False
                break
            prod *= rj * (base + alpha) / ((rj + 1.0) * base)
            rj = rj1
        if pos < 0:
            pos = k  # youngest new slot absorbs the rounding residue
            is_new = True
        if is_new:
            for i in range(k, pos, -1):
                freqs[i] = freqs[i - 1]
                ids[i] = ids[i - 1]
            freqs[pos] = 1
            ids[pos] = next_id
            assign[t0 + t] = next_id
            next_id += 1
            k += 1
        else:
            freqs[pos] += 1
            assign[t0 + t] = ids[pos]
        n += 1
    return k, next_id


def ocrp_qnew(freqs, k, alpha, theta, out):
    """New-table order probabilities q_new[0..k] at the current state."""
    n = 0
    for j in range(k):
        n += freqs[j]
    tot = theta + n
    prod = 1.0
    rj = float(n)
    for j in range(k):
        out[j] = (theta + alpha * rj) / ((1.0 + rj) * tot) * prod
        mj = freqs[j]
        rj1 = rj - mj
        base = alpha * rj1 + theta * mj
        prod *= rj * (base + alpha) / ((rj + 1.0) * base)
        rj = rj1
    out[k] = theta / tot * prod  # r_{k+1} = 0
    return n


def crp_steps(u, alpha, theta, sizes, assign, k, n, t0):
    """Advance the classical (unordered) CRP; cluster ids follow arrival order."""
    for t in range(u.shape[0]):
        x = u[t] * (theta + n)
        thresh = theta + k * alpha
        if x < thresh:
            sizes[k] = 1
            assign[t0 + t] = k
            k += 1
        else:
            x -= thresh
            c = 0
            while c < k - 1:
                w = sizes[c] - alpha
                if x < w:
                    break
                x -= w
                c += 1
            sizes[c] += 1
            assign[t0 + t] = c
        n += 1
    return k


def stable_order_steps(assign, u, freqs, ids, ord_of, k):
    """Insert arriving clusters into the order under the theta->0 stable rule.

    The limit of the ordered-PYP new-table law at theta=0 puts weight 1 on
    each of the k existing order slots and 1/m_k on the youngest slot, m_k
    being the current youngest species' frequency. Consumes u[t] only when
    step t opens a cluster. Returns updated k.
    """
    for t in range(assign.shape[0]):
        c = assign[t]
        if c == k:  # new cluster: ids arrive consecutively
            if k == 0:
                pos = 0
            else:
                x = u[t] * (k + 1.0 / freqs[k - 1])
                if x >= k:
                    pos = k
                else:
                    pos = int(x)
            for i in range(k, pos, -1):
                freqs[i] = freqs[i - 1]
                ids[i] = ids[i - 1]
                ord_of[ids[i]] = i
            freqs[pos] = 1
            ids[pos] = c
            ord_of[c] = pos
            k += 1
        else:
            freqs[ord_of[c]] += 1
    return k


def _make_mc_chunk(run_steps):
    def mc_chunk(U, alpha, theta, n, m, cond_k, cond_m1, cond_freqs,
                 freqs, ids, assign, out_kmn, out_w1, out_a1, out_w2, out_a2):
        """Acceptance-rejection attempts over the rows of U (each n+m uniforms).

        A run is accepted when its size-n state matches the condition:
        cond_freqs (when non-empty) must equal the full ordered frequency
        vector; otherwise cond_k > 0 pins K_n and cond_m1 > 0 pins M_1.
        Accepted runs continue m steps; enlarged order-1 and order-2
        outcomes are compacted into the out arrays (w2 = 0 when the enlarged
        sample has a single species). Returns the number accepted.
        """
        cnt = 0
        kc = cond_freqs.shape[0]
        for b in range(U.shape[0]):
            k, next_id = run_steps(U[b, :n], alpha, theta, freqs, ids, 0, 0, assign, 0)
            ok = True
            if kc > 0:
                if k != kc:
                    ok = False
                else:
                    for j in range(kc):
                        if freqs[j] != cond_freqs[j]:
                            ok = False
                            break
            else:
                if cond_k > 0 and k != cond_k:
                    ok = False
                if ok and cond_m1 > 0 and freqs[0] != cond_m1:
                    ok = False
            if not ok:
                continue
            kn = k
            k, next_id = run_steps(U[b, n:n + m], alpha, theta, freqs, ids, k, next_id, assign, n)
            out_kmn[cnt] = k - kn
            out_w1[cnt] = freqs[0]
            out_a1[cnt] = 1 if ids[0] >= kn else 0
            if k >= 2:
                out_w2[cnt] = freqs[1]
                out_a2[cnt] = 1 if ids[1] >= kn else 0
            else:
                out_w2[cnt] = 0
                out_a2[cnt] = 0
            cnt += 1
        return cnt

    return mc_chunk


mc_chunk = _make_mc_chunk(ocrp_steps)
