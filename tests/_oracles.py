"""Independent reference implementations used only to check the library.

Everything here is deliberately written with different algorithms and data
paths than the code under test: a regex token splitter, count arithmetic from
graph theory, a shifted QR iteration for spectra, a Jacobi solver that applies
each round as one dense n x n congruence, a spring descent that sums
explicit difference vectors pair by pair, a rotation chain recorded as one
dense plane matrix per angle, a geometry encoder that tiles and pools pair
messages with dense n^2 x n matrices and one that runs its filter on every
ordered pair and records each message step (`encode_geometry_ordered`, the
bit-identity reference), a Hamiltonian value index built
entry by entry, the head's pair net recorded op by op (`pair_net_recorded`),
and both training losses run one molecule at a time
(`pretrain_loss_per_molecule`, `finetune_loss_per_molecule`), with the
model's forward arithmetic written out on unpadded rank-2 rows. `GroupAdam`
is the optimizer as it was before the parameters became one vector: a dict
of arrays updated group by group, with a prefix lookup for each group's rate.
`pretrain_reference` and `finetune_reference` are the two training loops as
they were before the stages shared one step loop, each with its own copy of
the seeded schedule, the step, the gradient guard and the trace.
`generate_records_per_molecule` is dataset generation as it was before
molecules were embedded in stacked blocks: parse, embed, label and solve one
corpus entry at a time through `embed_3d`. `list_form_line` and
`read_list_form_line` are a dataset line as it was before format version 2:
`h_upper` and `s_upper` as JSON lists of floats, each triangle unfolded
entry by entry. `ring_flags_by_relabelling` and `fragment_by_relabelling`
are the ring flags and the fragmenter as they were before they read the parse
tree: one connected-component labelling (`components`) per bond, and per
candidate cut.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

# The classic published SMILES token pattern, adapted to the supported
# grammar (organic subset + brackets + rings + branches + bonds + stereo).
SMILES_TOKEN_RE = re.compile(
    r"(\[[^\]]*\]|Br|Cl|%\d\d|[BCNOPSFI]|[bcnops]|[-=#:/\\()]|\d)"
)


def regex_tokenize(smiles: str) -> list[str]:
    out = []
    pos = 0
    for m in SMILES_TOKEN_RE.finditer(smiles):
        if m.start() != pos:
            raise ValueError(f"unmatched text at {pos}: {smiles[pos:m.start()]!r}")
        out.append(m.group(0))
        pos = m.end()
    if pos != len(smiles):
        raise ValueError(f"unmatched tail: {smiles[pos:]!r}")
    return out


_ATOM_RE = re.compile(r"^(\[[^\]]*\]|Br|Cl|[BCNOPSFI]|[bcnops])$")


def regex_atom_count(smiles: str) -> int:
    return sum(1 for t in regex_tokenize(smiles) if _ATOM_RE.match(t))


def regex_bond_count(smiles: str) -> int:
    """Bonds of a connected SMILES: atoms - 1 + ring closure pairs."""
    ring_tokens = [t for t in regex_tokenize(smiles) if t.isdigit() or t.startswith("%")]
    open_set: set[str] = set()
    closures = 0
    for t in ring_tokens:
        if t in open_set:
            open_set.remove(t)
            closures += 1
        else:
            open_set.add(t)
    if open_set:
        raise ValueError(f"unclosed rings: {open_set}")
    return regex_atom_count(smiles) - 1 + closures


def qr_eigvalsh(a: np.ndarray, tol: float = 1e-13, max_iter: int = 10000) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by shifted QR with deflation."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    eigs = []
    while n > 1:
        for _ in range(max_iter):
            off = abs(a[n - 1, n - 2])
            if off <= tol * (abs(a[n - 1, n - 1]) + abs(a[n - 2, n - 2]) + 1e-300):
                break
            # Wilkinson shift from the trailing 2x2 block
            x, y, z = a[n - 2, n - 2], a[n - 2, n - 1], a[n - 1, n - 1]
            d = 0.5 * (x - z)
            if d == 0.0 and y == 0.0:
                mu = z
            else:
                sgn = 1.0 if d >= 0 else -1.0
                mu = z - y * y / (d + sgn * np.hypot(d, y))
            q, r = np.linalg.qr(a[:n, :n] - mu * np.eye(n))
            a[:n, :n] = r @ q + mu * np.eye(n)
        else:
            raise RuntimeError("QR iteration did not deflate")
        eigs.append(a[n - 1, n - 1])
        n -= 1
    eigs.append(a[0, 0])
    return np.sort(np.asarray(eigs))


def round_robin_schedule(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rounds of disjoint index pairs covering every (i, j) once per sweep."""
    m = n + (n % 2)
    players = list(range(m))
    rounds = []
    for _ in range(m - 1):
        left = players[:m // 2]
        right = players[m // 2:][::-1]
        pairs = [(p, q) for p, q in zip(left, right) if p < n and q < n]
        pairs = [(min(p, q), max(p, q)) for p, q in pairs]
        rounds.append((np.asarray([p for p, _ in pairs], dtype=np.intp),
                       np.asarray([q for _, q in pairs], dtype=np.intp)))
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def _offdiag_max(a: np.ndarray) -> float:
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def dense_jacobi_eigh(a: np.ndarray, max_sweeps: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Round-robin Jacobi that builds each round's dense Givens matrix G and
    applies it as the congruence G^T A G."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if n == 1:
        return a.diagonal().copy(), np.ones((1, 1))
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return np.zeros(n), np.eye(n)

    work = 0.5 * (a + a.T)
    vecs = np.eye(n)
    stop = 1e-13 * scale
    skip = 0.01 * stop
    schedule = round_robin_schedule(n)

    for _ in range(max_sweeps):
        if _offdiag_max(work) <= stop:
            break
        for p_arr, q_arr in schedule:
            apq = work[p_arr, q_arr]
            mask = np.abs(apq) > skip
            if not mask.any():
                continue
            app = work[p_arr, p_arr]
            aqq = work[q_arr, q_arr]
            theta = np.where(mask, (aqq - app) / np.where(mask, 2.0 * apq, 1.0), 0.0)
            t = np.where(mask,
                         np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0)),
                         0.0)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            g = np.eye(n)
            g[p_arr, p_arr] = c
            g[q_arr, q_arr] = c
            g[p_arr, q_arr] = s
            g[q_arr, p_arr] = -s
            work = g.T @ work @ g
            work = 0.5 * (work + work.T)
            vecs = vecs @ g
    else:
        raise RuntimeError("reference Jacobi did not converge")

    eigenvalues = work.diagonal().copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], np.ascontiguousarray(vecs[:, order])


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return 0.5 * (m + m.T)


def random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return m @ m.T / n + 0.5 * np.eye(n)


def spring_gradient_pairwise(coords: np.ndarray, bonded: np.ndarray) -> np.ndarray:
    """Spring gradient from explicit n x n x 3 difference vectors.

    `bonded` is a boolean n x n bond mask whose diagonal is True, which keeps
    self-pairs out of the repulsion term.
    """
    from molham.oracle import BOND_TARGET, REPULSION_FLOOR

    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    np.fill_diagonal(dist, 1.0)
    unit = diff / dist[:, :, None]

    coeff = np.zeros((n, n))
    bonds = bonded.copy()
    np.fill_diagonal(bonds, False)
    coeff[bonds] = 2.0 * (dist[bonds] - BOND_TARGET)
    close = (~bonded) & (dist < REPULSION_FLOOR)
    coeff[close] = -2.0 * (REPULSION_FLOOR - dist[close])
    return (coeff[:, :, None] * unit).sum(axis=1)


def embed_3d_pairwise(xmol, seed: int) -> np.ndarray:
    """The oracle's spring descent with `spring_gradient_pairwise` for each step."""
    from molham import oracle

    n = xmol.n_atoms
    bonded = np.zeros((n, n), dtype=bool)
    for i, j in xmol.bonds:
        bonded[i, j] = bonded[j, i] = True
    np.fill_diagonal(bonded, True)
    for attempt in range(oracle._RESEEDS):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, attempt])))
        coords = oracle._initial_sphere(rng, n)
        if n == 1:
            return coords
        for _ in range(oracle._DESCENT_STEPS):
            coords -= oracle._DESCENT_RATE * spring_gradient_pairwise(coords, bonded)
        diff = coords[:, None, :] - coords[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        if float(dist.min()) >= oracle.MIN_DISTANCE:
            return coords
    raise RuntimeError("reference descent found no embedding")


def rotation_chain_recorded(angles, d: int):
    """`build_rotation` as a chain of recorded ops: one dense plane per angle,
    cos/sin selected through a one-hot column and composed by matmul."""
    from molham import autodiff as ad
    from molham.autodiff import constant

    def cos(x):  # the library records no cosine; this elementwise node is the reference's own
        data = x.data
        return ad._unary(x, np.cos(data), lambda: -np.sin(data))

    flat = ad.reshape(angles, (1, d - 1))
    rot = None
    for i in range(d - 1):
        sel = np.zeros((d - 1, 1))
        sel[i, 0] = 1.0
        diag_mask = np.zeros((d, d))
        diag_mask[i, i] = diag_mask[i + 1, i + 1] = 1.0
        skew_mask = np.zeros((d, d))
        skew_mask[i + 1, i] = 1.0
        skew_mask[i, i + 1] = -1.0
        theta = flat @ constant(sel)
        plane = (constant(np.eye(d) - diag_mask) + cos(theta) * constant(diag_mask)
                 + ad.sin(theta) * constant(skew_mask))
        rot = plane if rot is None else rot @ plane
    return rot


def encode_geometry_dense(elements, coords: np.ndarray, params):
    """`encode_geometry` with pair messages as pool @ (filt * (tile @ g) * gate),
    where tile (n^2 x n) copies atom j to pair row i * n + j and pool (n x n^2)
    sums pair rows back onto atom i."""
    from molham import autodiff as ad
    from molham.autodiff import constant
    from molham.encoders import cutoff_envelope, element_id, radial_basis

    n = len(elements)
    tile = np.zeros((n * n, n))
    pool = np.zeros((n, n * n))
    for i in range(n):
        for j in range(n):
            tile[i * n + j, j] = 1.0
            pool[i, i * n + j] = 1.0
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1)).reshape(-1)
    gate = cutoff_envelope(dist, params.cutoff).reshape(n, n)
    np.fill_diagonal(gate, 0.0)
    rbf = constant(radial_basis(dist, params.cutoff, params.n_rbf))
    gate_c, tile_c, pool_c = constant(gate.reshape(n * n, 1)), constant(tile), constant(pool)

    h = ad.gather_rows(params.elem_embed, np.asarray([element_id(e) for e in elements]))
    for rnd in params.rounds:
        filt = ad.tanh(rbf @ rnd["wf1"] + rnd["bf1"]) @ rnd["wf2"] + rnd["bf2"]
        g = h @ rnd["wmsg"] + rnd["bmsg"]
        msg = pool_c @ (filt * (tile_c @ g) * gate_c)
        h = ad.tanh(h @ rnd["wupd"] + rnd["bupd"] + msg)
    return h


@dataclass(frozen=True)
class OrderedGeomBatch:
    """B molecules padded to n atom rows, with their ordered neighbour pairs
    (i != j, closer than the cutoff) concatenated over the batch.

    Pair rows name flat atom rows b * n + i of the (B * n, d) block."""

    elem_ids: np.ndarray  # (B, n) element rows; padding atoms hold row 0
    rbf: np.ndarray       # (P, n_rbf) radial basis of each pair's distance
    gate: np.ndarray      # (P, 1) cutoff envelope of each pair
    src: np.ndarray       # (P,) row of the neighbour j sending the message
    dst: np.ndarray       # (P,) row of the atom i receiving it


def geom_batch_ordered(elem_ids, coords, cutoff: float, n_rbf: int) -> OrderedGeomBatch:
    """`geom_batch` with one radial-basis row per ordered pair."""
    from molham.encoders import cutoff_envelope, radial_basis

    n = max(len(e) for e in elem_ids)
    elem = np.zeros((len(elem_ids), n), dtype=np.intp)
    dists, src, dst = [], [], []
    for b, (ids, xyz) in enumerate(zip(elem_ids, coords)):
        xyz = np.asarray(xyz, dtype=np.float64)
        elem[b, :len(ids)] = ids
        diff = xyz[:, None, :] - xyz[None, :, :]
        dist = np.sqrt((diff * diff).sum(axis=-1))
        i, j = np.nonzero((dist < cutoff) & ~np.eye(len(ids), dtype=bool))
        dists.append(dist[i, j])
        dst.append(b * n + i)
        src.append(b * n + j)
    dist = np.concatenate(dists)
    return OrderedGeomBatch(elem, radial_basis(dist, cutoff, n_rbf),
                            cutoff_envelope(dist, cutoff)[:, None],
                            np.concatenate(src), np.concatenate(dst))


def encode_geometry_ordered(batch: OrderedGeomBatch, params):
    """`encode_geometry` with the filter run on every ordered pair and the
    messages recorded as gather, two products and a segment sum."""
    from molham import autodiff as ad
    from molham.autodiff import constant

    shape = batch.elem_ids.shape + (params.width,)
    rbf, gate = constant(batch.rbf), constant(batch.gate)
    h = ad.gather_rows(params.elem_embed, batch.elem_ids.reshape(-1))

    for rnd in params.rounds:
        filt = ad.tanh(rbf @ rnd["wf1"] + rnd["bf1"]) @ rnd["wf2"] + rnd["bf2"]
        g = h @ rnd["wmsg"] + rnd["bmsg"]
        # message i = sum over pairs (i, j) of filt * g[j] * gate
        msg = ad.segment_sum(ad.gather_rows(g, batch.src) * filt * gate, batch.dst, h.shape[0])
        h = ad.tanh(h @ rnd["wupd"] + rnd["bupd"] + msg)
    return ad.reshape(h, shape)


def value_index_loops(lay):
    """`hamhead._value_index` built entry by entry from per-block column tables."""
    from molham.hamhead import HEAD_VALUES

    cols = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    n = lay.n_atoms
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pair_row = {}
    for p, (i, j) in enumerate(pairs):
        pair_row[i, j] = pair_row[j, i] = n + p
    index = np.zeros((lay.n_orb, lay.n_orb), dtype=np.intp)
    for a, (off_a, cnt_a) in enumerate(zip(lay.offsets, lay.counts)):
        for b, (off_b, cnt_b) in enumerate(zip(lay.offsets, lay.counts)):
            row = a if a == b else pair_row[a, b]
            for oi in range(cnt_a):
                for oj in range(cnt_b):
                    index[off_a + oi, off_b + oj] = row * HEAD_VALUES + cols[oi, oj]
    return index


# --- the training forward, one molecule at a time ---

def segment_embeddings(emb, fragments):
    """Each fragment's member-atom rows, in ascending atom order."""
    from molham import autodiff as ad
    from molham.errors import IndexOutOfRange

    n = emb.shape[0]
    out = []
    for fid, members in enumerate(fragments):
        ordered = sorted(members)
        for a in ordered:
            if not 0 <= a < n:
                raise IndexOutOfRange(f"fragment {fid} references atom {a} of {n}")
        out.append(ad.gather_rows(emb, np.asarray(ordered, dtype=np.intp)))
    return out


def _mlp(x, p):
    from molham import autodiff as ad

    return ad.tanh(x @ p.w1 + p.b1) @ p.w2 + p.b2


def _unit_rows(x):
    from molham import autodiff as ad

    return x / ad.sqrt(ad.sum_(ad.square(x), axis=1, keepdims=True))


def token_rows_per_molecule(tokens, xmol, params):
    """(n, d) token-encoder rows of one molecule."""
    from molham import autodiff as ad
    from molham.autodiff import constant
    from molham.encoders import element_id, sinusoidal_positions, token_vocab_id

    d = params.width
    ids = np.asarray([token_vocab_id(t) for t in tokens], dtype=np.intp)
    x = ad.gather_rows(params.embed, ids) + constant(sinusoidal_positions(len(tokens), d))
    for block in params.blocks:
        q, k, v = x @ block["wq"], x @ block["wk"], x @ block["wv"]
        x = x + ad.row_softmax((q @ ad.transpose(k)) * (1.0 / np.sqrt(d))) @ v
        x = x + ad.tanh(x @ block["wf"]) @ block["wg"]
    pool = np.zeros((xmol.n_atoms, len(tokens)))
    for row, members in enumerate(xmol.token_sets):
        pool[row, list(members)] = 1.0 / len(members)
    elems = np.asarray([element_id(e) for e in xmol.elements], dtype=np.intp)
    return constant(pool) @ x + ad.gather_rows(params.atom_refine, elems)


def compensate_per_molecule(v, t, dis, gen):
    """(v_plus, t_star) of one molecule from its (n, d) rows."""
    from molham import autodiff as ad
    from molham.autodiff import constant
    from molham.nn import SOFTPLUS_INV_ONE

    n, d = v.shape
    beta = ad.row_softmax(_unit_rows(_mlp(v, dis.u)) @ ad.transpose(_unit_rows(_mlp(t, dis.t))))
    v_plus = beta @ _mlp(v, dis.v_plus)
    v_minus = (constant(np.eye(n)) - beta) @ _mlp(v, dis.v_minus)

    hidden = ad.tanh(ad.mean(v_minus, axis=0, keepdims=True) @ gen.w_hidden + gen.b_hidden)

    def head(name):
        w, b = gen.heads[name]
        return hidden @ w + b

    rot = rotation_chain_recorded(head("angles"), d)
    scale = constant(np.eye(d)) * ad.softplus(head("scales") + SOFTPLUS_INV_ONE)
    shear = constant(np.eye(d)) + (ad.transpose(ad.reshape(head("shear_p"), (gen.n_shear, d)))
                                   @ ad.reshape(head("shear_w"), (gen.n_shear, d)))
    affine = rot @ scale @ shear
    deform = head("amp") * ad.sin(t * (head("freq") + 1.0) + head("phase"))
    return v_plus, t @ ad.transpose(affine) + head("shift") + deform


def fragment_vectors_per_molecule(t_star, v, fragments, params):
    """Per fragment: (mean geometric row, token-conditioned attention pool)."""
    from molham import autodiff as ad

    d = v.shape[1]
    v_out, t_out = [], []
    for tp, vp in zip(segment_embeddings(t_star, fragments), segment_embeddings(v, fragments)):
        v_out.append(ad.mean(vp, axis=0, keepdims=True))
        scores = (tp @ params.wq) @ ad.transpose(vp @ params.wk) * (1.0 / np.sqrt(d))
        mixed = ad.row_softmax(scores) @ (vp @ params.wv)
        t_out.append(ad.mean(mixed, axis=0, keepdims=True))
    return v_out, t_out


def pretrain_loss_per_molecule(model, lv, molecules, lambda1):
    """(total, per-molecule discrepancy terms, contrastive part), one forward per molecule."""
    from molham import autodiff as ad
    from molham.alignment import contrastive_loss
    from molham.smiles import expanded_fragments

    d_terms, v_all, t_all = [], [], []
    for m in molecules:
        t = token_rows_per_molecule(m["tokens"], m["xmol"], model.token_encoder(lv))
        v = encode_geometry_dense(list(m["xmol"].elements), m["coords"], model.geom_encoder(lv))
        if model.config.compensation:
            v_plus, t_star = compensate_per_molecule(v, t, model.disentangler(lv),
                                                     model.generator(lv))
            d_terms.append(ad.mean(ad.smooth_l1(v, t_star))
                           + lambda1 * ad.mean(ad.smooth_l1(t, v_plus)))
        else:
            t_star = t
            d_terms.append(ad.mean(ad.smooth_l1(v, t)))
        vs, ts = fragment_vectors_per_molecule(
            t_star, v, expanded_fragments(m["xmol"], m["fragments"]), model.aligner(lv))
        v_all += vs
        t_all += ts
    total_d = d_terms[0]
    for term in d_terms[1:]:
        total_d = total_d + term
    total_d = total_d * (1.0 / len(d_terms))
    contrast = contrastive_loss(ad.concat_rows(v_all), ad.concat_rows(t_all),
                                model.aligner(lv).tau, model.config.loss_form)
    return total_d + contrast, d_terms, contrast


def pair_net_recorded(rows, i, j, p):
    """`hamhead.PairNet` as a chain of recorded ops: two gathers, the sum and
    |difference| features, each through its own (P, d) @ (d, hidden) product."""
    from molham import autodiff as ad

    ti, tj = ad.gather_rows(rows, i), ad.gather_rows(rows, j)
    hidden = ad.tanh((ti + tj) @ p.w_sum + ad.abs_(ti - tj) @ p.w_gap + p.b1)
    return hidden @ p.w2 + p.b2


def hamiltonian_per_molecule(emb, lay, params):
    """One molecule's matrix through the entry-by-entry value index and the
    recorded pair-net chain."""
    from molham import autodiff as ad

    rows = [_mlp(emb, params.diag)]
    if lay.n_atoms > 1:
        i, j = np.triu_indices(lay.n_atoms, 1)
        rows.append(pair_net_recorded(emb, i, j, params.pair))
    index = value_index_loops(lay)
    table = ad.reshape(ad.concat_rows(rows), (-1, 1))
    return ad.reshape(ad.gather_rows(table, index), index.shape)


def finetune_loss_per_molecule(model, lv, molecules, lambda2):
    """(batch loss, per-molecule losses): two forwards per molecule, summed.

    Each molecule is a dict with "tokens", "masked" (its masked token list),
    "xmol", "lay", "target" and, for fusion, "coords".
    """
    from molham import autodiff as ad
    from molham.autodiff import constant

    terms = []
    for m in molecules:
        target = constant(m["target"])
        branch = []
        for tokens in (m["tokens"], m["masked"]):
            emb = token_rows_per_molecule(tokens, m["xmol"], model.token_encoder(lv))
            if "coords" in m:
                emb = emb + encode_geometry_dense(list(m["xmol"].elements), m["coords"],
                                                  model.geom_encoder(lv))
            diff = hamiltonian_per_molecule(emb, m["lay"], model.head(lv)) - target
            branch.append(ad.sum_(ad.abs_(diff) + ad.square(diff)) * (1.0 / target.data.size))
        terms.append(lambda2 * branch[0] + (1.0 - lambda2) * branch[1])
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total * (1.0 / len(terms)), terms


class GroupAdam:
    """Adam with deterministic parameter iteration order.

    `rate_scales` maps name prefixes to learning-rate multipliers, applied to
    the first matching prefix (used for slower fine-tuning of pretrained
    encoder groups).
    """

    def __init__(self, lr: float, rate_scales: dict[str, float] | None = None):
        self.lr = lr
        self.rate_scales = rate_scales or {}
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def _rate(self, name: str) -> float:
        for prefix, scale in self.rate_scales.items():
            if name.startswith(prefix):
                return self.lr * scale
        return self.lr

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray | None]) -> None:
        from molham.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

        self.step_count += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bias1 = 1.0 - b1 ** self.step_count
        bias2 = 1.0 - b2 ** self.step_count
        for name, arr in params.items():
            g = grads.get(name)
            if g is None:
                continue
            if name not in self.m:
                self.m[name] = np.zeros_like(arr)
                self.v[name] = np.zeros_like(arr)
            m = self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            v = self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            arr -= self._rate(name) * (m / bias1) / (np.sqrt(v / bias2) + ADAM_EPS)


def _batches(order: np.ndarray, size: int) -> list[list[int]]:
    return [list(map(int, order[i:i + size])) for i in range(0, len(order), size)]


def pretrain_reference(model, dataset, config):
    """Both-modality pre-training; returns the loss trace and final RNG state."""
    from molham.autodiff import Tape
    from molham.training import Adam, TraceRow, _check_finite, _check_grads, prepare

    structs = prepare(dataset)
    coords = [dataset.get_coords(i) for i in range(len(dataset))]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 11])))
    opt = Adam(np.full(model.vector.shape, config.lr))
    rows: list[TraceRow] = []
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(structs))
        for batch in _batches(order, config.batch_size):
            tape = Tape()
            leaves = model.leaves(tape)
            total, d_terms, part_l = model.pretrain_batch_loss(
                leaves, [structs[i] for i in batch], [coords[i] for i in batch], config.lambda1)
            _check_finite(d_terms.data, "pre-training loss", batch)
            _check_finite(total.data, "pre-training loss", batch)
            tape.backward(total)
            grad, live = model.grads(tape, leaves)
            _check_grads(model, grad, "pre-training", step)
            opt.step(model.vector, grad, live)
            rows.append(TraceRow(step, epoch, {
                "loss_total": total.item(),
                "loss_discrepancy": float(d_terms.data.mean()),
                "loss_contrastive": part_l.item(),
            }))
            step += 1
    return rows, rng.bit_generator.state


def _mask_vectors(structs, rng: np.random.Generator, keep_prob: float) -> list[list[int]]:
    return [[1 if rng.random() < keep_prob else 0 for _ in range(s.n_fragments)]
            for s in structs]


def finetune_reference(model, dataset, config):
    """Masked weakly-supervised fine-tuning on strings (plus geometry if fused).

    The string-only path never touches coordinates; with fusion enabled the
    token encoder group is frozen and the geometry encoder keeps training.
    """
    from molham import autodiff as ad
    from molham.autodiff import Tape
    from molham.training import Adam, TraceRow, _check_finite, _check_grads, prepare

    structs = prepare(dataset)
    coords = [dataset.get_coords(i) for i in range(len(dataset))] if config.fusion else None
    targets = [rec.h for rec in dataset.records]
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, 13])))
    scales = [config.encoder_lr_scale if name.startswith(("token.", "geom.")) else 1.0
              for name in model.params]
    opt = Adam(config.lr * np.repeat(scales, [a.size for a in model.params.values()]))
    frozen = ("token.",) if config.fusion else ()
    rows: list[TraceRow] = []
    step = 0
    for epoch in range(config.epochs):
        masks = _mask_vectors(structs, rng, config.mask_keep_prob)
        order = rng.permutation(len(structs))
        for batch in _batches(order, config.batch_size):
            tape = Tape()
            leaves = model.leaves(tape, frozen_prefixes=frozen)
            terms = model.finetune_batch_loss(
                leaves, [structs[i] for i in batch], [masks[i] for i in batch],
                [targets[i] for i in batch], config.lambda2,
                [coords[i] for i in batch] if config.fusion else None)
            _check_finite(terms.data, "fine-tuning loss", batch)
            total = ad.mean(terms)
            tape.backward(total)
            grad, live = model.grads(tape, leaves)
            _check_grads(model, grad, "fine-tuning", step)
            opt.step(model.vector, grad, live)
            rows.append(TraceRow(step, epoch, {"loss_total": total.item()}))
            step += 1
    return rows, rng.bit_generator.state


def _generate_one(idx: int, smiles: str, seed: int):
    from molham.basis import electron_count
    from molham.dataset import DatasetRecord, _record_seed
    from molham.errors import MolhamError
    from molham.oracle import embed_3d, huckel_labels
    from molham.smiles import expand_hydrogens, parse_smiles
    from molham.spectral import orbitals

    try:
        mol = parse_smiles(smiles)
        xmol = expand_hydrogens(mol)
        coords = embed_3d(xmol, _record_seed(seed, idx))
        h, s = huckel_labels(xmol, coords)
        n_elec = electron_count(xmol.elements)
        gap_ev = orbitals(h, s, n_elec).gap_ev
        return DatasetRecord(
            smiles=smiles,
            elements=list(xmol.elements),
            coords=coords,
            h=h,
            n_electrons=n_elec,
            gap_ev=gap_ev,
            split="",
        )
    except MolhamError as err:
        return {"index": idx, "smiles": smiles,
                "error": type(err).__name__, "detail": str(err)}


def generate_records_per_molecule(corpus: list[str], seed: int):
    """Embed, label, and solve every corpus entry in order; failures are recorded.

    Per-record work is deterministic given (corpus index, seed).
    """
    from molham.dataset import DatasetRecord, GenReport

    report = GenReport()
    for idx, smiles in enumerate(corpus):
        res = _generate_one(idx, smiles, seed)
        if isinstance(res, DatasetRecord):
            report.records.append(res)
        else:
            report.skipped.append(res)
    return report


def _triangle_list(m: np.ndarray) -> list[float]:
    return [float(m[i, j]) for i in range(len(m)) for j in range(i, len(m))]


def list_form_line(rec) -> str:
    """`rec` as a dataset line with both triangles written as float lists."""
    return json.dumps({
        "smiles": rec.smiles,
        "elements": rec.elements,
        "coords": [[float(x) for x in row] for row in rec.coords],
        "h_upper": _triangle_list(rec.h),
        "s_upper": _triangle_list(rec.s),
        "n_electrons": rec.n_electrons,
        "gap_ev": rec.gap_ev,
        "split": rec.split,
    })


def read_list_form_line(line: str) -> dict:
    """The fields of a list-form line, both matrices refolded entry by entry."""
    raw = json.loads(line)
    n = len(raw["h_upper"])
    n_orb = int(round((np.sqrt(8 * n + 1) - 1) / 2))
    out = {"coords": np.array(raw["coords"], dtype=np.float64), "gap_ev": raw["gap_ev"]}
    for key, name in (("h_upper", "h"), ("s_upper", "s")):
        m = np.zeros((n_orb, n_orb))
        vals = iter(raw[key])
        for i in range(n_orb):
            for j in range(i, n_orb):
                m[i, j] = m[j, i] = next(vals)
        out[name] = m
    return out


def components(n_atoms: int, edges: list[tuple[int, int]]) -> list[int]:
    """Connected-component label of each atom, components numbered in order
    of their lowest atom."""
    adj: list[list[int]] = [[] for _ in range(n_atoms)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    label = [-1] * n_atoms
    count = 0
    for start in range(n_atoms):
        if label[start] >= 0:
            continue
        label[start] = count
        stack = [start]
        while stack:
            for nxt in adj[stack.pop()]:
                if label[nxt] < 0:
                    label[nxt] = count
                    stack.append(nxt)
        count += 1
    return label


def ring_flags_by_relabelling(mol) -> list[bool]:
    """Each bond's ring flag: its endpoints stay connected without it."""
    n = mol.n_atoms
    edges = [(b.i, b.j) for b in mol.bonds]
    flags = []
    for k, d in enumerate(mol.bonds):
        # a ring bond's endpoints stay connected without it
        label = components(n, edges[:k] + edges[k + 1:])
        flags.append(label[d.i] == label[d.j])
    return flags


def fragment_by_relabelling(mol):
    """`smiles.fragment`'s partition, relabelling the graph for every candidate
    cut; reads only atoms and bonds (with their ring flags)."""
    from molham.smiles import Fragment

    n = mol.n_atoms
    heavy = [a.element != "H" for a in mol.atoms]
    active = [True] * len(mol.bonds)

    def labels(skip: int = -1) -> list[int]:
        return components(n, [(b.i, b.j) for k, b in enumerate(mol.bonds)
                              if active[k] and k != skip])

    for k, b in enumerate(mol.bonds):
        if b.in_ring or b.aromatic or b.order != 1 or not (heavy[b.i] and heavy[b.j]):
            continue
        label = labels(skip=k)
        heavy_count = [0] * (max(label) + 1)
        for a, lab in enumerate(label):
            heavy_count[lab] += heavy[a]
        if heavy_count[label[b.i]] >= 2 and heavy_count[label[b.j]] >= 2:
            active[k] = False

    members: list[list[int]] = []
    for a, lab in enumerate(labels()):
        if lab == len(members):
            members.append([])
        members[lab].append(a)
    return [Fragment(fid, tuple(atoms),
                     tuple(sorted(t for a in atoms for t in mol.atom_token_sets[a])))
            for fid, atoms in enumerate(members)]
