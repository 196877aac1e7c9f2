"""Exhaustive weighted root counts through the root action.

Every profile is a weighted count of negated roots: root a carries an
integer weight c_a (1 on the odd roots for odd length, a mixed radix code of
the variables counting a otherwise, see gf.root_weights), and an element w
gets the code sum of c_a over the roots a that w sends negative.

A domain is any list of levels whose products, one element per level taken
left to right, give each of its elements once: the parabolic chain for the
whole group, or the windows of gf._domain_levels for a restricted domain.
The first level labels the parts.  A part's tally counts its codes, signed
by parity, in int64, exact since run_partitioned refuses domains of 2^63
elements or more.  Series in one variable go to the fold, others to the
kernel.  Both refuse with BudgetExceeded what would take more working
memory than one cap, _MEMORY_BYTES: the fold level by level, as it learns
its states, the kernel before it stacks its prefix or suffix table.

_Fold.  The state g_v holds, for each positive root b, +c_a if v(a) = b and
-c_a if v(a) = -b.  Then code(u v) = code(v) + <neg_u, g_v> and
g_{u v}(tgt_u(b)) = (1 - 2 neg_u(b)) g_v(b), so the levels after the first
fold right to left into a few distinct states, each over the roots outer
levels read, with a tally of width 2K (K = sum c_a + 1), even codes then
odd: prepending u rolls it by <neg_u, g>, plus K when u is odd.  A part is
one more such step, summed over the states (E8 has 72).

_Split, the kernel.  Mixed radix weights make the fold's tallies wide and
its states many (D8 D-bivar folds in 0.30 s, the kernel takes 0.04 s).
With the levels after the first cut into prefix and suffix blocks,

    code(q p s) = sum over weighted roots a of
                  c_a (flag_s(a) XOR negbit_{q p}(target_s(a)))

for a part q, so one float32 matrix product of the prefix sign bits (with 1
and the parity of q p) against the suffixes (+-c_a, c_a flag_s(a) and K)
gives code + K parity_qp, below 2K, for a whole part, and a bincount tallies
it.  A suffix row over the roots some q p reads is kept once, weighted by its
suffixes and by its even ones minus its odd ones: suffixes that differ only
in parity cancel, and a row of signed weight 0 leaves a signed product.  All
entries and partial sums are integers below 2^24; under the memory cap a part
has fewer than 2^53 elements (prefix rows x suffixes), so the float64
bincount sums over it are exact too.

The longest element w0 halves the work: it negates every positive root, so
code(w0 w) = K - 1 - code(w) and length(w0 w) = N - length(w), and left
multiplication by w0 maps each part of the full chain onto another one
(each part of a restricted domain is computed directly).  The tally of that
mirror part is the reversed tally times (-1)^N, so only one part of each
pair is computed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from functools import reduce
from math import prod

import numpy as np

from .cartan import CartanType, RootSystem, group_order, root_system
from .errors import (
    BudgetExceeded, CheckpointCorrupt, CheckpointUnwritable, PartOutOfRange, UnsupportedProfile,
    WeightsTooLarge, WorkerFailure,
)
from .gf import GFResult, _domain_levels, _domain_shape, resolve_profile, root_weights
from .poly import Poly
from .weyl import (
    WeylElement, check_budget, identity, multiply, transversal_chain, window_to_element,
)

__all__ = ["odd_length_gf_by_roots", "run_partitioned", "Checkpoint"]

_BLOCK_FLOATS = 1 << 15  # codes per matrix product: larger ones fault in fresh pages
_FLOAT32_EXACT = 1 << 24  # integers up to here are exact in float32
_MEMORY_BYTES = 1 << 30  # working memory of one fold level or one kernel table
_EXACT_ELEMENTS = 1 << 63  # int64 tallies count domains below this exactly

Levels = list[list[WeylElement]]  # one element per level, multiplied left to right


def _check_memory(what: str, *factors: int) -> None:
    """BudgetExceeded when what takes more than _MEMORY_BYTES: prod(factors) bytes."""
    if prod(factors) > _MEMORY_BYTES:
        raise BudgetExceeded(
            f"{what} takes {' x '.join(map(str, factors))} bytes,"
            f" past its cap of {_MEMORY_BYTES:,} bytes"
        )


def _stacked(levels: Levels, columns: np.ndarray):
    """All products of one representative per level, earlier levels slowest,
    as stacked (tgt, neg, parity) arrays with one row per product, restricted
    to the given root columns.  Built right to left, one gather per level:
    (u r)(a) = u(r(a)) reads r at the columns only."""
    tgt = columns.astype(np.int16)[None, :]
    neg = np.zeros(tgt.shape, dtype=np.uint8)
    parity = np.zeros(1, dtype=np.uint8)
    for level in reversed(levels):
        utgt = np.stack([u.tgt for u in level])
        uneg = np.stack([u.neg for u in level])
        upar = np.array([u.parity for u in level], dtype=np.uint8)
        neg = (uneg[:, tgt] ^ neg).reshape(-1, len(columns))
        tgt = utgt[:, tgt].reshape(-1, len(columns))
        parity = ((upar[:, None] + parity) & 1).ravel()
    return tgt, neg, parity


def _longest(system: RootSystem, levels: Levels) -> WeylElement:
    """Longest element of the group whose parabolic chain is levels: lengths
    add along the chain and each level is sorted by length, so it is the
    product of the last elements."""
    return reduce(multiply, [level[-1] for level in levels], identity(system))


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the rows of a 2-d integer table, compared exactly
    as bytes: table[first] holds each distinct row once, in the order of
    their bytes, and table[first][inverse] is table."""
    if not table.shape[1]:  # every row is the empty row
        return np.zeros(1, dtype=np.intp), np.zeros(len(table), dtype=np.intp)
    rowbytes = np.dtype((np.void, table.itemsize * table.shape[1]))
    _, first, inverse = np.unique(
        np.ascontiguousarray(table).view(rowbytes).ravel(), return_index=True, return_inverse=True
    )
    return first, inverse


@dataclass
class _Parts:
    """A domain's parts as the parts loop sees them; each engine below adds
    part_coeffs(i, unsigned), the signed (or unsigned) code tally of part i
    as an int64 vector of length k."""
    system: RootSystem
    parts: list[WeylElement]          # first level of the domain
    mirror: list[int]                 # index of the part holding w0 * part
    k: int                            # sum of the weights + 1

    @staticmethod
    def mirrors(system: RootSystem, chain: Levels, restricted: bool) -> list[int]:
        """mirror for the parts of chain; a restricted part is its own."""
        if restricted:
            return list(range(len(chain[0])))
        # w0 q W_J has the minimal representative w0 q w0_J, w0_J longest in
        # W_J; as in WeylElement.key, elements agree on the first r roots
        w0_j = _longest(system, chain[1:])
        w0, r, n = multiply(chain[0][-1], w0_j), system.rank, system.size
        tgt = np.stack([q.tgt for q in chain[0]]).astype(np.intp)
        neg = np.stack([q.neg for q in chain[0]])
        t = tgt[:, w0_j.tgt[:r]]
        image = w0.tgt[t] + n * (w0_j.neg[:r] ^ neg[:, w0_j.tgt[:r]] ^ w0.neg[t]).astype(np.intp)
        keys = tgt[:, :r] + n * neg[:, :r].astype(np.intp)
        index = {row.tobytes(): i for i, row in enumerate(keys)}
        return [index[row.tobytes()] for row in image]

    def mirrored(self, coeffs: np.ndarray, unsigned: bool = False) -> np.ndarray:
        """Tally of the mirror part, given the tally of its partner."""
        flipped = coeffs[::-1]
        return flipped if unsigned or self.system.size % 2 == 0 else -flipped

    def pairs(self, todo) -> list[tuple[int, int | None]]:
        """Parts to compute, each with the part its tally mirrors to.  A fixed
        part, or one whose mirror is not in todo, comes with None."""
        left = set(todo)
        out = []
        for i in todo:
            if i in left:
                left.discard(i)
                m = self.mirror[i]
                out.append((i, m if m in left else None))
                left.discard(m)
        return out


@dataclass
class _Fold(_Parts):
    states: np.ndarray                # distinct states x roots the parts read
    tallies: np.ndarray               # states x (even codes, then odd), int64
    shifts: np.ndarray                # parts x states: <neg_q, g> + K parity_q

    @classmethod
    def build(
        cls, system: RootSystem, weights: np.ndarray | None = None, levels: Levels | None = None
    ) -> "_Fold":
        """Fold of the levels after the first (of the whole group's chain by
        default) for integer root weights (1 on the odd roots by default)."""
        if weights is None:
            weights = np.array(system.odd_mask, dtype=np.int64)
        chain = levels or transversal_chain(system)
        n, k = system.size, int(weights.sum()) + 1
        dtype = np.min_scalar_type(-int(weights.max()))
        # every level stacked, level j in rows ends[j]:ends[j + 1]; src_u is
        # tgt_u^-1, so that g_{u v}(c) = sign_u(c) g_v(src_u(c))
        flat = [u for level in chain for u in level]
        ends = np.cumsum([0] + [len(level) for level in chain])
        tgt, neg = np.stack([u.tgt for u in flat]).astype(np.intp), np.stack([u.neg for u in flat])
        every, src = np.arange(len(flat))[:, None], np.empty_like(tgt)
        src[every, tgt] = np.arange(n)
        sign = 1 - 2 * neg[every, src].astype(dtype)
        odd = k * np.array([u.parity for u in flat])  # a roll by K swaps the halves
        # cols[j]: the roots levels 0..j-1 read, u reading supp(neg_u) and
        # tgt_u^-1 of what the levels before it read; a state needs no other
        read = [np.zeros(n, dtype=bool)]
        for lo, hi in zip(ends[:-1], ends[1:]):
            read.append(neg[lo:hi].any(axis=0) | read[-1][tgt[lo:hi]].any(axis=0))
        cols = [np.flatnonzero(r) for r in read]
        # one state, the empty product's: code 0, even
        states, tallies = weights[cols[-1]].astype(dtype)[None, :], np.eye(1, 2 * k, dtype=np.int64)
        for j in range(len(chain) - 1, 0, -1):
            (lo, hi), have, keep = ends[j:j + 2], cols[j + 1], cols[j]
            rowbytes = len(keep) * states.itemsize + 32 * k  # image, tally, its codes
            _check_memory(f"folding {system.ctype} at one level", len(states), hi - lo, rowbytes)
            shift = states.astype(np.int64) @ neg[lo:hi, have].T + odd[lo:hi]
            at = np.searchsorted(have, src[lo:hi, keep])
            images = (states[:, at] * sign[lo:hi, keep]).reshape(len(states) * (hi - lo), -1)
            first, inverse = _distinct_rows(images)
            # code c of a state lands at c + shift in the tally of its image
            code = (np.arange(2 * k) + shift[:, :, None]) % (2 * k)
            code += 2 * k * inverse.reshape(shift.shape)[:, :, None]
            folded = np.zeros(len(first) * 2 * k, dtype=np.int64)
            np.add.at(folded, code.ravel(), np.broadcast_to(tallies[:, None], code.shape).ravel())
            states, tallies = images[first], folded.reshape(len(first), 2 * k)
        shifts = neg[:ends[1], cols[1]] @ states.T.astype(np.int64) + odd[:ends[1], None]
        mirror = cls.mirrors(system, chain, levels is not None)
        return cls(system, chain[0], mirror, k, states, tallies, shifts)

    def part_coeffs(self, part_index: int, unsigned: bool = False) -> np.ndarray:
        """Signed tally of codes over one part, as an int64 vector."""
        k = self.k
        code = (np.arange(2 * k) - self.shifts[part_index][:, None]) % (2 * k)
        tally = self.tallies[np.arange(len(code))[:, None], code].sum(axis=0)
        return tally[:k] + tally[k:] if unsigned else tally[:k] - tally[k:]


@dataclass
class _Split(_Parts):
    ptgt: np.ndarray                  # prefix products x read roots, stacked
    pneg: np.ndarray
    pparity: np.ndarray
    states: np.ndarray                # distinct suffix rows x (read roots + 2), float32
    signed: np.ndarray                # per state: its even suffixes minus its odd ones
    unsigned: np.ndarray              # per state: its suffixes

    @classmethod
    def build(
        cls, system: RootSystem, weights: np.ndarray | None = None, levels: Levels | None = None
    ) -> "_Split":
        """Split of levels (the whole group's chain by default) for integer
        root weights (1 on the odd roots by default)."""
        if weights is None:
            weights = np.array(system.odd_mask, dtype=np.int64)
        cols = np.flatnonzero(weights)
        k = int(weights.sum()) + 1
        # a state holds the +-c_a (absolute sum K - 1), the constant (below
        # K) and K against 0/1 prefix entries, so partial sums stay below 3K
        if 4 * k > _FLOAT32_EXACT:
            raise WeightsTooLarge(
                f"root weights summing to {k - 1} give codes past float32's"
                " exact range (4K must stay within 2^24)"
            )
        chain = levels or transversal_chain(system)
        parts, rest = chain[0], chain[1:]
        sizes = [len(level) for level in rest]
        cut = min(range(len(rest) + 1), key=lambda c: max(prod(sizes[:c]), prod(sizes[c:])))
        n = system.size
        # a table stacks int16 targets and uint8 signs, then the prefix takes
        # an intp copy of the roots it reads and the suffix sorts its rows:
        # builds peak at 7 to 12 bytes a row and root, of n + 2 at most
        for name, rows in ("prefix", prod(sizes[:cut])), ("suffix", prod(sizes[cut:])):
            _check_memory(f"the kernel's {name} table on {system.ctype}", rows, n + 2, 12)
        ptgt, pneg, pparity = _stacked(rest[:cut], np.arange(n))
        qneg = np.bitwise_or.reduce([q.neg for q in parts])
        read = np.flatnonzero((pneg | qneg[ptgt]).any(axis=0))
        # int16 indices would be widened on every part
        ptgt, pneg = ptgt[:, read].astype(np.intp), pneg[:, read]

        # suffix rows over the read roots, then the constant and K; an unread
        # root lands in the constant column, which is written after it
        width = len(read) + 2
        column = np.full(n, width - 2)
        column[read] = np.arange(len(read))
        tgt, flags, sparity = _stacked(rest[cut:], cols)
        c = weights[cols]
        table = np.zeros((len(sparity), width), dtype=np.min_scalar_type(-2 * k))
        fill = max(1, _BLOCK_FLOATS // width)
        for lo in range(0, len(table), fill):
            rows = table[lo:lo + fill]
            f = flags[lo:lo + fill]
            rows[np.arange(len(rows))[:, None], column[tgt[lo:lo + fill]]] = np.where(f, -c, c)
            rows[:, -2] = f @ c
        table[:, -1] = k
        first, inverse = _distinct_rows(table)
        unsigned = np.bincount(inverse)
        signed = unsigned - 2 * np.bincount(inverse[sparity == 1], minlength=len(first))
        states = table[first].astype(np.float32)
        mirror = cls.mirrors(system, chain, levels is not None)
        return cls(system, parts, mirror, k, ptgt, pneg, pparity, states, signed, unsigned)

    def part_coeffs(self, part_index: int, unsigned: bool = False) -> np.ndarray:
        """Signed tally of codes over one part, as an int64 vector."""
        weights = self.unsigned if unsigned else self.signed
        live = np.flatnonzero(weights)
        if not len(live):  # every suffix cancels against one of the other parity
            return np.zeros(self.k, dtype=np.int64)
        q, states = self.parts[part_index], self.states[live].T
        rows = np.empty((len(self.pparity), self.ptgt.shape[1] + 2), dtype=np.float32)
        rows[:, :-2] = q.neg[self.ptgt] ^ self.pneg
        rows[:, -2] = 1
        rows[:, -1] = (self.pparity + q.parity) & 1
        # narrower products cost more; sized by every row, signed ones stay small
        block = min(len(rows), max(64, _BLOCK_FLOATS // len(self.states)))
        tiled = np.tile(weights[live].astype(np.float64), block)
        tally = np.zeros(2 * self.k, dtype=np.int64)
        for lo in range(0, len(rows), block):
            codes = (rows[lo:lo + block] @ states).astype(np.intp)
            tally += np.bincount(codes.ravel(), tiled[:codes.size], len(tally)).astype(np.int64)
        even, odd = tally.reshape(2, self.k)  # by parity_qp; parity_s is in the weights
        return even + odd if unsigned else even - odd


def _coeffs_to_poly(
    coeffs: np.ndarray, dims: tuple[int, ...] | None = None, vars: tuple[str, ...] = ("x",)
) -> Poly:
    """Polynomial of a code tally; the code holds one digit per variable,
    of base dims[v], variable 0 the fastest."""
    hits = np.flatnonzero(coeffs)
    digits = np.unravel_index(hits, (dims or (len(coeffs),))[::-1])[::-1]
    return Poly(vars, {
        tuple(int(d[i]) for d in digits): int(coeffs[h]) for i, h in enumerate(hits)
    })


def odd_length_gf_by_roots(system: RootSystem, *, unsigned: bool = False) -> Poly:
    """Odd-length series over the whole group of system's type, with no
    element budget, summed from the kernel's part tallies and their mirrors.
    signed_gf folds every one-variable series, so this second method
    checks the fold against the kernel."""
    split = _Split.build(system)
    total = np.zeros(split.k, dtype=np.int64)
    for i, m in split.pairs(range(len(split.parts))):
        coeffs = split.part_coeffs(i, unsigned)
        total += coeffs if m is None else coeffs + split.mirrored(coeffs, unsigned)
    return _coeffs_to_poly(total)


# ---------------------------------------------------------------------------
# checkpoints

def _checkpoint_digest(body: dict) -> str:
    return hashlib.sha256(json.dumps(body, separators=(",", ":")).encode()).hexdigest()


class Checkpoint:
    """Resumable partial sum over parts, written atomically by rename.

    A written file always holds partial equal to the sum of the tallies of
    the parts in done.  run_partitioned writes it at most once every
    _CHECKPOINT_INTERVAL seconds while parts land, and once more when its
    parts loop ends, however it ends.
    """

    def __init__(self, ctype: CartanType, profile: str, n_parts: int):
        self.ctype = ctype
        self.profile = profile
        self.n_parts = n_parts
        self.done: set[int] = set()
        self.partial = Poly.zero(resolve_profile(profile, ctype).vars)

    def payload(self) -> dict:
        body = {
            "ctype": str(self.ctype),
            "profile": self.profile,
            "n_parts": self.n_parts,
            "done": sorted(self.done),
            "partial": self.partial.to_json_dict(),
        }
        return {**body, "hash": _checkpoint_digest(body)}

    def write(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(json.dumps(self.payload(), separators=(",", ":")))
        os.replace(tmp, path)

    @classmethod
    def read(cls, path: str, ctype: CartanType, profile: str, n_parts: int) -> "Checkpoint":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc}") from exc
        body = {k: data.get(k) for k in ("ctype", "profile", "n_parts", "done", "partial")}
        if data.get("hash") != _checkpoint_digest(body):
            raise CheckpointCorrupt(f"checkpoint {path} failed its integrity hash")
        if body["ctype"] != str(ctype) or body["profile"] != profile or body["n_parts"] != n_parts:
            raise CheckpointCorrupt(
                f"checkpoint {path} belongs to {body['ctype']}/{body['profile']},"
                f" not {ctype}/{profile}"
            )
        ck = cls(ctype, profile, n_parts)
        ck.done = set(int(i) for i in body["done"])
        ck.partial = Poly.from_json_dict(body["partial"])
        return ck


# ---------------------------------------------------------------------------
# partitioned driver

_CHECKPOINT_INTERVAL = 1.0  # seconds between checkpoint writes while parts land
_TRIES = 3  # a part that raises this many times ends the run


def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            names = (f"{prefix}get_num_threads{suffix}", f"{prefix}set_num_threads{suffix}")
            if all(hasattr(lib, name) for name in names):
                return tuple(getattr(lib, name) for name in names)
    return None


def _check_writable(path: str) -> None:
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise CheckpointUnwritable(
            f"cannot write checkpoint {path}: no writable directory {folder}"
        )


def run_partitioned(
    ctype: CartanType,
    profile: str = "odd-length",
    restriction: str = "full",
    *,
    workers: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    parts: list[int] | None = None,
    allow_large: bool = False,
    unsigned: bool = False,
    progress: bool = False,
):
    """Partitioned, checkpointed computation of a profile over a domain.

    Parts are the first level of the domain: the cosets of the outermost
    parabolic for the whole group, the first level of windows of
    gf._domain_levels for a restriction.  Each contributes a private tally
    and merging is plain addition, so completion order cannot change the
    result.  parts restricts the run to a subset (partial sums are
    meaningful and reproducible); resume continues from checkpoint_path,
    which holds signed full-group runs only.  The engine (_Fold for one
    variable, _Split for several) is built only when some part is still to do.

    A run is admitted on its domain's size (|W|, or the product of the
    window level lengths of gf._domain_shape, known before any window is
    built): the element budget first, unless allow_large, then 2^63.

    workers > 1 computes the kernel's parts on that many threads of this
    process; a folded part costs less than a thread handoff, so a folded
    series runs in the calling thread.  A part that raises is tried _TRIES
    times in all, then the run ends in WorkerFailure.

    Each landed tally (and its w0 mirror) is added into one running int64
    array, which becomes a polynomial only when the checkpoint is written:
    at most once every _CHECKPOINT_INTERVAL seconds, and once when the
    parts loop ends, also by WorkerFailure or KeyboardInterrupt (unless that
    stopped a merge halfway).  A killed process so loses at most one
    interval of parts; a failing part none.
    """
    start = time.perf_counter()
    resolved = resolve_profile(profile, ctype)
    shape = _domain_shape(restriction, ctype)
    size = group_order(ctype) if shape is None else prod(shape)
    if not allow_large:
        check_budget(ctype, restriction, size)
    if size >= _EXACT_ELEMENTS:
        raise BudgetExceeded(
            f"{ctype}: a domain of about 10^{len(str(size)) - 1} elements is past 2^63,"
            " the most that int64 tallies count exactly"
        )
    if checkpoint_path and (shape is not None or unsigned):
        kind = "unsigned counts" if unsigned else f"the {restriction} restriction"
        raise UnsupportedProfile(f"a checkpoint records signed full-group runs, not {kind}")
    system = root_system(ctype)
    domain = None if shape is None else [
        [window_to_element(system, w) for w in level]
        for level in _domain_levels(restriction, ctype)
    ]
    levels = domain or transversal_chain(system)
    n_parts = len(levels[0])
    wanted = sorted(set(range(n_parts) if parts is None else parts))
    if wanted and not 0 <= wanted[0] <= wanted[-1] < n_parts:
        raise PartOutOfRange(f"part indices must lie in [0, {n_parts}) for {ctype}")
    if checkpoint_path:
        _check_writable(checkpoint_path)

    if resume and checkpoint_path and os.path.exists(checkpoint_path):
        ck = Checkpoint.read(checkpoint_path, ctype, profile, n_parts)
    else:
        ck = Checkpoint(ctype, profile, n_parts)
    todo = [i for i in wanted if i not in ck.done]
    weights, dims = root_weights(resolved, system)

    if todo:
        split = (_Fold if len(dims) == 1 else _Split).build(system, weights, domain)
        tally = np.zeros(split.k, dtype=np.int64)  # parts in ck.done, not yet in ck.partial
        landed = 0
        merging = False  # ck.done and the tally may disagree while set
        began = written = time.monotonic()

        def save() -> None:
            # a plain run saves once, into an empty partial: skip the sum
            landed_poly = _coeffs_to_poly(tally, dims, resolved.vars)
            ck.partial = ck.partial + landed_poly if ck.partial else landed_poly
            tally[:] = 0
            if checkpoint_path:
                ck.write(checkpoint_path)

        def finish(index: int, mirror: int | None, coeffs: np.ndarray) -> None:
            nonlocal landed, merging, written
            merging = True
            merged = [index]
            np.add(tally, coeffs, out=tally)
            if mirror is not None:
                np.add(tally, split.mirrored(coeffs, unsigned), out=tally)
                merged.append(mirror)
            ck.done.update(merged)
            landed += len(merged)
            now = time.monotonic()
            if checkpoint_path and now - written >= _CHECKPOINT_INTERVAL:
                save()
                written = now
            merging = False
            if progress:
                # every landed part is in wanted and was not done before
                count = len(wanted) - len(todo) + landed
                elapsed = max(now - began, 1e-9)
                eta = elapsed * (len(wanted) - count) / landed
                print(
                    f"part {', '.join(map(str, merged))} done ({count}/{len(wanted)},"
                    f" {landed / elapsed:.1f} parts/s, ETA {eta:.1f}s)",
                    file=sys.stderr,
                    flush=True,
                )

        def attempt(job: tuple[int, int | None]):
            i, m = job
            for tries in range(1, _TRIES + 1):
                try:
                    return i, m, split.part_coeffs(i, unsigned)
                except Exception as exc:
                    if tries == _TRIES:
                        raise WorkerFailure(f"part {i} failed repeatedly: {exc}") from exc

        try:
            with contextlib.ExitStack() as threads:
                part_map = map  # in the caller, BLAS untouched
                if workers > 1 and isinstance(split, _Split):
                    from concurrent.futures import ThreadPoolExecutor

                    # each thread is one core's worth of work; BLAS threads on
                    # top of it would oversubscribe the machine, so BLAS runs
                    # on one thread until the run ends, however it ends
                    get, put = _blas_threads() or (lambda: None, lambda n: None)
                    threads.callback(put, get())
                    put(1)
                    pool = ThreadPoolExecutor(workers)
                    threads.callback(pool.shutdown, cancel_futures=True)
                    part_map = pool.map
                for i, m, coeffs in part_map(attempt, split.pairs(todo)):
                    finish(i, m, coeffs)
        except BaseException:
            # every merged part still reaches the checkpoint, unless a Ctrl-C
            # stopped a merge halfway; a failing write must not replace the
            # error that ended the run
            if not merging:
                with contextlib.suppress(OSError):
                    save()
            raise
        save()

    done_in_scope = sorted(set(wanted) & ck.done)
    return GFResult(
        ck.partial,
        ctype,
        profile,
        restriction,
        len(done_in_scope) * size // n_parts,
        time.perf_counter() - start,
        n_parts=n_parts,
        parts_done=tuple(done_in_scope),
    )
