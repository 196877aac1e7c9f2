"""Exhaustive weighted root counts through the root action.

Every full-group profile is a weighted count of negated roots: root a
carries an integer weight c_a (1 on the odd roots for odd length, a mixed
radix code of the variables counting a otherwise, see gf.root_weights), and
an element w gets the code sum of c_a over the roots a that w sends negative.

A domain is any list of levels whose products, one element per level taken
left to right, give each of its elements once: the parabolic chain for the
whole group, or the windows of gf._domain_levels for a restricted domain.
The first level labels the parts, the remaining levels are split into a
per-part prefix block and a shared suffix block of balanced sizes.  For a
part q, every element is q p s with p a prefix product and s a suffix
product, and

    code(q p s) = sum over weighted roots a of
                  c_a (flag_s(a) XOR negbit_{q p}(target_s(a)))

so one matrix product of the prefix sign-bit matrix against a suffix weight
matrix of entries +-c_a evaluates a whole part at once.  Each prefix row also
carries a constant 1 and its parity bit, and each suffix the matching
weights sum c_a flag_s(a) + K parity_s and K, with K = sum c_a + 1.  The
product is then the code + K (parity_qp + parity_s) below 3K, whose block
gives the sign, so a bincount tallies a signed part.

Only the read roots, those that some part times prefix product sends
negative, can flip a suffix weight; the others only add to the constant.
Over the read roots many suffixes share one row, so the suffixes are kept
as their distinct rows, the states, and the bincount weighs each code by
the number of suffixes behind its state (E8: 184 states for 1,920).
Entries and partial sums are integers bounded up front below 2^24, exact in
float32, and the tallies add integer counts in float64, far below 2^53, so
the result is exact and independent of part order.

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

from .cartan import CartanType, RootSystem, root_system
from .errors import (
    CheckpointCorrupt,
    CheckpointUnwritable,
    PartOutOfRange,
    UnsupportedProfile,
    WeightsTooLarge,
    WorkerFailure,
)
from .gf import GFResult, _domain_levels, resolve_profile, root_weights
from .poly import Poly
from .weyl import (
    DEFAULT_BUDGET, WeylElement, check_budget, identity, multiply, transversal_chain,
    window_to_element,
)

__all__ = ["odd_length_gf_by_roots", "run_partitioned", "Checkpoint"]

_BLOCK_FLOATS = 1 << 15  # codes per matrix product: larger ones fault in fresh pages
_FLOAT32_EXACT = 1 << 24  # integers up to here are exact in float32

Levels = list[list[WeylElement]]  # one element per level, multiplied left to right


def _stacked(system: RootSystem, levels: Levels, columns: np.ndarray):
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


@dataclass
class _Split:
    system: RootSystem
    parts: list[WeylElement]          # outermost transversal
    mirror: list[int]                 # index of the part holding w0 * part
    ptgt: np.ndarray                  # prefix products x read roots, stacked
    pneg: np.ndarray
    pparity: np.ndarray
    states: np.ndarray                # distinct suffix rows x (read roots + 2), float32
    counts: np.ndarray                # suffixes per state, float64, once per prefix row
    k: int                            # sum of the weights + 1
    block: int                        # prefix rows per product

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
        # 2K) and K against 0/1 prefix entries, so partial sums stay below 4K
        if 4 * k > _FLOAT32_EXACT:
            raise WeightsTooLarge(
                f"root weights summing to {k - 1} give codes past float32's"
                " exact range (4K must stay within 2^24)"
            )
        chain = levels or transversal_chain(system)
        parts, rest = chain[0], chain[1:]
        sizes = [len(level) for level in rest]
        cut = min(
            range(len(rest) + 1), key=lambda c: max(prod(sizes[:c]), prod(sizes[c:]))
        )
        n = system.size
        ptgt, pneg, pparity = _stacked(system, rest[:cut], np.arange(n))
        qneg = np.bitwise_or.reduce([q.neg for q in parts])
        read = np.flatnonzero((pneg | qneg[ptgt]).any(axis=0))
        # int16 indices would be widened on every part
        ptgt, pneg = ptgt[:, read].astype(np.intp), pneg[:, read]

        # suffix rows over the read roots, then the constant and K; an unread
        # root lands in the constant column, which is written after it
        width = len(read) + 2
        column = np.full(n, width - 2)
        column[read] = np.arange(len(read))
        tgt, flags, sparity = _stacked(system, rest[cut:], cols)
        c = weights[cols]
        table = np.zeros((len(sparity), width), dtype=np.min_scalar_type(-2 * k))
        fill = max(1, _BLOCK_FLOATS // width)
        for lo in range(0, len(table), fill):
            rows = table[lo:lo + fill]
            f = flags[lo:lo + fill]
            rows[np.arange(len(rows))[:, None], column[tgt[lo:lo + fill]]] = np.where(f, -c, c)
            rows[:, -2] = f @ c + k * sparity[lo:lo + fill].astype(np.int64)
        table[:, -1] = k
        rowbytes = np.dtype((np.void, table.itemsize * width))
        _, first, counts = np.unique(
            table.view(rowbytes).ravel(), return_index=True, return_counts=True
        )
        states = table[first].astype(np.float32)
        block = max(1, _BLOCK_FLOATS // len(states))

        mirror = list(range(len(parts)))  # a restricted part is its own mirror
        if levels is None:
            # w0 q W_J has the minimal representative w0 q w0_J, w0_J longest in W_J
            w0, w0_j = _longest(system, chain), _longest(system, rest)
            index = {q.key(): i for i, q in enumerate(parts)}
            mirror = [index[multiply(multiply(w0, q), w0_j).key()] for q in parts]
        counts = np.tile(counts.astype(np.float64), block)  # the weights of a whole block
        return cls(system, parts, mirror, ptgt, pneg, pparity, states, counts, k, block)

    def part_coeffs(self, part_index: int, unsigned: bool = False) -> np.ndarray:
        """Signed tally of codes over one part, as an int64 vector."""
        q = self.parts[part_index]
        r = self.ptgt.shape[1]
        rows = np.empty((len(self.pparity), r + 2), dtype=np.float32)
        rows[:, :r] = q.neg[self.ptgt] ^ self.pneg
        rows[:, r] = 1
        rows[:, r + 1] = (self.pparity + q.parity) & 1
        tally = np.zeros(3 * self.k, dtype=np.int64)
        for lo in range(0, len(rows), self.block):
            codes = (rows[lo:lo + self.block] @ self.states.T).astype(np.intp)
            weights = self.counts[:codes.size]
            tally += np.bincount(codes.ravel(), weights, len(tally)).astype(np.int64)
        # blocks by parity_qp + parity_s = 0, 1, 2; the middle one is negative
        b0, b1, b2 = tally.reshape(3, self.k)
        return b0 + b1 + b2 if unsigned else b0 - b1 + b2

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
    element budget.  This is one run_partitioned call, the same parts loop
    and kernel as signed_gf, so it is no independent check of signed_gf."""
    return run_partitioned(system.ctype, unsigned=unsigned, allow_large=True).poly


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


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread for the block, then give
    it back its previous thread count; a no-op when it has none."""
    get, put = _blas_threads() or (lambda: None, lambda n: None)
    previous = get()
    put(1)
    try:
        yield
    finally:
        put(previous)


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
    budget: int = DEFAULT_BUDGET,
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
    which holds signed full-group runs only.  The suffix matrices are built
    only when some part is still to do.

    workers > 1 computes the parts on that many threads of this process;
    merging stays in the calling thread.  A part that raises is tried
    _TRIES times in all, then the run ends in WorkerFailure.

    Each landed tally (and its w0 mirror) is added into one running int64
    array, which becomes a polynomial only when the checkpoint is written:
    at most once every _CHECKPOINT_INTERVAL seconds, and once when the
    parts loop ends, also by WorkerFailure or KeyboardInterrupt (unless that
    stopped a merge halfway).  A killed process so loses at most one
    interval of parts; a failing part none.
    """
    start = time.perf_counter()
    resolved = resolve_profile(profile, ctype)
    if not allow_large:
        check_budget(ctype, budget)
    windows = _domain_levels(restriction, ctype)
    if checkpoint_path and (windows is not None or unsigned):
        kind = "unsigned counts" if unsigned else f"the {restriction} restriction"
        raise UnsupportedProfile(f"a checkpoint records signed full-group runs, not {kind}")
    system = root_system(ctype)
    domain = None if windows is None else [
        [window_to_element(system, w) for w in level] for level in windows
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
        split = _Split.build(system, weights, domain)
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
                part_map = map  # one worker: in the caller, BLAS untouched
                if workers > 1:
                    from concurrent.futures import ThreadPoolExecutor

                    # each thread is one core's worth of work; BLAS threads on
                    # top of it would oversubscribe the machine
                    threads.enter_context(_one_blas_thread())
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
        len(done_in_scope) * prod(map(len, levels)) // n_parts,
        time.perf_counter() - start,
        n_parts=n_parts,
        parts_done=tuple(done_in_scope),
    )
