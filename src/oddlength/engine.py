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
gives the sign, so an unweighted bincount tallies a signed part.  When (3K)^2
is small, two prefix rows share one product as the two digits of a base-3K
code, which halves the product and the counting.  Entries and partial sums
are integers bounded up front below 2^24, exact in float32, and the tallies
are integer counts, so the result is exact and independent of part order.

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
from math import prod

import numpy as np

from .cartan import CartanType, RootSystem, group_order, root_system
from .errors import (
    CheckpointCorrupt,
    CheckpointUnwritable,
    PartOutOfRange,
    WeightsTooLarge,
    WorkerFailure,
)
from .gf import GFResult, ResolvedProfile, resolve_profile, root_weights
from .poly import Poly
from .weyl import (
    DEFAULT_BUDGET,
    WeylElement,
    _sift,
    check_budget,
    identity,
    multiply,
    transversal_chain,
)

__all__ = ["odd_length_gf_by_roots", "profile_gf_by_roots", "run_partitioned", "Checkpoint"]

_BLOCK_FLOATS = 1 << 18  # codes per matrix product, small enough to stay in cache
_PAIRED_CODES = 1 << 16  # paired codes stay below this, far inside float32's exact range
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


@dataclass
class _Split:
    system: RootSystem
    parts: list[WeylElement]          # outermost transversal
    mirror: list[int]                 # index of the part holding w0 * part
    ptgt: np.ndarray                  # prefix products x roots, stacked
    pneg: np.ndarray
    pparity: np.ndarray
    wmat: np.ndarray                  # suffixes x (roots + 2), float32 code weights
    k: int                            # sum of the weights + 1
    digits: int                       # prefix rows sharing one product
    block: int                        # suffix rows per product
    codes: np.ndarray                 # block x product width, float32, reused
    ints: np.ndarray                  # the same codes as intp, reused

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
        # a suffix row holds the +-c_a (absolute sum K - 1), the constant (at
        # most 2K - 1) and K against 0/1 prefix entries, so one-digit partial
        # sums stay below 4K; paired digits only run with (3K)^2 <= 2^16
        if 4 * k > _FLOAT32_EXACT:
            raise WeightsTooLarge(
                f"root weights summing to {k - 1} give codes past float32's"
                " exact range (4K must stay within 2^24)"
            )
        chain = levels or transversal_chain(system)
        rest = chain[1:]
        sizes = [len(level) for level in rest]
        cut = min(
            range(len(rest) + 1), key=lambda c: max(prod(sizes[:c]), prod(sizes[c:]))
        )
        n = system.size
        ptgt, pneg, pparity = _stacked(system, rest[:cut], np.arange(n))
        ptgt = ptgt.astype(np.intp)  # int16 indices would be widened on every part
        m = 3 * k
        digits = 2 if len(pparity) % 2 == 0 and m * m <= _PAIRED_CODES else 1
        width = len(pparity) // digits
        block = min(prod(sizes[cut:]), max(1, _BLOCK_FLOATS // width))
        # every part reuses one buffer pair: fresh megabyte arrays per product
        # cost more in page faults than the product itself
        codes = np.empty((block, width), dtype=np.float32)
        ints = np.empty((block, width), dtype=np.intp)

        tgt, flags, sparity = _stacked(system, rest[cut:], cols)
        c = weights[cols].astype(np.float32)
        wmat = np.zeros((len(sparity), n + 2), dtype=np.float32)
        for lo in range(0, len(wmat), block):
            rows = wmat[lo:lo + block]
            f = flags[lo:lo + block]
            rows[np.arange(len(rows))[:, None], tgt[lo:lo + block]] = np.where(f, -c, c)
            rows[:, n] = f @ c + np.float32(k) * sparity[lo:lo + block]
        wmat[:, n + 1] = k

        parts = chain[0]
        mirror = list(range(len(parts)))  # a restricted part is its own mirror
        if levels is None:
            # w0 q W_J has the minimal representative w0 q w0_J, w0_J longest in W_J
            w0 = _sift(identity(system), system.rank, longest=True)
            w0_j = _sift(identity(system), system.rank - 1, longest=True)
            index = {q.key(): i for i, q in enumerate(parts)}
            mirror = [index[multiply(multiply(w0, q), w0_j).key()] for q in parts]
        return cls(
            system, parts, mirror, ptgt, pneg, pparity, wmat, k, digits, block, codes, ints
        )

    def part_coeffs(self, part_index: int, unsigned: bool = False) -> np.ndarray:
        """Signed tally of codes over one part, as an int64 vector."""
        q = self.parts[part_index]
        n = self.system.size
        rows = np.empty((len(self.pparity), n + 2), dtype=np.float32)
        rows[:, :n] = q.neg[self.ptgt] ^ self.pneg
        rows[:, n] = 1
        rows[:, n + 1] = (self.pparity + q.parity) & 1
        m = 3 * self.k
        # two prefix rows share one product as the digits of a base-m code;
        # the tally is then the sum of the two digit histograms
        if self.digits == 2:
            half = len(rows) // 2
            rows = rows[:half] + m * rows[half:]
        counts = np.zeros(m**self.digits, dtype=np.int64)
        for lo in range(0, len(self.wmat), self.block):
            w = self.wmat[lo:lo + self.block]
            codes, ints = self.codes[:len(w)], self.ints[:len(w)]
            np.matmul(w, rows.T, out=codes)
            np.copyto(ints, codes, casting="unsafe")
            counts += np.bincount(ints.ravel(), minlength=len(counts))
        if self.digits == 2:
            grid = counts.reshape(m, m)
            counts = grid.sum(axis=0) + grid.sum(axis=1)
        # blocks by parity_qp + parity_s = 0, 1, 2; the middle one is negative
        b0, b1, b2 = counts.reshape(3, self.k)
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


def profile_gf_by_roots(
    system: RootSystem,
    profile: ResolvedProfile,
    *,
    unsigned: bool = False,
    levels: Levels | None = None,
) -> Poly:
    """Sequential signed generating function of a profile over the domain of
    levels, by default the whole group."""
    weights, dims = root_weights(profile, system)
    split = _Split.build(system, weights, levels)
    total = np.zeros(split.k, dtype=np.int64)
    for i, m in split.pairs(range(len(split.parts))):
        coeffs = split.part_coeffs(i, unsigned=unsigned)
        total += coeffs
        if m is not None:
            total += split.mirrored(coeffs, unsigned=unsigned)
    return _coeffs_to_poly(total, dims, profile.vars)


def odd_length_gf_by_roots(system: RootSystem, *, unsigned: bool = False) -> Poly:
    """Sequential signed odd-length generating function over the whole group."""
    odd_length = resolve_profile("odd-length", system.ctype)
    return profile_gf_by_roots(system, odd_length, unsigned=unsigned)


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

_WORKER_SPLIT: _Split | None = None
_CHECKPOINT_INTERVAL = 1.0  # seconds between checkpoint writes while parts land


def _one_blas_thread() -> None:
    """Cap numpy's bundled OpenBLAS at one thread; a no-op when it has none."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                return


def _init_worker(split: _Split) -> None:
    # each worker is one core's worth of work, so its BLAS gets one thread;
    # the split reaches it through fork, unpickled
    global _WORKER_SPLIT
    _WORKER_SPLIT = split
    _one_blas_thread()


def _worker_part(index: int) -> np.ndarray:
    assert _WORKER_SPLIT is not None
    return _WORKER_SPLIT.part_coeffs(index)


def _run_pool(split: _Split, jobs, workers: int, finish) -> None:
    """Compute jobs on a fork pool, finishing each in the parent as it lands.
    A part that raises is retried twice; a dead worker ends the run."""
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        workers,
        mp_context=mp.get_context("fork"),
        initializer=_init_worker,
        initargs=(split,),
    )
    failures: dict[int, int] = {}
    try:
        pending = {pool.submit(_worker_part, i): (i, m) for i, m in jobs}
        while pending:
            retry = {}
            for fut in as_completed(pending):
                i, m = pending[fut]
                try:
                    coeffs = fut.result()
                except BrokenProcessPool as exc:
                    raise WorkerFailure(f"a worker died while computing part {i}") from exc
                except Exception as exc:
                    failures[i] = failures.get(i, 0) + 1
                    if failures[i] > 2:
                        raise WorkerFailure(f"part {i} failed repeatedly: {exc}") from exc
                    retry[pool.submit(_worker_part, i)] = (i, m)
                    continue
                finish(i, m, coeffs)
            pending = retry
    finally:
        pool.shutdown(cancel_futures=True)


def _check_writable(path: str) -> None:
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise CheckpointUnwritable(
            f"cannot write checkpoint {path}: no writable directory {folder}"
        )


def run_partitioned(
    ctype: CartanType,
    profile: str = "odd-length",
    *,
    workers: int = 1,
    checkpoint_path: str | None = None,
    resume: bool = False,
    parts: list[int] | None = None,
    budget: int = DEFAULT_BUDGET,
    allow_large: bool = False,
    progress: bool = False,
):
    """Partitioned, checkpointed computation of a full-group profile.

    Parts are the cosets of the outermost parabolic; each contributes a
    private tally and merging is plain addition, so completion order cannot
    change the result.  parts restricts the run to a subset (partial sums
    are meaningful and reproducible); resume continues from checkpoint_path.
    The suffix matrices are built only when some part is still to do.

    Each landed tally (and its w0 mirror) is added into one running int64
    array, which becomes a polynomial only when the checkpoint is written:
    at most once every _CHECKPOINT_INTERVAL seconds, and once when the
    parts loop ends, also by WorkerFailure or KeyboardInterrupt (unless that
    stopped a merge halfway).  A killed parent so loses at most one interval
    of parts; a failed worker none.
    """
    resolved = resolve_profile(profile, ctype)
    order = group_order(ctype) if allow_large else check_budget(ctype, budget)
    start = time.perf_counter()
    system = root_system(ctype)
    n_parts = len(transversal_chain(system)[0])
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
        split = _Split.build(system, weights)
        tally = np.zeros(split.k, dtype=np.int64)  # parts in ck.done, not yet in ck.partial
        landed = 0
        merging = False  # ck.done and the tally may disagree while set
        began = written = time.monotonic()

        def save() -> None:
            ck.partial = ck.partial + _coeffs_to_poly(tally, dims, resolved.vars)
            tally[:] = 0
            if checkpoint_path:
                ck.write(checkpoint_path)

        def finish(index: int, mirror: int | None, coeffs: np.ndarray) -> None:
            nonlocal landed, merging, written
            merging = True
            merged = [index]
            np.add(tally, coeffs, out=tally)
            if mirror is not None:
                np.add(tally, split.mirrored(coeffs), out=tally)
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

        jobs = split.pairs(todo)
        try:
            if workers > 1:
                _run_pool(split, jobs, workers, finish)
            else:
                for i, m in jobs:
                    finish(i, m, split.part_coeffs(i))
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
        "full",
        sum(order // n_parts for _ in done_in_scope),
        time.perf_counter() - start,
        n_parts=n_parts,
        parts_done=tuple(done_in_scope),
    )
