"""Exhaustive odd-length computation through the root action.

The group is cut along its parabolic chain: the outermost transversal labels
the parts, the remaining levels are split into a per-part prefix block and a
shared suffix block.  For a part q, every element is q p s with p a prefix
product and s a suffix product, and the number of odd roots it sends
negative is

    L(q p s) = sum over odd roots a of  flag_s(a) XOR negbit_{q p}(target_s(a))

so one matrix product of the prefix sign-bit matrix against a suffix weight
matrix evaluates L for a whole part at once.  Each prefix row also carries a
constant 1 and its parity bit, and each suffix the matching weights
flags_s + K parity_s and K, with K = N_odd + 1.  The product is then the code
L + K (parity_qp + parity_s) below 3K, whose block gives the sign, so an
unweighted bincount tallies a signed part.  When (3K)^2 is small, two prefix
rows share one product as the two digits of a base-3K code, which halves
the product and the counting.  Entries stay small integers, exact in
float32, and the tallies are integer counts, so the result is exact and
independent of part order.

The longest element w0 halves the work: it negates every positive root, so
L(w0 w) = N_odd - L(w) and length(w0 w) = N - length(w), and left
multiplication by w0 maps each part onto another one.  The tally of that
mirror part is the reversed tally times (-1)^N, so only one part of each
pair is computed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from .cartan import CartanType, RootSystem, group_order, root_system
from .errors import (
    BudgetExceeded,
    CheckpointCorrupt,
    CheckpointUnwritable,
    PartOutOfRange,
    UnsupportedProfile,
    WorkerFailure,
)
from .poly import Poly
from .weyl import (
    DEFAULT_BUDGET,
    WeylElement,
    identity,
    multiply,
    simple_reflection,
    transversal_chain,
)

__all__ = ["odd_length_gf_by_roots", "run_partitioned", "Checkpoint"]

_SUFFIX_CAP = 65536
_CHUNK = 4096  # suffix rows per matrix product, small enough to stay in cache
_PAIRED_CODES = 1 << 16  # paired codes stay below this, far inside float32's exact range


def _stacked(system: RootSystem, levels: list[list[WeylElement]], columns: np.ndarray):
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


def _longest_element(system: RootSystem, j_limit: int) -> WeylElement:
    """Longest element of the parabolic subgroup on the simple reflections
    below j_limit, grown one reflection at a time until it negates them all."""
    w = identity(system)
    while True:
        for j in range(j_limit):
            if not w.neg[system.simple_index[j]]:
                w = multiply(w, simple_reflection(system, j))
                break
        else:
            return w


@dataclass
class _Split:
    system: RootSystem
    parts: list[WeylElement]          # outermost transversal
    mirror: list[int]                 # index of the part holding w0 * part
    ptgt: np.ndarray                  # prefix products x roots, stacked
    pneg: np.ndarray
    pparity: np.ndarray
    wmat: np.ndarray                  # suffixes x (roots + 2), float32 code weights
    n_odd: int

    @classmethod
    def build(cls, system: RootSystem) -> "_Split":
        chain = transversal_chain(system)
        rest = chain[1:]
        cut = len(rest)
        size = 1
        while cut > 0 and size * len(rest[cut - 1]) <= _SUFFIX_CAP:
            size *= len(rest[cut - 1])
            cut -= 1
        odd = np.array(system.odd_indices, dtype=np.intp)
        n, k = system.size, len(odd) + 1
        tgt, flags, sparity = _stacked(system, rest[cut:], odd)
        values = np.where(flags, np.float32(-1), np.float32(1))
        wmat = np.zeros((len(sparity), n + 2), dtype=np.float32)
        for c in range(0, len(wmat), _CHUNK):
            block = wmat[c:c + _CHUNK]
            block[np.arange(len(block))[:, None], tgt[c:c + _CHUNK]] = values[c:c + _CHUNK]
        wmat[:, n] = flags.sum(axis=1, dtype=np.int64) + k * sparity.astype(np.int64)
        wmat[:, n + 1] = k

        # w0 q W_J has the minimal representative w0 q w0_J, w0_J longest in W_J
        parts = chain[0]
        w0 = _longest_element(system, system.rank)
        w0_j = _longest_element(system, system.rank - 1)
        index = {q.key(): i for i, q in enumerate(parts)}
        mirror = [index[multiply(multiply(w0, q), w0_j).key()] for q in parts]
        prefixes = _stacked(system, rest[:cut], np.arange(n))
        return cls(system, parts, mirror, *prefixes, wmat, len(odd))

    def part_coeffs(self, part_index: int, unsigned: bool = False) -> np.ndarray:
        """Signed tally of L values over one part, as an int64 vector."""
        q = self.parts[part_index]
        n = self.system.size
        rows = np.empty((len(self.pparity), n + 2), dtype=np.float32)
        rows[:, :n] = q.neg[self.ptgt] ^ self.pneg
        rows[:, n] = 1
        rows[:, n + 1] = (self.pparity + q.parity) & 1
        k = self.n_odd + 1
        m = 3 * k
        # two prefix rows share one product as the digits of a base-m code
        # when the paired codes stay small; the tally is then the sum of the
        # two digit histograms
        digits = 2 if len(rows) % 2 == 0 and m * m <= _PAIRED_CODES else 1
        if digits == 2:
            half = len(rows) // 2
            rows = rows[:half] + m * rows[half:]
        counts = np.zeros(m**digits, dtype=np.int64)
        for c in range(0, len(self.wmat), _CHUNK):
            codes = self.wmat[c:c + _CHUNK] @ rows.T
            counts += np.bincount(codes.astype(np.intp).ravel(), minlength=m**digits)
        if digits == 2:
            grid = counts.reshape(m, m)
            counts = grid.sum(axis=0) + grid.sum(axis=1)
        # blocks by parity_qp + parity_s = 0, 1, 2; the middle one is negative
        b0, b1, b2 = counts.reshape(3, k)
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


def _coeffs_to_poly(coeffs: np.ndarray) -> Poly:
    return Poly(("x",), {(k,): int(c) for k, c in enumerate(coeffs) if c})


def odd_length_gf_by_roots(system: RootSystem, *, unsigned: bool = False) -> Poly:
    """Sequential signed odd-length generating function over the whole group."""
    split = _Split.build(system)
    total = np.zeros(split.n_odd + 1, dtype=np.int64)
    for i, m in split.pairs(range(len(split.parts))):
        coeffs = split.part_coeffs(i, unsigned=unsigned)
        total += coeffs
        if m is not None:
            total += split.mirrored(coeffs, unsigned=unsigned)
    return _coeffs_to_poly(total)


# ---------------------------------------------------------------------------
# checkpoints

class Checkpoint:
    """Resumable partial sum over parts, written atomically by rename."""

    def __init__(self, ctype: CartanType, profile: str, n_parts: int):
        self.ctype = ctype
        self.profile = profile
        self.n_parts = n_parts
        self.done: set[int] = set()
        self.partial = Poly.zero(("x",))

    def payload(self) -> dict:
        body = {
            "ctype": str(self.ctype),
            "profile": self.profile,
            "n_parts": self.n_parts,
            "done": sorted(self.done),
            "partial": self.partial.to_json_dict(),
        }
        digest = hashlib.sha256(
            json.dumps(body, separators=(",", ":")).encode()
        ).hexdigest()
        return {**body, "hash": digest}

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
        digest = hashlib.sha256(
            json.dumps(body, separators=(",", ":")).encode()
        ).hexdigest()
        if data.get("hash") != digest:
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
    """Partitioned, checkpointed version of the odd-length computation.

    Parts are the cosets of the outermost parabolic; each contributes a
    private polynomial and merging is plain addition, so completion order
    cannot change the result.  parts restricts the run to a subset (partial
    sums are meaningful and reproducible); resume continues from
    checkpoint_path.  The suffix matrices are built only when some part is
    still to do.
    """
    from .gf import GFResult  # local import to avoid a cycle

    if profile != "odd-length":
        raise UnsupportedProfile("the partitioned engine computes odd length only")
    order = group_order(ctype)
    if order > budget and not allow_large:
        raise BudgetExceeded(
            f"group of order {order} exceeds the element budget {budget};"
            " pass allow_large=True to opt in"
        )
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

    def merge(tallies: dict[int, np.ndarray]) -> None:
        for index, coeffs in tallies.items():
            ck.partial = ck.partial + _coeffs_to_poly(coeffs)
            ck.done.add(index)
        if checkpoint_path:
            ck.write(checkpoint_path)
        if progress:
            import sys

            print(
                f"part {', '.join(map(str, tallies))} done ({len(ck.done)}/{len(wanted)})",
                file=sys.stderr,
                flush=True,
            )

    if todo:
        split = _Split.build(system)

        def finish(index: int, mirror: int | None, coeffs: np.ndarray) -> None:
            tallies = {index: coeffs}
            if mirror is not None:
                tallies[mirror] = split.mirrored(coeffs)
            merge(tallies)

        jobs = split.pairs(todo)
        if workers > 1:
            _run_pool(split, jobs, workers, finish)
        else:
            for i, m in jobs:
                finish(i, m, split.part_coeffs(i))

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
