"""Exhaustive weighted root counts through the root action.

Every profile is a weighted count of negated roots: root a carries an
integer weight c_a (1 on the odd roots for odd length, a mixed radix code of
the variables counting a otherwise, see gf.root_weights), and an element w
gets the code sum of c_a over the roots a that w sends negative.

A domain is any list of levels whose products, one element per level taken
left to right, give each of its elements once: the parabolic chain for the
whole group, or the windows of gf._domain_levels for a restricted domain.
The first level labels the parts.  A part's tally counts its codes, signed
by parity (or unsigned), in int64, exact since run_partitioned refuses
domains of 2^63 elements or more.

_Fold, the engine of every run.  The state g_v holds, for each positive
root b, +c_a if v(a) = b and -c_a if v(a) = -b.  Then code(u v) = code(v) +
<neg_u, g_v> and g_{u v}(tgt_u(b)) = (1 - 2 neg_u(b)) g_v(b), so the levels
after the first fold right to left into sparse entries (state, code, value),
each state over the roots outer levels read: prepending u sends (s, c, v)
to (image(s, u), c + <neg_u, g_s>, sign_u v), sign_u = (-1)^parity_u for
signed counts and 1 for unsigned ones.  Entries that meet are summed;
entries that cancel to 0 are dropped, and the states they leave empty with
them, so a signed E8 run keeps 2 states.  A part is one more such step,
summed by code.  The levels come stacked (weyl.Stack): the chain's once per
root system, by weyl.transversal_chain, a restricted domain's once per run.
A level, a product or the part shifts that would take more working memory
than one cap, _MEMORY_BYTES, is refused with BudgetExceeded before it is
built.

_Split, the kernel, is the second method of odd_length_gf_by_roots, which
checks the fold.  With the levels after the first cut into prefix and
suffix blocks,

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
bincount sums over it are exact too.  It refuses with BudgetExceeded a
prefix or suffix table past _MEMORY_BYTES before stacking it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import stat
import sys
import tempfile
import time
from dataclasses import dataclass
from math import prod

import numpy as np

from .cartan import CartanType, RootSystem, group_order, root_system, row_keys
from .errors import (
    BudgetExceeded, CheckpointCorrupt, CheckpointUnwritable, OddLengthError, PartOutOfRange,
    UnsupportedProfile, WeightsTooLarge, WorkerFailure,
)
from .gf import GFResult, _domain_levels, _domain_shape, resolve_profile, root_weights
from .poly import Poly
from .weyl import (
    WeylElement, check_budget, decimal_exponent, stack_levels, transversal_chain,
    window_to_element,
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


def _exact_product(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """a @ b for integer a and b, as int64, through float64 BLAS: numpy's
    integer products take ten times longer.  Exact while every partial sum
    is an integer below 2^53; a fold's are codes, below K.  BudgetExceeded
    names what when a, b and a @ b as float64, and its int64 cast, would
    pass _MEMORY_BYTES."""
    _check_memory(what, a.size + b.size + 2 * a.shape[0] * b.shape[1], 8)
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def _distinct_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, inverse) of the rows of a 2-d integer table, compared exactly
    as bytes: table[first] holds each distinct row once, in the order of
    their bytes, and table[first][inverse] is table."""
    if not table.shape[1]:  # every row is the empty row
        return np.zeros(1, dtype=np.intp), np.zeros(len(table), dtype=np.intp)
    _, first, inverse = np.unique(row_keys(table), return_index=True, return_inverse=True)
    return first, inverse


@dataclass
class _Parts:
    """A domain's parts as the parts loop sees them; each engine below adds
    part_coeffs(i), the code tally of part i as an int64 vector of length k."""
    parts: list[WeylElement]          # first level of the domain
    k: int                            # sum of the weights + 1


@dataclass
class _Fold(_Parts):
    states: np.ndarray                # live states x roots the parts read
    state: np.ndarray                 # per entry: its state, code and value
    code: np.ndarray
    value: np.ndarray
    shifts: np.ndarray                # parts x states: <neg_q, g>
    signs: np.ndarray                 # per part: sign_q

    @classmethod
    def build(
        cls, system: RootSystem, weights: np.ndarray | None = None, levels: Levels | None = None,
        unsigned: bool = False,
    ) -> "_Fold":
        """Fold of the levels after the first (of the whole group's chain by
        default) for integer root weights (1 on the odd roots by default),
        its entries signed by parity unless unsigned."""
        if weights is None:
            weights = np.array(system.odd_mask, dtype=np.int64)
        chain = levels or transversal_chain(system)
        st = system._chain_stack if levels is None else stack_levels(levels)
        ends, cols, neg, src, sign = st.ends, st.cols, st.neg, st.src, st.sign
        k, dtype = int(weights.sum()) + 1, np.min_scalar_type(-int(weights.max()))
        signs = np.ones_like(st.parity) if unsigned else 1 - 2 * st.parity
        # one entry, the empty product's: code 0, value 1
        states = weights[cols[-1]].astype(dtype)[None, :]
        state, code, value = np.zeros(1, np.intp), np.zeros(1, np.int64), np.ones(1, np.int64)
        for j in range(len(chain) - 1, 0, -1):
            (lo, hi), have, keep = ends[j:j + 2], cols[j + 1], cols[j]
            # images and np.unique's sorted copy; entry keys, values and their sort
            what = f"folding {system.ctype} at one level"
            _check_memory(what, len(states), hi - lo, 4 * len(keep) * states.itemsize)
            _check_memory(what, len(value), hi - lo, 64)
            shift = _exact_product(states, neg[lo:hi, have].T, what)
            at = np.searchsorted(have, src[lo:hi, keep])
            images = (states[:, at] * sign[lo:hi, keep]).reshape(len(states) * (hi - lo), len(keep))
            first, inverse = _distinct_rows(images)
            # entry (s, c, v) lands at image(s, u) * K + c + shift[s, u]
            key = inverse.reshape(shift.shape)[state] * k + code[:, None] + shift[state]
            key, landing = np.unique(key.ravel(), return_inverse=True)
            total = np.zeros(len(key), dtype=np.int64)
            np.add.at(total, landing, (value[:, None] * signs[lo:hi]).ravel())
            key, value = key[total != 0], total[total != 0]
            live, state = np.unique(key // k, return_inverse=True)
            states, code = images[first[live]], key % k
        what = f"the part shifts of {system.ctype}"
        shifts = _exact_product(neg[:ends[1], cols[1]], states.T, what)
        return cls(chain[0], k, states, state, code, value, shifts, signs[:ends[1]])

    def part_coeffs(self, part_index: int) -> np.ndarray:
        """Tally of codes over one part, as an int64 vector."""
        tally = np.zeros(self.k, dtype=np.int64)
        np.add.at(tally, self.code + self.shifts[part_index][self.state], self.value)
        return tally * self.signs[part_index]


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
        return cls(parts, k, ptgt, pneg, pparity, states, signed, unsigned)

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
    element budget, summed from the kernel's part tallies.  signed_gf runs
    the fold, so this second method checks the fold against the kernel."""
    split = _Split.build(system)
    return _coeffs_to_poly(sum(split.part_coeffs(i, unsigned) for i in range(len(split.parts))))


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
        """Write to a fresh file beside path, then rename it over path; the
        fresh file is removed if that fails."""
        folder, name = os.path.split(path)
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=folder or ".")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(self.payload(), separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise

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
        done = body["done"]
        if not (isinstance(done, list) and all(type(i) is int and 0 <= i < n_parts for i in done)):
            raise CheckpointCorrupt(f"checkpoint {path} lists parts outside [0, {n_parts})")
        try:
            partial = Poly.from_json_dict(body["partial"])
        except (KeyError, TypeError, ValueError, OddLengthError):
            partial = Poly.zero(())  # in no profile's variables
        # in the profile's variables, and written as this program writes it
        if partial.vars != ck.partial.vars or partial.to_json_dict() != body["partial"]:
            raise CheckpointCorrupt(
                f"checkpoint {path} holds no polynomial in {', '.join(ck.partial.vars)}"
            )
        ck.done, ck.partial = set(done), partial
        # a whole signed series vanishes with every variable at 1, and odd
        # length counts at most the N_odd odd-height roots
        n_odd = sum(root_system(ctype).odd_mask) if profile == "odd-length" else None
        if len(ck.done) == n_parts and (
            sum(partial.terms.values()) or n_odd is not None and partial.total_degree() > n_odd
        ):
            raise CheckpointCorrupt(f"checkpoint {path} marks every part done, but holds"
                                    f" no signed {profile} series of {ctype}")
        return ck


# ---------------------------------------------------------------------------
# partitioned driver

_CHECKPOINT_INTERVAL = 1.0  # seconds between checkpoint writes while parts land
_TRIES = 3  # a part that raises this many times ends the run


def _check_writable(path: str) -> None:
    """CheckpointUnwritable unless path is absent or a regular file, in a
    writable directory.  Decided by stat, which opens nothing: opening a
    FIFO would block."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK):
        raise CheckpointUnwritable(
            f"cannot write checkpoint {path}: no writable directory {folder}"
        )
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return
    except OSError as exc:
        raise CheckpointUnwritable(f"cannot write checkpoint {path}: {exc}") from exc
    if not stat.S_ISREG(mode):
        raise CheckpointUnwritable(f"cannot write checkpoint {path}: not a regular file")


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
    which holds signed full-group runs only.  The fold is built only when
    some part is still to do, and its parts run one after another in the
    calling thread; workers is accepted and selects nothing.  A part that
    raises is tried _TRIES times in all, then the run ends in WorkerFailure.

    A run is admitted on its domain's size (|W|, or the product of the
    window level lengths of gf._domain_shape, known before any window is
    built): the element budget first, unless allow_large, then 2^63.

    Each landed tally is added into one running int64 array, which becomes
    a polynomial only when the checkpoint is written: at most once every
    _CHECKPOINT_INTERVAL seconds, and once when the parts loop ends, also
    by WorkerFailure or KeyboardInterrupt (unless that stopped a merge
    halfway).  A killed process so loses at most one interval of parts; a
    failing part none.
    """
    start = time.perf_counter()
    resolved = resolve_profile(profile, ctype)
    order = group_order(ctype)  # refused on a logarithm when far too large
    shape = _domain_shape(restriction, ctype)
    size = order if shape is None else prod(shape)
    if not allow_large:
        check_budget(ctype, restriction, size)
    if size >= _EXACT_ELEMENTS:
        raise BudgetExceeded(
            f"{ctype}: a domain of about 10^{decimal_exponent(size)} elements is past 2^63,"
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
        fold = _Fold.build(system, weights, domain, unsigned)
        tally = np.zeros(fold.k, dtype=np.int64)  # parts in ck.done, not yet in ck.partial
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

        def finish(index: int, coeffs: np.ndarray) -> None:
            nonlocal landed, merging, written
            merging = True
            np.add(tally, coeffs, out=tally)
            ck.done.add(index)
            landed += 1
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
                    f"part {index} done ({count}/{len(wanted)},"
                    f" {landed / elapsed:.1f} parts/s, ETA {eta:.1f}s)",
                    file=sys.stderr,
                    flush=True,
                )

        def attempt(i: int) -> np.ndarray:
            for tries in range(1, _TRIES + 1):
                try:
                    return fold.part_coeffs(i)
                except Exception as exc:
                    if tries == _TRIES:
                        raise WorkerFailure(f"part {i} failed repeatedly: {exc}") from exc

        try:
            for i in todo:
                finish(i, attempt(i))
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
