"""Global branch history register with folded-history helpers.

Both the TAGE branch predictor and the VTAGE value predictor index their tagged
components with a hash of the PC and a geometrically increasing slice of the global
conditional-branch history (Seznec & Michaud, JILP 2006; Perais & Seznec, HPCA 2014).
This module provides the shared history register abstraction, including the standard
"folding" of a long history slice down to an index- or tag-sized bit field.

Folding is maintained *incrementally*, the way hardware does it: each (length, width)
pair is a circular-shifted register updated in O(1) on every :meth:`GlobalHistory.push`
(Seznec & Michaud's CSR scheme), instead of re-XOR-folding up to ``capacity`` history
bits per prediction.  :func:`fold_bits` remains the reference implementation the
incremental registers are tested against, and squash recovery goes through
:meth:`GlobalHistory.snapshot` / :meth:`GlobalHistory.restore`, which carry the folded
state alongside the raw bits so recovery never re-folds either.
"""

from __future__ import annotations


def fold_bits(value: int, length: int, width: int) -> int:
    """XOR-fold ``length`` bits of ``value`` into a ``width``-bit quantity.

    Reference implementation: the incremental registers of :class:`FoldedRegisterFile`
    must always equal ``fold_bits(history.slice(length), length, width)``.
    """
    if width <= 0 or length <= 0:
        return 0
    mask = (1 << width) - 1
    folded = 0
    remaining = value & ((1 << length) - 1)
    while remaining:
        folded ^= remaining & mask
        remaining >>= width
    return folded & mask


class FoldedRegisterFile:
    """Circular-shifted folded-history registers for one set of (length, width) pairs.

    One register per pair; an active register holds ``fold_bits(history.slice(length),
    length, width)`` at all times, a dormant one ``None``.  On :meth:`push`, every
    active register is updated in O(1): the register rotates left by one within its
    width, the incoming outcome lands in bit 0, and the outgoing history bit (bit
    ``length - 1`` of the *pre-push* raw history) is cancelled at bit ``length %
    width`` — exactly where the rotation moved its contribution.  Restoring a
    snapshot reinstates the register values directly; only activation (and a restore
    to a snapshot older than it) re-folds the raw history.
    """

    __slots__ = (
        "history",
        "lengths",
        "widths",
        "folds",
        "_params",
        "_active",
        "_live",
        "_activations",
        "_tuple_cache",
    )

    def __init__(self, history: "GlobalHistory", lengths, widths) -> None:
        self.history = history
        self.lengths = tuple(lengths)
        self.widths = tuple(widths)
        if len(self.lengths) != len(self.widths):
            raise ValueError("lengths and widths must pair up")
        # Per-register constants: (out_shift, out_point, top_shift, mask).  Lengths are
        # clamped to the history capacity — the register itself holds no more bits, so
        # a longer slice folds identically (the reference fold_bits agrees: the extra
        # "bits" are all zero).
        self._params = []
        for length, width in zip(self.lengths, self.widths):
            length = min(length, history.capacity)
            if length <= 0 or width <= 0:
                self._params.append(None)
            else:
                self._params.append(
                    (length - 1, length % width, width - 1, (1 << width) - 1)
                )
        # Every register starts dormant: pushes skip it and its fold reads as
        # ``None`` until :meth:`activate` back-fills it from the raw history.
        # Consumers of possibly-dormant folds must fall back to ``fold_bits`` on
        # ``None`` (TAGE/VTAGE carry the raw lookup-time bits for exactly that).
        # ``_active`` is the activation record; ``_live`` lists the active
        # registers' ``(index, *params)`` in activation order, for ``_push``.
        self._active: list = [None] * len(self._params)
        self._live: list = []
        self._activations = 0
        self.folds: list = []
        self._refold(history._bits)

    def _refold(self, bits: int) -> None:
        """Recompute every active register from raw ``bits`` (attach time / legacy restore)."""
        capacity = self.history.capacity
        self.folds = [
            fold_bits(bits, min(length, capacity), width) if active is not None else None
            for active, length, width in zip(self._active, self.lengths, self.widths)
        ]
        self._tuple_cache: tuple | None = None

    def activate(self, index: int) -> None:
        """Wake a dormant register, back-filling its fold from the raw history.

        Idempotent and monotonic: once active, a register is rotated by every
        subsequent push and always equals the reference fold.  Called by TAGE/VTAGE
        the first time a tagged component receives an entry (``_component_sizes``
        0→1), so histories only pay per-push work for components that exist.
        """
        if self._active[index] is not None:
            return
        params = self._params[index]
        if params is None:
            return
        self._active[index] = params
        self._live.append((index, *params))
        history = self.history
        self.folds[index] = fold_bits(
            history._bits, min(self.lengths[index], history.capacity), self.widths[index]
        )
        self._tuple_cache = None
        self._activations += 1

    def _restore_patch(self, saved: tuple, bits: int) -> None:
        """Restore from a snapshot older than the latest activation.

        Registers activated after the snapshot have ``None`` holes in ``saved`` but
        are active now — an active register must always hold a valid fold, so the
        holes are re-folded from the restored raw ``bits``.
        """
        folds = list(saved)
        capacity = self.history.capacity
        for index, active in enumerate(self._active):
            if active is not None and folds[index] is None:
                folds[index] = fold_bits(
                    bits, min(self.lengths[index], capacity), self.widths[index]
                )
        self.folds = folds
        self._tuple_cache = None

    def folds_tuple(self) -> tuple[int, ...]:
        """Immutable snapshot of the register values, memoised between pushes.

        Value-predictor lookups snapshot the folds once per µ-op but the registers
        only change per conditional branch, so the tuple is shared by every lookup
        in between.
        """
        cached = self._tuple_cache
        if cached is None:
            cached = tuple(self.folds)
            self._tuple_cache = cached
        return cached

    def _push(self, old_bits: int, bit: int) -> None:
        """O(1) update of every live register for one pushed outcome ``bit``.

        Each XOR term is narrower than the register (``bit`` lands in bit 0, the
        outgoing bit at ``length % width``), so only the rotation needs a mask.
        """
        self._tuple_cache = None
        folds = self.folds
        for index, out_shift, out_point, top_shift, mask in self._live:
            fold = folds[index]
            folds[index] = (
                ((fold << 1) | (fold >> top_shift)) & mask
            ) ^ bit ^ (((old_bits >> out_shift) & 1) << out_point)


class HistorySnapshot(int):
    """A :meth:`GlobalHistory.snapshot` value: the raw history bits, as an ``int``.

    Subclassing ``int`` keeps the long-standing contract (snapshots compare and hash
    like the raw bits) while piggybacking the incremental folded-register state, so
    :meth:`GlobalHistory.restore` is O(registers) instead of re-folding the full
    history.  A plain ``int`` (e.g. the ``0`` default of a fresh
    :class:`~repro.ooo.inflight.InflightOp`) is still accepted by ``restore`` — the
    folded registers are then recomputed from the raw bits.

    (``int`` subclasses cannot carry nonempty ``__slots__``, so ``folds`` lives in the
    instance dict; snapshots are memoised per push in :meth:`GlobalHistory.snapshot`,
    so at most one is created per history change.)
    """

    folds: tuple[tuple, ...]
    #: Per-file activation counters at snapshot time, so ``restore`` can detect lazy
    #: registers that woke up after the snapshot (their saved folds are ``None``
    #: holes that must be re-folded from the raw bits).
    acts: tuple[int, ...]


class GlobalHistory:
    """A fixed-capacity global branch-history register.

    The youngest outcome occupies bit 0.  The register is deliberately storage-bounded
    (``capacity`` bits) like a hardware history register.
    """

    __slots__ = ("capacity", "_bits", "_mask", "_registers", "_snapshot")

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("history capacity must be positive")
        self.capacity = capacity
        self._bits = 0
        self._mask = (1 << capacity) - 1
        #: Attached folded-register files, in attach order (append-only, so snapshot
        #: fold tuples stay index-aligned even when a file attaches mid-run).
        self._registers: list[FoldedRegisterFile] = []
        self._snapshot: HistorySnapshot | None = None

    # ------------------------------------------------------------------ update
    def push(self, taken: bool) -> None:
        """Insert the outcome of the most recent conditional branch."""
        bits = self._bits
        bit = 1 if taken else 0
        for registers in self._registers:
            registers._push(bits, bit)
        self._bits = ((bits << 1) | bit) & self._mask
        self._snapshot = None

    def snapshot(self) -> HistorySnapshot:
        """Checkpoint the history (raw bits + folded registers) for squash recovery.

        The returned value is an ``int`` equal to :attr:`bits`; it additionally
        carries the attached folded-register values so :meth:`restore` never has to
        re-fold.  Snapshots are memoised between pushes, so checkpointing every
        fetched µ-op costs one attribute read on the common no-new-branch path.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = HistorySnapshot(self._bits)
            snapshot.folds = tuple(reg.folds_tuple() for reg in self._registers)
            snapshot.acts = tuple(reg._activations for reg in self._registers)
            self._snapshot = snapshot
        return snapshot

    def restore(self, snapshot: int) -> None:
        """Restore a checkpoint taken with :meth:`snapshot` (or raw history bits)."""
        self._bits = int(snapshot) & self._mask
        folds = getattr(snapshot, "folds", None)
        acts = getattr(snapshot, "acts", None)
        for index, registers in enumerate(self._registers):
            if folds is not None and index < len(folds):
                if (
                    acts is None
                    or index >= len(acts)
                    or acts[index] != registers._activations
                ):
                    # Lazy registers woke up after this snapshot was taken: patch
                    # the ``None`` holes from the restored raw bits.
                    registers._restore_patch(folds[index], self._bits)
                else:
                    registers.folds = list(folds[index])
                    registers._tuple_cache = folds[index]
            else:
                # Register file attached after the snapshot was taken (or a raw-bits
                # restore): fall back to re-folding from the restored history.
                registers._refold(self._bits)
        self._snapshot = snapshot if isinstance(snapshot, HistorySnapshot) and folds is not None and len(folds) == len(self._registers) else None

    # ------------------------------------------------------------------ folded registers
    def folded_registers(self, lengths, widths) -> FoldedRegisterFile:
        """Attach (or reuse) an incremental folded-register file for given pairs.

        Register files are deduplicated by their (lengths, widths) signature, so two
        predictors with identical geometry share one set of registers.  The
        registers start dormant and are woken individually via
        :meth:`FoldedRegisterFile.activate`.
        """
        key = (tuple(lengths), tuple(widths))
        for registers in self._registers:
            if (registers.lengths, registers.widths) == key:
                return registers
        registers = FoldedRegisterFile(self, key[0], key[1])
        self._registers.append(registers)
        self._snapshot = None
        return registers

    # ------------------------------------------------------------------ access
    @property
    def bits(self) -> int:
        """Raw history bits, youngest outcome in bit 0."""
        return self._bits

    def slice(self, length: int) -> int:
        """The youngest ``length`` bits of history."""
        if length <= 0:
            return 0
        if length >= self.capacity:
            return self._bits
        return self._bits & ((1 << length) - 1)

    def fold(self, length: int, width: int) -> int:
        """Fold the youngest ``length`` history bits down to ``width`` bits by XOR."""
        return fold_bits(self.slice(length), length, width)
