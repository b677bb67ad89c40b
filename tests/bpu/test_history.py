"""Tests for the global branch-history register and history folding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bpu.history import GlobalHistory, fold_bits
from repro.vp.vtage import geometric_history_lengths


class TestGlobalHistory:
    def test_push_shifts_in_youngest_bit(self):
        history = GlobalHistory(capacity=8)
        history.push(True)
        history.push(False)
        history.push(True)
        assert history.bits == 0b101

    def test_capacity_bounds_history(self):
        history = GlobalHistory(capacity=4)
        for _ in range(10):
            history.push(True)
        assert history.bits == 0b1111

    def test_snapshot_restore_round_trip(self):
        history = GlobalHistory()
        for outcome in (True, False, True, True):
            history.push(outcome)
        saved = history.snapshot()
        history.push(False)
        history.push(False)
        history.restore(saved)
        assert history.bits == saved

    def test_slice_returns_youngest_bits(self):
        history = GlobalHistory()
        for outcome in (True, True, False, True):  # bits = 0b1101 (youngest last push)
            history.push(outcome)
        assert history.slice(2) == 0b01
        assert history.slice(4) == 0b1101

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            GlobalHistory(capacity=0)


class TestFolding:
    def test_fold_of_short_history_is_identity(self):
        assert fold_bits(0b101, 3, 8) == 0b101

    def test_fold_xors_chunks(self):
        # 10 bits folded into 4: chunks 0b1111, 0b0000, 0b11 -> 0b1100... compute directly
        value = 0b11_0000_1111
        expected = (value & 0xF) ^ ((value >> 4) & 0xF) ^ ((value >> 8) & 0xF)
        assert fold_bits(value, 10, 4) == expected

    def test_zero_width_or_length(self):
        assert fold_bits(0b111, 0, 4) == 0
        assert fold_bits(0b111, 3, 0) == 0

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=16),
    )
    def test_fold_stays_within_width(self, value, length, width):
        assert 0 <= fold_bits(value, length, width) < (1 << width)

    @given(st.integers(min_value=1, max_value=16))
    def test_fold_is_deterministic(self, width):
        history = GlobalHistory()
        for index in range(40):
            history.push(index % 3 == 0)
        assert history.fold(32, width) == history.fold(32, width)


class TestIncrementalFoldedRegisters:
    """The incremental circular-shift registers must always equal re-folding the raw
    history with :func:`fold_bits` — including across arbitrary squash/restore
    sequences, for the TAGE and VTAGE geometries up to 256 history bits."""

    TAGE_LENGTHS = geometric_history_lengths(4, 256, 12)
    TAGE_WIDTHS = [10] * 12 + [11] * 12
    VTAGE_LENGTHS = geometric_history_lengths(2, 64, 6)
    VTAGE_WIDTHS = [10] * 6 + [12 + rank for rank in range(6)]

    def _attach(self, history: GlobalHistory):
        tage = history.folded_registers(self.TAGE_LENGTHS * 2, self.TAGE_WIDTHS)
        vtage = history.folded_registers(self.VTAGE_LENGTHS * 2, self.VTAGE_WIDTHS)
        for registers in (tage, vtage):
            for index in range(len(registers.lengths)):
                registers.activate(index)
        return tage, vtage

    def _check(self, history: GlobalHistory, registers) -> None:
        for file in registers:
            for index, (length, width) in enumerate(zip(file.lengths, file.widths)):
                assert file.folds[index] == fold_bits(
                    history.slice(length), length, width
                ), (length, width)

    def test_push_tracks_reference_folding(self):
        history = GlobalHistory()
        registers = self._attach(history)
        for step in range(600):
            history.push(step % 3 == 0)
            self._check(history, registers)

    def test_snapshot_carries_folds_and_restore_reinstates_them(self):
        history = GlobalHistory()
        registers = self._attach(history)
        for outcome in (True, False, True, True, False):
            history.push(outcome)
        saved = history.snapshot()
        assert saved == history.bits  # int contract preserved
        for outcome in (False, False, True):
            history.push(outcome)
        history.restore(saved)
        assert history.bits == int(saved)
        self._check(history, registers)

    def test_restore_from_raw_bits_refolds(self):
        history = GlobalHistory()
        registers = self._attach(history)
        for _ in range(40):
            history.push(True)
        history.restore(0b1011)  # plain int (e.g. a pre-pool record's default)
        self._check(history, registers)

    def test_registers_attached_after_snapshot_survive_restore(self):
        history = GlobalHistory()
        for _ in range(20):
            history.push(True)
        saved = history.snapshot()  # taken before any registers exist
        registers = self._attach(history)
        history.push(False)
        history.restore(saved)
        self._check(history, registers)

    @given(
        st.booleans(),
        st.lists(
            st.one_of(
                st.tuples(st.just("push"), st.booleans()),
                st.tuples(st.just("snapshot"), st.booleans()),
                st.tuples(st.just("restore"), st.integers(min_value=0, max_value=7)),
                st.tuples(st.just("activate"), st.integers(min_value=0, max_value=23)),
            ),
            min_size=1,
            max_size=120,
        ),
    )
    def test_random_squash_restore_sequences_match_reference(self, all_active, operations):
        """Property: any interleaving of pushes, snapshots, restores and
        register activations (in any order, before or after the snapshots a
        restore returns to) leaves every active register equal to recomputing
        fold_bits from the raw history bits, and every dormant one reading None.
        The live list ``_push`` walks holds exactly the active registers."""
        history = GlobalHistory()
        if all_active:
            files = self._attach(history)
        else:
            files = (
                history.folded_registers(self.TAGE_LENGTHS * 2, self.TAGE_WIDTHS),
                history.folded_registers(self.VTAGE_LENGTHS * 2, self.VTAGE_WIDTHS),
            )
        snapshots = [history.snapshot()]
        for action, argument in operations:
            if action == "push":
                history.push(argument)
            elif action == "snapshot":
                snapshots.append(history.snapshot())
            elif action == "restore":
                history.restore(snapshots[argument % len(snapshots)])
            else:
                for file in files:
                    file.activate(argument % len(file.lengths))
            for file in files:
                active = [index for index, params in enumerate(file._active) if params]
                assert sorted(entry[0] for entry in file._live) == active
                for index, (length, width) in enumerate(zip(file.lengths, file.widths)):
                    if index in active:
                        assert file.folds[index] == fold_bits(history.slice(length), length, width)
                    else:
                        assert file.folds[index] is None
