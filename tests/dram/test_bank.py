"""Bank command engine: sessions, CoMRA/SiMRA detection, PuD semantics."""

import numpy as np
import pytest

from repro.dram import make_module
from repro.dram.errors import TimingError


@pytest.fixture()
def bank(hynix_module):
    return hynix_module.banks[0]


def _fill(bank, row, byte, t=0.0):
    bank.backdoor_write(row, np.full(bank.geometry.row_bytes, byte, np.uint8), t)


class TestBasicCommands:
    def test_act_rd_pre_roundtrip(self, bank):
        _fill(bank, 10, 0x5A)
        data = bank.read_row_direct(10, 100.0)
        assert (data == 0x5A).all()

    def test_wr_changes_open_row(self, bank):
        bank.act(10, 0.0)
        bank.wr(10, np.full(bank.geometry.row_bytes, 0x77, np.uint8), 15.0)
        data = bank.rd(10, 20.0)
        bank.pre(36.0)
        assert (data == 0x77).all()

    def test_rd_without_open_row_raises(self, bank):
        with pytest.raises(TimingError):
            bank.rd(10, 0.0)

    def test_wr_wrong_row_raises(self, bank):
        bank.act(10, 0.0)
        with pytest.raises(TimingError):
            bank.wr(11, np.zeros(bank.geometry.row_bytes, np.uint8), 15.0)

    def test_strict_act_on_open_bank_raises(self, bank):
        bank.act(10, 0.0)
        with pytest.raises(TimingError):
            bank.act(11, 50.0)

    def test_ref_with_open_row_raises(self, bank):
        bank.act(10, 0.0)
        with pytest.raises(TimingError):
            bank.ref(50.0)

    def test_stats_accumulate(self, bank):
        bank.read_row_direct(5, 0.0)
        assert bank.stats["acts"] == 1
        assert bank.stats["reads"] == 1
        assert bank.stats["pres"] == 1


class TestComraDetection:
    def test_copy_happens_in_window(self, bank):
        _fill(bank, 20, 0xAB, 0.0)
        _fill(bank, 25, 0x00, 0.0)
        t = 100.0
        bank.act(20, t)
        bank.pre(t + 36.0)
        bank.act(25, t + 36.0 + 7.5)  # violated tRP
        bank.pre(t + 36.0 + 7.5 + 36.0)
        bank.flush(t + 200.0)
        assert (bank.backdoor_read(25) == 0xAB).all()
        assert bank.stats["comra_copies"] == 1

    def test_no_copy_at_nominal_trp(self, bank):
        _fill(bank, 20, 0xAB, 0.0)
        _fill(bank, 25, 0x00, 0.0)
        t = 100.0
        bank.act(20, t)
        bank.pre(t + 36.0)
        bank.act(25, t + 36.0 + 13.5)  # nominal
        bank.pre(t + 36.0 + 13.5 + 36.0)
        bank.flush(t + 300.0)
        assert (bank.backdoor_read(25) == 0x00).all()

    def test_no_copy_across_subarrays(self, bank):
        src = 20
        dst = 96 + 20  # next subarray
        _fill(bank, src, 0xAB, 0.0)
        _fill(bank, dst, 0x11, 0.0)
        t = 100.0
        bank.act(src, t)
        bank.pre(t + 36.0)
        bank.act(dst, t + 36.0 + 7.5)
        bank.pre(t + 36.0 + 7.5 + 36.0)
        bank.flush(t + 300.0)
        assert (bank.backdoor_read(dst) == 0x11).all()

    def test_copy_needs_sensed_source(self, bank):
        # source closed after only 3 ns: bitlines never carried its data
        _fill(bank, 20, 0xAB, 0.0)
        _fill(bank, 25, 0x11, 0.0)
        t = 100.0
        bank.act(20, t)
        bank.pre(t + 3.0)
        bank.act(25, t + 3.0 + 7.5)
        bank.pre(t + 3.0 + 7.5 + 36.0)
        bank.flush(t + 300.0)
        assert (bank.backdoor_read(25) == 0x11).all()


class TestSimra:
    def test_group_from_differing_bits(self, bank):
        assert bank.simra_group(0, 1) == (0, 1)
        assert bank.simra_group(0, 6) == (0, 2, 4, 6)
        assert bank.simra_group(0, 31) == tuple(range(32))

    def test_group_requires_same_block(self, bank):
        assert bank.simra_group(0, 33) is None

    def test_group_requires_same_subarray(self, hynix_module):
        module = make_module("hynix-a-8gb", rows_per_subarray=32)
        assert module.banks[0].simra_group(30, 33) is None

    def test_charge_sharing_majority(self, bank):
        # 3 of 4 rows hold ones -> majority is ones everywhere
        for row, byte in zip((0, 2, 4, 6), (0xFF, 0xFF, 0xFF, 0x00)):
            _fill(bank, row, byte, 0.0)
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        bank.pre(t + 42.0)
        bank.flush(t + 200.0)
        for row in (0, 2, 4, 6):
            assert (bank.backdoor_read(row) == 0xFF).all()
        assert bank.stats["simra_ops"] == 1

    def test_wr_broadcasts_to_group(self, bank):
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        marker = np.full(bank.geometry.row_bytes, 0x3D, np.uint8)
        bank.wr(6, marker, t + 20.0)
        bank.pre(t + 60.0)
        bank.flush(t + 200.0)
        for row in (0, 2, 4, 6):
            assert (bank.backdoor_read(row) == 0x3D).all()

    def test_simra_ignored_without_vendor_support(self, samsung_module):
        bank = samsung_module.banks[0]
        for row in (0, 2, 4, 6):
            bank.backdoor_write(row, np.full(bank.geometry.row_bytes, 0x0F, np.uint8))
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        bank.pre(t + 42.0)
        bank.flush(t + 300.0)
        assert bank.stats["simra_ops"] == 0
        assert (bank.backdoor_read(2) == 0x0F).all()


class TestSenseGroup:
    """``_sense_group``'s identity shortcut and the full sensing paths."""

    GROUP = (0, 2, 4, 6)

    @staticmethod
    def _state(bank, rows):
        return (
            {row: bank.backdoor_read(row).tobytes() for row in rows},
            {row: bank._data_version.get(row, 0) for row in rows},
            set(bank._frac),
            bank._tie_counter,
        )

    @pytest.mark.parametrize("copy_src", (None, 0))
    def test_identical_rows_are_left_untouched(self, bank, copy_src):
        for row in self.GROUP:
            _fill(bank, row, 0x5A)
        before = self._state(bank, self.GROUP)
        bank._sense_group(self.GROUP, frozenset(), copy_src)
        assert self._state(bank, self.GROUP) == before

    def test_row_write_between_sensings_is_sensed(self, bank):
        """A write after an identity verdict makes the next sensing
        compare bytes again, not repeat the verdict."""
        for row in self.GROUP:
            _fill(bank, row, 0xFF)
        bank._sense_group(self.GROUP, frozenset(), None)  # identity verdict
        _fill(bank, 6, 0x0F)
        bank._sense_group(self.GROUP, frozenset(), None)
        # three ones rows outvote row 6: it latches the majority
        for row in self.GROUP:
            assert (bank.backdoor_read(row) == 0xFF).all()

    def test_fractional_row_takes_the_full_maj(self, bank):
        for row in self.GROUP:
            _fill(bank, row, 0xFF)
        bank._frac.add(2)
        versions = {row: bank._data_version[row] for row in self.GROUP}
        bank._sense_group(self.GROUP, frozenset(), None)
        # 3 full ones + half a charge: still a ones majority everywhere
        for row in self.GROUP:
            assert (bank.backdoor_read(row) == 0xFF).all()
            assert bank._data_version[row] == versions[row] + 1
        assert 2 not in bank._frac

    def test_differing_rows_take_the_full_maj(self, bank):
        for row, byte in zip(self.GROUP, (0xFF, 0xFF, 0xFF, 0x0F)):
            _fill(bank, row, byte)
        ties = bank._tie_counter
        bank._sense_group(self.GROUP, frozenset(), None)
        for row in self.GROUP:
            assert (bank.backdoor_read(row) == 0xFF).all()
        assert bank._tie_counter == ties

    def test_partial_rows_sit_out_the_maj(self, bank):
        for row, byte in zip(self.GROUP, (0xFF, 0xFF, 0x00, 0x00)):
            _fill(bank, row, byte)
        bank._sense_group(self.GROUP, frozenset({4}), None)
        # rows 0, 2, 6 vote ones; partial row 4 keeps its bytes
        for row in (0, 2, 6):
            assert (bank.backdoor_read(row) == 0xFF).all()
        assert (bank.backdoor_read(4) == 0x00).all()

    def test_partial_row_does_not_block_the_shortcut(self, bank):
        for row, byte in zip(self.GROUP, (0x33, 0x33, 0xCC, 0x33)):
            _fill(bank, row, byte)
        before = self._state(bank, self.GROUP)
        bank._sense_group(self.GROUP, frozenset({4}), None)
        assert self._state(bank, self.GROUP) == before

    def test_differing_copy_latches_the_source(self, bank):
        for row, byte in zip(self.GROUP, (0x3C, 0x00, 0x00, 0x3C)):
            _fill(bank, row, byte)
        bank._sense_group(self.GROUP, frozenset(), 0)
        for row in self.GROUP:
            assert (bank.backdoor_read(row) == 0x3C).all()

    def test_even_split_consumes_exactly_one_tie(self, bank):
        for row, byte in zip(self.GROUP, (0xFF, 0x00, 0xFF, 0x00)):
            _fill(bank, row, byte)
        ties = bank._tie_counter
        bank._sense_group(self.GROUP, frozenset(), None)
        assert bank._tie_counter == ties + 1
        # every bitline tied, so all rows latch the same noise bits
        images = {bank.backdoor_read(row).tobytes() for row in self.GROUP}
        assert len(images) == 1

    def test_simra_open_taps_sense_after_the_touches(self, bank):
        taps = []
        bank.probe_tap = taps.append
        t = 100.0
        bank.act(0, t)
        bank.pre(t + 3.0)
        bank.act(6, t + 6.0)
        bank.probe_tap = None
        kinds = [tap[0] for tap in taps]
        assert kinds == ["touch"] * 5 + ["sense"]
        assert [tap[1] for tap in taps[1:5]] == list(self.GROUP)
        assert taps[-1] == ("sense", self.GROUP, frozenset(), None, 3.0)


class TestFracAndMultiCopy:
    def test_frac_window_marks_row(self, bank):
        _fill(bank, 12, 0xFF, 0.0)
        bank.act(12, 100.0)
        bank.pre(110.5)  # inside the 7..16 ns frac window
        bank.flush(300.0)
        assert 12 in bank._frac

    def test_nominal_close_does_not_mark(self, bank):
        _fill(bank, 12, 0xFF, 0.0)
        bank.act(12, 100.0)
        bank.pre(136.0)
        bank.flush(300.0)
        assert 12 not in bank._frac

    def test_multi_copy_latches_source(self, bank):
        data = np.arange(bank.geometry.row_bytes, dtype=np.uint8)
        bank.backdoor_write(32, data, 0.0)
        t = 100.0
        bank.act(32, t)
        bank.pre(t + 36.0)       # fully sensed source
        bank.act(39, t + 39.0)   # SiMRA trigger into the 8-row group
        bank.pre(t + 80.0)
        bank.flush(t + 300.0)
        for row in range(32, 40):
            assert np.array_equal(bank.backdoor_read(row), data)


class TestRefresh:
    def test_rotor_covers_all_rows(self, hynix_module):
        module = make_module("hynix-a-8gb", rows_per_subarray=32,
                             subarrays_per_bank=2)
        bank = module.banks[0]
        refs_per_window = round(module.timing.tREFW / module.timing.tREFI)
        t = 0.0
        for _ in range(refs_per_window):
            t += module.timing.tREFI
            bank.ref(t)
        assert bank._refresh_cursor >= module.geometry.rows_per_bank
