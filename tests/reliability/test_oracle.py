"""Corruption oracle: classification, count-once semantics, ECC decode."""

import numpy as np
import pytest

from repro.disturbance.calibration import DataPattern, Mechanism
from repro.dram import make_module
from repro.core.metrics import count_flips
from repro.reliability import CorruptionOracle, Kernel, sec_correct


def _flip_bits(data, n):
    """Return a copy of ``data`` with the ``n`` lowest bits of byte 0.. flipped."""
    out = data.copy()
    for i in range(n):
        out[i // 8] ^= 1 << (i % 8)
    return out


@pytest.fixture()
def oracle_env():
    module = make_module("hynix-a-8gb")
    bank = module.banks[0]
    oracle = CorruptionOracle(module)
    nbytes = module.geometry.row_bytes
    return module, bank, oracle, nbytes


def _kernel(**overrides):
    base = dict(
        name="inject",
        mechanism=Mechanism.COMRA,
        pattern=DataPattern.CHECKER_AA,
        ops=100,
    )
    base.update(overrides)
    return Kernel(**base)


class TestInjectedClassification:
    def test_exact_category_counts(self, oracle_env):
        """Known flips land in exactly the declared category, bit for bit."""
        module, bank, oracle, nbytes = oracle_env
        operand = DataPattern.CHECKER_AA.fill(nbytes)
        bystander = DataPattern.CHECKER_55.fill(nbytes)
        ideal_result = DataPattern.ALL_ONES.fill(nbytes)

        oracle.note_write(10, operand)
        oracle.note_write(30, bystander)
        bank.backdoor_write(10, _flip_bits(operand, 3))
        bank.backdoor_write(20, _flip_bits(ideal_result, 2))
        bank.backdoor_write(30, _flip_bits(bystander, 5))
        bank.backdoor_write(40, np.zeros(nbytes, np.uint8))

        kernel = _kernel(
            operand_rows=frozenset({10}),
            result_rows=frozenset({20}),
            entropy_rows=frozenset({40}),
        )
        report = oracle.checkpoint(kernel, {20: ideal_result}, now_ns=0.0)

        assert report.operand_bits == 3
        assert report.result_bits == 2
        assert report.bystander_bits == 5
        assert report.silent_bits == 10
        assert report.corrupt_rows == {10: 3, 20: 2, 30: 5}
        # entropy rows are exempt but resynced into the shadow
        assert 40 in oracle.shadow
        totals = oracle.totals[(Mechanism.COMRA, DataPattern.CHECKER_AA)]
        assert totals.silent_bits == 10 and totals.ops == 100

    def test_each_bit_counted_once(self, oracle_env):
        """After resync, a second checkpoint sees no new corruption."""
        module, bank, oracle, nbytes = oracle_env
        data = DataPattern.ALL_ZEROS.fill(nbytes)
        oracle.note_write(10, data)
        bank.backdoor_write(10, _flip_bits(data, 4))

        first = oracle.checkpoint(_kernel(), {}, now_ns=0.0)
        assert first.bystander_bits == 4
        second = oracle.checkpoint(_kernel(name="again"), {}, now_ns=0.0)
        assert second.silent_bits == 0

    def test_unwritten_result_row_adopted_not_judged(self, oracle_env):
        """A produced row with no predictable ideal joins the shadow silently."""
        module, bank, oracle, nbytes = oracle_env
        bank.backdoor_write(20, np.full(nbytes, 0x3C, np.uint8))
        kernel = _kernel(result_rows=frozenset({20}))
        report = oracle.checkpoint(kernel, {}, now_ns=0.0)
        assert report.silent_bits == 0
        assert count_flips(oracle.shadow[20], bank.backdoor_read(20)) == 0

    def test_corrector_scrubs_single_bit_results(self, oracle_env):
        """A SEC corrector repairs 1-bit words before classification."""
        module, bank, oracle, nbytes = oracle_env
        ideal = DataPattern.ALL_ZEROS.fill(nbytes)
        bank.backdoor_write(20, _flip_bits(ideal, 1))
        kernel = _kernel(result_rows=frozenset({20}))
        report = oracle.checkpoint(kernel, {20: ideal}, 0.0, sec_correct)
        assert report.result_bits == 0
        assert report.corrected_words == 1
        assert report.miscorrected_words == 0


class TestSecCorrect:
    def test_single_bit_per_word_corrected(self):
        expected = np.zeros(32, np.uint8)  # two 128-bit words
        actual = expected.copy()
        actual[0] ^= 0x01
        actual[16] ^= 0x80
        out, corrected, miscorrected = sec_correct(expected, actual)
        assert corrected == 2 and miscorrected == 0
        assert count_flips(expected, out) == 0

    def test_multi_bit_word_miscorrects(self):
        expected = np.zeros(16, np.uint8)  # one 128-bit word
        actual = expected.copy()
        actual[0] ^= 0x03  # two flips in one word
        out, corrected, miscorrected = sec_correct(expected, actual)
        assert corrected == 0 and miscorrected == 1
        # SEC flipped a third, previously-clean bit: damage grew
        assert count_flips(expected, out) == 3

    def test_clean_input_untouched(self):
        expected = np.arange(32, dtype=np.uint8)
        out, corrected, miscorrected = sec_correct(expected, expected.copy())
        assert corrected == 0 and miscorrected == 0
        assert count_flips(expected, out) == 0
