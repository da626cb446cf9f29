"""DB-path admission: the virtual-clock model."""

import pytest

from repro.resilience import VirtualQueueAdmission


def depth(admission, now):
    """Outstanding admitted reads at *now*: reported completions still in
    the future, plus admitted reads not yet reported."""
    return sum(1 for done in admission._completions if done > now) + (
        admission._pending
    )


class TestVirtualQueueAdmission:
    def test_max_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            VirtualQueueAdmission(max_depth=0)

    def test_sheds_past_the_virtual_depth(self):
        admission = VirtualQueueAdmission(max_depth=2)
        assert admission.admit_db(now=0.0)
        admission.db_finished(1.0)
        assert admission.admit_db(now=0.0)
        admission.db_finished(2.0)
        # Two reads still outstanding on the virtual clock: refuse.
        assert not admission.admit_db(now=0.5)
        assert depth(admission, 0.5) == 2.0

    def test_virtual_completions_free_slots(self):
        admission = VirtualQueueAdmission(max_depth=1)
        assert admission.admit_db(now=0.0)
        admission.db_finished(1.0)
        assert not admission.admit_db(now=0.5)
        # The admitted read completed at t=1: the slot is free again.
        assert admission.admit_db(now=1.5)
        admission.db_finished(2.5)
        assert depth(admission, 3.0) == 0.0

    def test_depth_counts_admitted_but_unfinished_reads(self):
        # The batch case: every admission of one batch happens before the
        # first db_finished — the bound must hold within the batch too.
        admission = VirtualQueueAdmission(max_depth=2)
        assert admission.admit_db(now=0.0)
        assert admission.admit_db(now=0.0)
        assert not admission.admit_db(now=0.0)  # no completions reported yet
        assert depth(admission, 0.0) == 2.0
        admission.db_finished(1.0)
        admission.db_finished(1.0)
        assert depth(admission, 2.0) == 0.0
