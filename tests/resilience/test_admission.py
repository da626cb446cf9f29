"""DB-path admission: the virtual-clock model."""

import pytest

from repro.resilience import VirtualQueueAdmission

class TestVirtualQueueAdmission:
    def test_max_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            VirtualQueueAdmission(max_depth=0)

    def test_sheds_past_the_virtual_depth(self):
        admission = VirtualQueueAdmission(max_depth=2)
        assert admission.admit_db(now=0.0)
        admission.db_finished(completed=1.0)
        assert admission.admit_db(now=0.0)
        admission.db_finished(completed=2.0)
        # Two reads still outstanding on the virtual clock: refuse.
        assert not admission.admit_db(now=0.5)
        assert admission.depth(now=0.5) == 2.0

    def test_virtual_completions_free_slots(self):
        admission = VirtualQueueAdmission(max_depth=1)
        assert admission.admit_db(now=0.0)
        admission.db_finished(completed=1.0)
        assert not admission.admit_db(now=0.5)
        # The admitted read completed at t=1: the slot is free again.
        assert admission.admit_db(now=1.5)
        admission.db_finished(completed=2.5)
        assert admission.depth(now=3.0) == 0.0

    def test_depth_counts_admitted_but_unfinished_reads(self):
        # The batch case: every admission of one batch happens before the
        # first db_finished — the bound must hold within the batch too.
        admission = VirtualQueueAdmission(max_depth=2)
        assert admission.admit_db(now=0.0)
        assert admission.admit_db(now=0.0)
        assert not admission.admit_db(now=0.0)  # no completions reported yet
        assert admission.depth(now=0.0) == 2.0
        admission.db_finished(completed=1.0)
        admission.db_finished(completed=1.0)
        assert admission.depth(now=2.0) == 0.0

    def test_inert_without_a_virtual_clock(self):
        admission = VirtualQueueAdmission(max_depth=1)
        # A driver with no clock (now=None) gets zero behaviour change.
        assert admission.admit_db(now=None)
        assert admission.admit_db(now=None)
        assert admission.depth(now=0.0) == 0.0  # nothing was counted
