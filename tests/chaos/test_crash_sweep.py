"""Crash the write-behind client at every event of a short script.

The sweep and its residue rule are those of ``test_sync_crash_sweep.py``
for both write modes; this runs its write-behind script (a mkdir, three
creates, an unlink and a flush), the coherent cache off and on.
"""

from tests.chaos.test_sync_crash_sweep import sweep


def test_a_client_crash_at_any_event_leaves_the_audit_clean():
    sweep("written-behind", cache=False)


def test_a_cached_client_crash_at_any_event_leaves_the_audit_clean():
    """The drain's primes of the creates it landed are crash points too."""
    sweep("written-behind", cache=True)
