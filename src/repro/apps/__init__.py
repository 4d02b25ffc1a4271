"""Workloads: fio, YCSB, WiredTiger, BPF-KV, and KVell.

The package re-exports nothing: import each model by its full name
(``repro.apps.fio``, ``repro.apps.wiredtiger``, ...), so a run loads
only the models it drives.
"""
