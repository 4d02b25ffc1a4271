"""Workloads: fio, YCSB, WiredTiger, BPF-KV, KVell, and a real KV store.

The package re-exports nothing: import each model by its full name
(``repro.apps.fio``, ``repro.apps.wiredtiger``, ...), so a run loads
only the models it drives.
"""
