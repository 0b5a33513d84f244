"""The repository benchmark: end-to-end and per-layer cost of the protocol.

Three workloads (``write-soak``, ``rolling-recovery``,
``snapshot-read-mix``) drive a 4-site ROWAA system through the public
harness API, gate every run on correctness, and report host-time and
sim-time metrics. ``python3 perfbench/run.py --help`` shows the command
line; :mod:`perfbench.workloads` says why each workload exists.
"""
