"""Wall-clock benchmark of the reproduction, end to end and per layer.

Run one workload from the repository root::

    python3 perfbench/run.py --workload predict --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats the
run with benchmark-side spans around every call into a layer and prints
the per-layer metrics instead.  See :mod:`perfbench.workloads` for what
each workload measures and why it was chosen.
"""
