"""End-to-end and per-layer benchmark of `spc run`.

Run it from the repository root as ``python3 perfbench/run.py``; see
``perfbench/run.py`` for the arguments and the metrics it prints.
"""
