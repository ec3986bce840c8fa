"""The repository's one benchmark: compile, simulate and serve.

``python3 -m bench.run --workload NAME --seed N --seconds S --trace 0|1``
runs one workload and prints one JSON result line; without
``--workload`` it runs all four and writes ``bench/out/results.json``.
See ``bench/README.md`` for the metric vocabulary.
"""
