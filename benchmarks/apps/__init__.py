"""The two applications the paper evaluates PaPar on (Section IV).

``apps.blast`` is muBLASTP's database partitioning and ``apps.graph`` is
PowerLyra's graph partitioning: the inputs, the reference partitioners and
the analytic models the figure benchmarks measure PaPar against.  The
product (``src/repro``) never imports them; the benchmarks, the examples,
``tools/startup_budget.py`` and the tests load them by path
(``sys.path.insert(0, <repo>/benchmarks)``).
"""
