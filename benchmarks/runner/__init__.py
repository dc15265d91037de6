"""The repo's one benchmark: five workloads, two clocks, per-layer attribution.

``python -m benchmarks.runner`` runs every workload (3 untraced repeats
plus 1 traced pass each, every repeat in a fresh subprocess) and prints
each metric by name with its unit.  ``python -m benchmarks.runner
--workload W --seed N --seconds S --trace 0|1`` is one run, the form
``BENCHMARK.json`` hands to the driver.  See ``README.md`` here.

Module map: :mod:`spec` fixes the workload sizes and metric names,
:mod:`gen` makes the inputs from the seed, :mod:`client` drives the
store on two ranks and measures, :mod:`tracing` (imported only by a
traced run) wraps the layers' public functions, :mod:`cli` is the
command.
"""
