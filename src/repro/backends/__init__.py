"""The ``specialized`` simulation kernel's code generator and memo.

``specialized`` is a per-configuration generated Python kernel with
geometry, widths, latencies and scheme dispatch baked in as literals
(:mod:`repro.backends.codegen`), compiled once per process
(:mod:`repro.backends.kernel_cache`). :func:`repro.core.engine.run_kernel`
dispatches to it beside the built-in ``naive``/``skip`` loops; the
contract every kernel keeps is documented on that dispatch table.
"""
