"""Tests of the ``specialized`` kernel's machinery.

Bit identity of ``specialized`` against the naive reference lives in
``tests/test_kernel_equivalence.py``; this module covers the machinery
around it — kernel dispatch and its error shape, the kernel spec, and
the in-process memo of compiled kernels (a memo hit performs zero
codegen, and nothing is written to disk).
"""

from dataclasses import replace

import pytest

from repro.backends import codegen, kernel_cache
from repro.common.config import default_config
from repro.common.errors import SimulationError
from repro.core.engine import KERNEL_NAIVE, KERNEL_SPECIALIZED, VALID_KERNELS
from repro.experiments import IF_DISTR, IQ_64_64
from repro.experiments.runner import RunScale, simulate_pair

SCALE = RunScale(num_instructions=800, warmup_instructions=400, seed=5)

#: One change per kind of field the generated source bakes in.
BAKED_FIELD_CHANGES = {
    "int_queue_entries": lambda c: replace(c, scheme=replace(c.scheme, int_queue_entries=32)),
    "fp_queue_entries": lambda c: replace(c, scheme=replace(c.scheme, fp_queue_entries=32)),
    "unbounded": lambda c: replace(c, scheme=replace(c.scheme, unbounded=True)),
    "scheme_kind": lambda c: replace(c, scheme=IF_DISTR),
    "int_issue_width": lambda c: replace(c, int_issue_width=4),
    "commit_width": lambda c: replace(c, commit_width=4),
    "dcache_ports": lambda c: replace(c, dcache=replace(c.dcache, ports=2)),
    "fp_div_latency": lambda c: replace(c, fus=replace(c.fus, fp_div_latency=16)),
    "address_latency": lambda c: replace(c, fus=replace(c.fus, address_latency=2)),
}


def _code(spec):
    """Generated source past its docstring."""
    return codegen.generate_source(spec).split('"""', 2)[2]


def _gzip_processor():
    from repro.core.processor import Processor
    from repro.workloads.generator import generate_trace
    from repro.workloads.suites import get_profile

    trace = generate_trace(get_profile("gzip"), 600, seed=2)
    return Processor(default_config(IQ_64_64), trace)


class TestRegistry:
    def test_engine_dispatch_rejects_unknown_kernel(self):
        from repro.core import engine

        with pytest.raises(SimulationError, match="unknown simulation kernel"):
            engine.run_kernel(_gzip_processor(), "warp", 600, 10_000, 200)

    def test_dispatch_table_holds_exactly_the_valid_kernels(self):
        from repro.core import engine

        assert sorted(engine._KERNELS) == sorted(VALID_KERNELS)

    def test_removed_vectorized_kernel_is_rejected(self):
        from repro.core import engine

        assert "vectorized" not in VALID_KERNELS
        with pytest.raises(SimulationError, match="unknown simulation kernel"):
            engine.run_kernel(_gzip_processor(), "vectorized", 600, 10_000, 200)


class TestKernelSpec:
    def test_spec_digest_is_stable_and_geometry_sensitive(self):
        spec_a = codegen.kernel_spec(default_config(IQ_64_64))
        spec_b = codegen.kernel_spec(default_config(IQ_64_64))
        assert codegen.spec_digest(spec_a) == codegen.spec_digest(spec_b)
        other = codegen.kernel_spec(default_config(IF_DISTR))
        assert codegen.spec_digest(spec_a) != codegen.spec_digest(other)

    def test_queue_count_shares_one_kernel(self, monkeypatch):
        # The kernel walks the scheme's queue lists at run time, so
        # configurations that differ only in queue count run one compiled
        # module, and each stays bit-identical to the reference.
        monkeypatch.setattr(kernel_cache, "_memo", {})
        narrow = replace(IF_DISTR, int_queues=4, fp_queues=4)
        before = codegen.CODEGEN_RUNS
        modules, results = [], []
        for scheme in (IF_DISTR, narrow):
            spec = codegen.kernel_spec(default_config(scheme))
            modules.append(kernel_cache.load_kernel_module(spec))
            naive = simulate_pair("gzip", scheme, SCALE, kernel=KERNEL_NAIVE)[0]
            specialized = simulate_pair("gzip", scheme, SCALE, kernel=KERNEL_SPECIALIZED)[0]
            assert specialized.to_dict() == naive.to_dict()
            results.append(naive.to_dict())
        assert modules[0] is modules[1]
        assert codegen.CODEGEN_RUNS == before + 1
        assert results[0] != results[1]  # the queue count did change the run

    @pytest.mark.parametrize("change", sorted(BAKED_FIELD_CHANGES))
    def test_baked_field_changes_spec_and_source(self, change):
        base = default_config(IQ_64_64)
        changed = BAKED_FIELD_CHANGES[change](base)
        spec, other = codegen.kernel_spec(base), codegen.kernel_spec(changed)
        assert codegen.spec_digest(spec) != codegen.spec_digest(other)
        # Past the docstring, which quotes the spec, the code differs too.
        assert _code(spec) != _code(other)


class TestCodegenCache:
    def test_warm_run_performs_zero_codegen(self):
        spec = codegen.kernel_spec(default_config(IQ_64_64))
        first = kernel_cache.load_kernel_module(spec)
        after_cold = codegen.CODEGEN_RUNS
        assert kernel_cache.load_kernel_module(spec) is first
        assert codegen.CODEGEN_RUNS == after_cold
        assert callable(first.make_step)

    def test_each_spec_compiles_its_own_module_once(self, monkeypatch):
        monkeypatch.setattr(kernel_cache, "_memo", {})
        specs = [codegen.kernel_spec(default_config(s)) for s in (IQ_64_64, IF_DISTR)]
        before = codegen.CODEGEN_RUNS
        modules = [kernel_cache.load_kernel_module(spec) for spec in specs]
        assert codegen.CODEGEN_RUNS == before + 2
        assert modules[0] is not modules[1]
        for spec, module in zip(specs, modules):
            assert codegen.spec_digest(spec)[:12] in module.__name__
            assert kernel_cache.load_kernel_module(spec) is module
        assert codegen.CODEGEN_RUNS == before + 2

    def test_specialized_run_writes_no_files(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(kernel_cache, "_memo", {})  # force codegen
        stats = simulate_pair("gzip", IQ_64_64, SCALE, kernel=KERNEL_SPECIALIZED)[0]
        assert stats.committed_instructions > 0
        assert list(tmp_path.iterdir()) == []
