"""Tests of the ``specialized`` kernel's machinery.

Bit identity of ``specialized`` against the naive reference lives in
``tests/test_kernel_equivalence.py``; this module covers the machinery
around it — kernel dispatch and its error shape, the kernel spec, and
the in-process memo of compiled kernels (a memo hit performs zero
codegen, and nothing is written to disk).
"""

import pytest

from repro.backends import codegen, kernel_cache
from repro.common.config import KERNEL_SPECIALIZED, VALID_KERNELS, default_config
from repro.common.errors import ConfigurationError, SimulationError
from repro.experiments import IF_DISTR, IQ_64_64
from repro.experiments.runner import RunScale, simulate_pair

SCALE = RunScale(num_instructions=800, warmup_instructions=400, seed=5)


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
        with pytest.raises(ConfigurationError):
            default_config(IQ_64_64).with_kernel("vectorized").validate()
        with pytest.raises(SimulationError, match="unknown simulation kernel"):
            engine.run_kernel(_gzip_processor(), "vectorized", 600, 10_000, 200)


class TestKernelSpec:
    def test_spec_digest_is_stable_and_geometry_sensitive(self):
        spec_a = codegen.kernel_spec(default_config(IQ_64_64))
        spec_b = codegen.kernel_spec(default_config(IQ_64_64))
        assert codegen.spec_digest(spec_a) == codegen.spec_digest(spec_b)
        other = codegen.kernel_spec(default_config(IF_DISTR))
        assert codegen.spec_digest(spec_a) != codegen.spec_digest(other)

    def test_every_campaign_config_gets_its_own_spec(self):
        # Each figure configuration must run its own generated kernel: two
        # configurations sharing a spec would share baked-in geometry.
        from repro.experiments.campaign import ALL_FIGURES
        from repro.experiments.figures import required_runs

        schemes = {scheme for __, scheme in required_runs(ALL_FIGURES)}
        digests = {
            codegen.spec_digest(codegen.kernel_spec(default_config(scheme)))
            for scheme in schemes
        }
        assert len(digests) == len(schemes)

    def test_kernel_excluded_from_spec(self):
        # The knob selects the execution strategy; it must not fork the
        # generated kernel's identity.
        base = default_config(IQ_64_64)
        assert codegen.kernel_spec(base) == codegen.kernel_spec(
            base.with_kernel(KERNEL_SPECIALIZED)
        )


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
