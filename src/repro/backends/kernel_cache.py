"""In-process memo of compiled specialized kernels.

Generated kernels are pure functions of the kernel spec, so each spec is
generated and compiled once per process and the module is reused by
every later run with an equal spec.
"""

from __future__ import annotations

import types
from typing import Dict

from repro.backends import codegen

__all__ = ["load_kernel_module"]

_memo: Dict[str, types.ModuleType] = {}


def load_kernel_module(spec: dict) -> types.ModuleType:
    """The compiled kernel module for ``spec`` (memo, else generate)."""
    spec_sha = codegen.spec_digest(spec)
    module = _memo.get(spec_sha)
    if module is None:
        name = f"repro_specialized_kernel_{spec_sha[:12]}"
        module = types.ModuleType(name)
        module.__file__ = f"<generated {name}>"
        source = codegen.generate_source(spec)
        exec(compile(source, module.__file__, "exec"), module.__dict__)
        _memo[spec_sha] = module
    return module
