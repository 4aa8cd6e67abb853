"""Per-configuration kernel generation for the ``specialized`` backend.

:func:`generate_source` emits a Python module specialized to one
:class:`~repro.common.config.ProcessorConfig`: geometry constants,
issue/commit widths, D-cache port count and every functional-unit
latency are baked in as literals, the issue-scheme dispatch is resolved
at generation time (only the configured scheme's selection code is
emitted — dead branches folded), and the per-cycle hot path is flattened
into one ``_step`` closure: the ``IssueContext`` call tower, the
per-operand scoreboard accessors, ``_schedule_completion`` and the
``StatCounters.add`` layer are all inlined into direct list/dict
operations. CPython call overhead dominates the interpreted detailed
path, so the flattening — not algorithmic change — is the speedup.

The generated module exposes ``make_step(processor)`` returning that
``_step(cycle) -> (active, retired)`` closure, a drop-in for
``Processor.step``. :func:`repro.core.engine.run_specialized` hands it
to the one event-driven skipping loop,
:func:`repro.core.engine.run_skipping` (quiescence proof,
measured-delta interval accounting, fault hooks), so a specialized run is bit-identical to ``naive``/``skip`` by
the same construction the skip kernel relies on.

Inlining ground rules (the bit-identity contract):

* every inlined counter add mirrors ``StatCounters.add``'s zero-skip
  (``if amount:``) so the event dict never grows zero-valued keys;
* every scoreboard write bumps ``_version`` exactly once (the
  conventional scheme's ready-bound cache keys on it);
* ``_scan_shortcircuit`` is read from the scheme at *run* time — the
  equivalence tests toggle it;
* anything stateful that is not hot stays a call: placement heuristics
  (``scheme.try_dispatch``), rename, commit, fetch, LSQ bookkeeping,
  the MixBUFF FP selector (which gets a real ``IssueContext``).

Compiled kernels are memoized per process by
:mod:`repro.backends.kernel_cache`.
"""

from __future__ import annotations

import hashlib
import json

from repro.common.config import (
    SCHEME_CONVENTIONAL,
    SCHEME_ISSUEFIFO,
    SCHEME_LATFIFO,
    SCHEME_MIXBUFF,
    ProcessorConfig,
)
from repro.isa.opcodes import FuType, OpClass, fu_type_for, is_pipelined, latency_for

__all__ = [
    "CODEGEN_RUNS",
    "kernel_spec",
    "spec_digest",
    "generate_source",
]

#: Number of times a kernel source was actually generated in this
#: process. The kernel-memo tests pin "a memo hit performs zero codegen"
#: against this counter.
CODEGEN_RUNS = 0

_FU_SLOT = {
    FuType.INT_ALU: 0,
    FuType.INT_MULDIV: 1,
    FuType.FP_ALU: 2,
    FuType.FP_MULDIV: 3,
}

_MUX_EVENT = {
    FuType.INT_ALU: "mux_int_alu",
    FuType.INT_MULDIV: "mux_int_mul",
    FuType.FP_ALU: "mux_fp_alu",
    FuType.FP_MULDIV: "mux_fp_mul",
}


def kernel_spec(config: ProcessorConfig) -> dict:
    """The subset of the config the generated source depends on.

    Two configs with equal specs compile to byte-identical kernels, so
    e.g. all benchmarks of one figure share one compiled kernel per
    scheme. Anything that cannot change the emitted source (cache
    geometry, branch predictor, register-file sizes) stays out.
    """
    scheme = config.scheme
    fus = config.fus
    return {
        "v": 1,
        "scheme_kind": scheme.kind,
        "int_queues": scheme.int_queues,
        "int_queue_entries": scheme.int_queue_entries,
        "fp_queues": scheme.fp_queues,
        "fp_queue_entries": scheme.fp_queue_entries,
        "unbounded": bool(scheme.unbounded),
        "distributed": bool(scheme.distributed_fus),
        "max_chains": scheme.max_chains_per_queue,
        "decode_width": config.decode_width,
        "commit_width": config.commit_width,
        "int_issue_width": config.int_issue_width,
        "fp_issue_width": config.fp_issue_width,
        "dcache_ports": config.dcache.ports,
        "rob_entries": config.rob_entries,
        "address_latency": fus.address_latency,
        "latencies": {op.name: latency_for(op, fus) for op in OpClass},
    }


def spec_digest(spec: dict) -> str:
    """Content address of one kernel spec."""
    return hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _indent(block: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line if line.strip() else "" for line in block.splitlines())


def _opinfo_literal(spec: dict) -> str:
    """``_OPINFO`` dict literal: per-op static facts with baked latencies.

    Tuple layout (unpacked in the hot loops):
    ``(is_fp, is_memory, is_load, is_store, is_branch, latency,
    mux_event, pipelined, fu_slot)``.
    """
    lines = ["_OPINFO = {"]
    for op in OpClass:
        fu = fu_type_for(op)
        lines.append(
            f"    OpClass.{op.name}: ({op.is_fp}, {op.is_memory}, {op.is_load}, "
            f"{op.is_store}, {op.is_branch}, {spec['latencies'][op.name]}, "
            f"{_MUX_EVENT[fu]!r}, {is_pipelined(op)}, {_FU_SLOT[fu]}),"
        )
    lines.append("}")
    return "\n".join(lines)


def _fu_alloc_block(spec: dict, queue_var: str) -> str:
    """FU reservation, specialized pooled vs distributed; fails with
    ``continue`` (mirrors a failed ``try_allocate`` — no side effects)."""
    if spec["distributed"]:
        return f"""\
if fus == 0:
    unit = _fu_int_alu[{queue_var}]
elif fus == 1:
    unit = _fu_int_muldiv[{queue_var} // 2]
elif fus == 2:
    unit = _fu_fp_alu[{queue_var} // 2]
else:
    unit = _fu_fp_muldiv[{queue_var} // 2]
if not (cycle > unit.busy_until and cycle > unit.last_issue_cycle):
    continue
unit.last_issue_cycle = cycle
if not pip:
    unit.busy_until = cycle + lat - 1"""
    return """\
allocated = False
for unit in _units[fus]:
    if cycle > unit.busy_until and cycle > unit.last_issue_cycle:
        unit.last_issue_cycle = cycle
        if not pip:
            unit.busy_until = cycle + lat - 1
        allocated = True
        break
if not allocated:
    continue"""


def _completion_block(spec: dict, fp_only: bool) -> str:
    """Inlined ``Processor._schedule_completion`` for the issued ``head``."""
    if fp_only:
        # FP-side ops are never memory or branches (OpClass.is_fp).
        return """\
complete = cycle + lat
head.complete_cycle = complete
_ev[mux] = _ev.get(mux, 0) + 1
dp = head.dest_phys
if dp is not None:
    fp_, ix = dp
    (sb_fp if fp_ else sb_int)[ix] = complete
    sb._version += 1
    bc_wheel[complete] = bc_wheel.get(complete, 0) + 1"""
    return f"""\
if is_ld:
    start, fwd = lsq.load_access_constraints(head, cycle + {spec['address_latency']})
    if fwd is not None:
        _sp = fwd.src_phys
        if _sp:
            fp_, ix = _sp[0]
            data_ready = (sb_fp if fp_ else sb_int)[ix]
        else:
            data_ready = start
        complete = (start if start >= data_ready else data_ready) + 1
    else:
        complete = start + hierarchy.data_access_latency(inst.mem_addr)
elif is_st:
    complete = cycle + {spec['address_latency']}
    lsq.store_issued(head, complete)
else:
    complete = cycle + lat
head.complete_cycle = complete
_ev[mux] = _ev.get(mux, 0) + 1
dp = head.dest_phys
if dp is not None:
    fp_, ix = dp
    (sb_fp if fp_ else sb_int)[ix] = complete
    sb._version += 1
    bc_wheel[complete] = bc_wheel.get(complete, 0) + 1
if is_br:
    if complete in br_res:
        br_res[complete].append(head)
    else:
        br_res[complete] = [head]"""


def _fifo_heads_block(spec: dict, queues_var: str, fp_side: bool) -> str:
    """One FIFO side's ``issue_heads``, fully inlined.

    Budget early-break and the operand pregate skip only ``ctx.issue``
    calls that provably fail with zero side effects, so the issued set,
    queue state and every counter match the interpreted side exactly.
    """
    budget = "fp_b" if fp_side else "int_b"
    queue_arg = "_qi" if spec["distributed"] else "None"  # noqa: F841 (doc)
    fu_alloc = _indent(_fu_alloc_block(spec, "_qi"), 8)
    if fp_side:
        unpack = "__, __, __, __, __, lat, mux, pip, fus = _opinfo[inst.op]"
        gates = """\
        ready = True
        for fp_, ix in head.src_phys:
            if (sb_fp if fp_ else sb_int)[ix] > cycle:
                ready = False
                break
        if not ready:
            continue"""
        budget_spend = f"        {budget} -= 1"
    else:
        unpack = "is_fp_, is_mem, is_ld, is_st, is_br, lat, mux, pip, fus = _opinfo[inst.op]"
        gates = """\
        if is_mem and mem_b <= 0:
            continue
        srcs = head.src_phys
        if is_st and len(srcs) > 1:
            srcs = srcs[1:]
        ready = True
        for fp_, ix in srcs:
            if (sb_fp if fp_ else sb_int)[ix] > cycle:
                ready = False
                break
        if not ready:
            continue
        if is_ld and (
            not lsq.can_issue_load(inst.seq)
            or lsq.load_blocked_on_store_data(head, sb)
        ):
            continue"""
        budget_spend = f"""\
        {budget} -= 1
        if is_mem:
            mem_b -= 1"""
    completion = _indent(_completion_block(spec, fp_side), 8)
    return f"""\
heads = []
total_reads = 0
for _qi, _q in enumerate({queues_var}):
    if _q:
        heads.append((_q[0].age, _qi))
        total_reads += len(_q[0].src_phys)
if heads:
    if total_reads:
        _ev["regs_ready_read"] = _ev.get("regs_ready_read", 0) + total_reads
    heads.sort()
    for __, _qi in heads:
        if {budget} <= 0:
            break
        _q = {queues_var}[_qi]
        head = _q[0]
        inst = head.inst
        {unpack}
{gates}
{fu_alloc}
{budget_spend}
        head.issue_cycle = cycle
{completion}
        _q.popleft()
        _ev["fifo_read"] = _ev.get("fifo_read", 0) + 1
        issued_n += 1"""


def _conventional_side_block(spec: dict, side: int) -> str:
    """One side of the CAM/RAM baseline: ready-bound scan + selection."""
    queue_var = "cq_fp" if side else "cq_int"
    budget = "fp_b" if side else "int_b"
    fp_side = bool(side)
    fu_alloc = _indent(_fu_alloc_block(spec, "None"), 12)
    completion = _indent(_completion_block(spec, fp_side), 12)
    if fp_side:
        unpack = "__, __, __, __, __, lat, mux, pip, fus = _opinfo[inst.op]"
        gates = """\
            ready = True
            for fp_, ix in head.src_phys:
                if (sb_fp if fp_ else sb_int)[ix] > cycle:
                    ready = False
                    break
            if not ready:
                continue"""
        budget_spend = f"            {budget} -= 1"
    else:
        unpack = "is_fp_, is_mem, is_ld, is_st, is_br, lat, mux, pip, fus = _opinfo[inst.op]"
        gates = """\
            if is_mem and mem_b <= 0:
                continue
            srcs = head.src_phys
            if is_st and len(srcs) > 1:
                srcs = srcs[1:]
            ready = True
            for fp_, ix in srcs:
                if (sb_fp if fp_ else sb_int)[ix] > cycle:
                    ready = False
                    break
            if not ready:
                continue
            if is_ld and (
                not lsq.can_issue_load(inst.seq)
                or lsq.load_blocked_on_store_data(head, sb)
            ):
                continue"""
        budget_spend = f"""\
            {budget} -= 1
            if is_mem:
                mem_b -= 1"""
    return f"""\
queue = {queue_var}
if queue:
    _ev["iq_select_cycles"] = _ev.get("iq_select_cycles", 0) + 1
    scan = True
    if scheme._scan_shortcircuit:
        cached = cq_bound[{side}]
        version = sb._version
        rev = cq_rev[{side}]
        if cached is not None and cached[0] == version and cached[1] == rev:
            bound = cached[2]
        else:
            bound = _NEVER
            for uop in queue:
                srcs = uop.src_phys
                if _opinfo[uop.inst.op][3] and len(srcs) > 1:
                    srcs = srcs[1:]
                latest = 0
                for fp_, ix in srcs:
                    r = (sb_fp if fp_ else sb_int)[ix]
                    if r > latest:
                        latest = r
                if latest < bound:
                    bound = latest
                    if bound == 0:
                        break
            cq_bound[{side}] = (version, rev, bound)
        if bound > cycle:
            scan = False
    if scan:
        taken = []
        for _i, head in enumerate(queue):
            if {budget} <= 0:
                break
            inst = head.inst
            {unpack}
{gates}
{fu_alloc}
{budget_spend}
            head.issue_cycle = cycle
{completion}
            taken.append(_i)
            issued_n += 1
        if taken:
            for _i in reversed(taken):
                queue.pop(_i)
            cq_rev[{side}] += 1
            _ev["iq_buff_read"] = _ev.get("iq_buff_read", 0) + len(taken)"""


def _fifo_choose_code(queues_var: str, map_var: str, tail_var: str,
                      side_var: str, cap: int) -> str:
    """Inlined ``FifoSide._choose_queue``: sets ``qi`` (None on stall).

    Replicates the three placement heuristics including their event and
    stall-counter side effects (the rule counters live on the side object
    because the skip kernel's idle accounting reads them there).
    """
    return f"""\
qi = None
srcs_a = inst.srcs
first = None
if srcs_a:
    _ev["qrename_read"] = _ev.get("qrename_read", 0) + 1
    _k = (srcs_a[0].is_fp, srcs_a[0].index)
    _q = {map_var}.get(_k)
    if _q is not None and {tail_var}.get(_q) == _k:
        first = _q
if first is not None and len({queues_var}[first]) < {cap}:
    qi = first
elif first is not None and len(srcs_a) == 1:
    {side_var}.stalls_rule1_full += 1
else:
    second = None
    if len(srcs_a) > 1:
        _ev["qrename_read"] = _ev.get("qrename_read", 0) + 1
        _k = (srcs_a[1].is_fp, srcs_a[1].index)
        _q = {map_var}.get(_k)
        if _q is not None and {tail_var}.get(_q) == _k:
            second = _q
    if second is not None:
        if len({queues_var}[second]) < {cap}:
            qi = second
        else:
            {side_var}.stalls_rule2_full += 1
    else:
        for _qi2, _q2 in enumerate({queues_var}):
            if not _q2:
                qi = _qi2
                break
        else:
            {side_var}.stalls_no_empty += 1"""


def _fifo_place_code(queues_var: str, map_var: str, tail_var: str,
                     side_var: str, cap: int, after_append: str = "") -> str:
    """Inlined ``FifoSide.try_place`` + ``_append`` with stall break."""
    choose = _fifo_choose_code(queues_var, map_var, tail_var, side_var, cap)
    return f"""\
{choose}
if qi is None:
    {side_var}.dispatch_stalls += 1
    rob._next_age = age
    stalled = True
    blocked = inst
    break
{queues_var}[qi].append(uop)
uop.queue_index = qi
dest = inst.dest
if dest is not None:
    _ev["qrename_write"] = _ev.get("qrename_write", 0) + 1
    _kd = (dest.is_fp, dest.index)
    {map_var}[_kd] = qi
    {tail_var}[qi] = _kd
_ev["fifo_write"] = _ev.get("fifo_write", 0) + 1{after_append}"""


_INTERPRETED_PLACE = """\
if not scheme.try_dispatch(uop, cycle):
    rob._next_age = age
    stalled = True
    blocked = inst
    break"""


def _dispatch_place_block(spec: dict) -> str:
    """Scheme-specific placement inside the dispatch loop.

    The plain-FIFO paths (both IssueFIFO sides, the LatFIFO/MixBUFF
    integer sides) and the conventional append inline fully; the
    estimator-placed LatFIFO FP side and the MixBUFF chain placement
    stay interpreted via ``scheme.try_dispatch``.
    """
    kind = spec["scheme_kind"]
    if kind == SCHEME_CONVENTIONAL:
        int_cap = spec["rob_entries"] if spec["unbounded"] else spec["int_queue_entries"]
        fp_cap = spec["rob_entries"] if spec["unbounded"] else spec["fp_queue_entries"]
        return f"""\
if _opinfo[inst.op][0]:
    if len(cq_fp) >= {fp_cap}:
        rob._next_age = age
        stalled = True
        blocked = inst
        break
    cq_fp.append(uop)
    cq_rev[1] += 1
else:
    if len(cq_int) >= {int_cap}:
        rob._next_age = age
        stalled = True
        blocked = inst
        break
    cq_int.append(uop)
    cq_rev[0] += 1
_ev["iq_buff_write"] = _ev.get("iq_buff_write", 0) + 1"""
    int_place = _fifo_place_code(
        "int_queues_list", "imap", "itail", "iside", spec["int_queue_entries"],
        after_append=(
            "\nestimator.estimate(inst, cycle)" if kind == SCHEME_LATFIFO else ""
        ),
    )
    if kind == SCHEME_ISSUEFIFO:
        fp_place = _fifo_place_code(
            "fp_queues_list", "fmap", "ftail", "fside", spec["fp_queue_entries"]
        )
    else:  # latfifo estimator placement / mixbuff chains stay interpreted
        fp_place = _INTERPRETED_PLACE
    return (
        "if _opinfo[inst.op][0]:\n"
        + _indent(fp_place, 4)
        + "\nelse:\n"
        + _indent(int_place, 4)
    )


def _issue_stage(spec: dict) -> str:
    kind = spec["scheme_kind"]
    header = f"""\
issued_n = 0
int_b = {spec['int_issue_width']}
mem_b = {spec['dcache_ports']}
fp_b = {spec['fp_issue_width']}"""
    if kind == SCHEME_CONVENTIONAL:
        return "\n".join(
            [
                header,
                _conventional_side_block(spec, 0),
                _conventional_side_block(spec, 1),
            ]
        )
    if kind in (SCHEME_ISSUEFIFO, SCHEME_LATFIFO):
        return "\n".join(
            [
                header,
                _fifo_heads_block(spec, "int_queues_list", fp_side=False),
                _fifo_heads_block(spec, "fp_queues_list", fp_side=True),
            ]
        )
    if kind == SCHEME_MIXBUFF:
        mixbuff_fp = f"""\
_mb_occ = 0
for _q in mb_queues:
    _mb_occ += len(_q)
if _mb_occ:
    # The MixBUFF chain selector stays interpreted (documented partial
    # specialization); it runs against a real IssueContext, sharing
    # this cycle's scoreboard and FU state exactly like the base scheme.
    ctx = IssueContext(cycle, config, sb, fu_pool, lsq, processor._schedule_completion)
    ctx.int_budget = int_b
    ctx.memory_budget = mem_b
    issued_n += len(scheme.fp_side.issue_one_per_queue(ctx, {spec['distributed']}))"""
        return "\n".join(
            [
                header,
                _fifo_heads_block(spec, "int_queues_list", fp_side=False),
                mixbuff_fp,
            ]
        )
    raise ValueError(f"no specialized kernel template for scheme {kind!r}")


def _broadcast_stage(spec: dict) -> str:
    if spec["scheme_kind"] == SCHEME_CONVENTIONAL:
        return """\
if b:
    _ev["iq_wakeup_broadcasts"] = _ev.get("iq_wakeup_broadcasts", 0) + b
    unready = 0
    for queue in (cq_int, cq_fp):
        for uop in queue:
            for fp_, ix in uop.src_phys:
                if (sb_fp if fp_ else sb_int)[ix] > cycle:
                    unready += 1
    _cmp = b * unready
    if _cmp:
        _ev["iq_wakeup_comparisons"] = _ev.get("iq_wakeup_comparisons", 0) + _cmp"""
    return """\
if b:
    _ev["regs_ready_write"] = _ev.get("regs_ready_write", 0) + b"""


def _scheme_bindings(spec: dict) -> str:
    kind = spec["scheme_kind"]
    if kind == SCHEME_CONVENTIONAL:
        return """\
cq_int = scheme._int_queue
cq_fp = scheme._fp_queue
cq_rev = scheme._queue_rev
cq_bound = scheme._ready_bound"""
    fifo_int = """\
iside = scheme.int_side
int_queues_list = iside.queues
imap = iside.table._map
itail = iside.table._tail_reg"""
    if kind == SCHEME_MIXBUFF:
        return fifo_int + "\nmb_queues = scheme.fp_side.queues"
    if kind == SCHEME_LATFIFO:
        return (
            fifo_int
            + "\nfp_queues_list = scheme.fp_side.queues"
            + "\nestimator = scheme.estimator"
        )
    return (
        fifo_int
        + """
fside = scheme.fp_side
fp_queues_list = fside.queues
fmap = fside.table._map
ftail = fside.table._tail_reg"""
    )


def _occupancy_expr(spec: dict) -> str:
    kind = spec["scheme_kind"]
    if kind == SCHEME_CONVENTIONAL:
        return "len(cq_int) + len(cq_fp)"
    if kind == SCHEME_MIXBUFF:
        return "sum(map(len, int_queues_list)) + sum(map(len, mb_queues))"
    return "sum(map(len, int_queues_list)) + sum(map(len, fp_queues_list))"


def _fu_bindings(spec: dict) -> str:
    if spec["distributed"]:
        return """\
_fu_int_alu = fu_pool._int_alu
_fu_int_muldiv = fu_pool._int_muldiv
_fu_fp_alu = fu_pool._fp_alu
_fu_fp_muldiv = fu_pool._fp_muldiv"""
    return """\
_units = (
    fu_pool.units_of(FuType.INT_ALU),
    fu_pool.units_of(FuType.INT_MULDIV),
    fu_pool.units_of(FuType.FP_ALU),
    fu_pool.units_of(FuType.FP_MULDIV),
)"""


def generate_source(spec: dict) -> str:
    """Emit the specialized kernel module source for ``spec``."""
    global CODEGEN_RUNS
    CODEGEN_RUNS += 1
    decode_room = 2 * spec["decode_width"]
    body = f'''\
"""Generated specialized kernel — do not edit.

Spec digest: {spec_digest(spec)}
Spec: {json.dumps(spec, sort_keys=True)}
"""

from repro.core.uop import InFlight
from repro.isa.opcodes import FuType, OpClass
from repro.issue.base import IssueContext, IssueScheme

_NEVER = 1 << 60

{_opinfo_literal(spec)}


def make_step(processor):
    config = processor.config
    scheme = processor.scheme
    events = processor.events
    _ev = events._counts
    sb = processor.scoreboard
    sb_int = sb._int
    sb_fp = sb._fp
    fetch = processor.fetch
    renamer = processor.renamer
    rob = processor.rob
    rob_entries = rob._entries
    lsq = processor.lsq
    hierarchy = processor.hierarchy
    stats = processor.stats
    bc_wheel = processor._broadcasts
    br_res = processor._branch_resolutions
    decode_queue = processor._decode_queue
    fu_pool = processor.fu_pool
{_indent(_fu_bindings(spec), 4)}
{_indent(_scheme_bindings(spec), 4)}
    _opinfo = _OPINFO
    _cycle_end = (
        None
        if type(scheme).on_cycle_end is IssueScheme.on_cycle_end
        else scheme.on_cycle_end
    )

    def _step(cycle):
        # stage 1: branch resolutions due this cycle
        resolved_list = br_res.pop(cycle, None)
        if resolved_list is None:
            resolved = 0
        else:
            resolved = len(resolved_list)
            for uop in resolved_list:
                seq = uop.inst.seq
                was_blocking = fetch.blocked_on_branch == seq
                fetch.resolve_branch(seq, cycle)
                if was_blocking:
                    scheme.on_mispredict_resolved()
        # stage 2: in-order commit (inlined rob.commit_ready + release)
        retired = 0
        while rob_entries and retired < {spec['commit_width']}:
            head = rob_entries[0]
            cc = head.complete_cycle
            if cc is None or cc > cycle:
                break
            rob_entries.popleft()
            if head.prev_phys is not None:
                renamer.release(head.prev_phys)
            if _opinfo[head.inst.op][3]:
                lsq.retire_store(head)
                hierarchy.data_access_latency(head.inst.mem_addr, is_store=True)
            retired += 1
        rob.committed += retired
        # stage 3: result broadcasts (wakeup energy)
        b = bc_wheel.pop(cycle, 0)
{_indent(_broadcast_stage(spec), 8)}
        # stage 4: select and issue (inlined IssueContext)
{_indent(_issue_stage(spec), 8)}
        if issued_n:
            _ev["instructions_issued"] = _ev.get("instructions_issued", 0) + issued_n
        # stage 5: in-order dispatch
        dispatched = 0
        stalled = False
        blocked = None
        while (
            decode_queue
            and decode_queue[0][1] <= cycle
            and dispatched < {spec['decode_width']}
        ):
            inst = decode_queue[0][0]
            if len(rob_entries) >= {spec['rob_entries']} or not renamer.can_rename(inst.dest):
                stalled = True
                break
            age = rob._next_age
            rob._next_age = age + 1
            uop = InFlight(inst, [], None, None, len(rob_entries), age, cycle)
{_indent(_dispatch_place_block(spec), 12)}
            decode_queue.popleft()
            renamed = renamer.rename(inst.srcs, inst.dest)
            uop.src_phys = renamed["src_phys"]
            dp = renamed["dest_phys"]
            uop.dest_phys = dp
            uop.prev_phys = renamed["prev_phys"]
            if dp is not None:
                fp_, ix = dp
                (sb_fp if fp_ else sb_int)[ix] = _NEVER
                sb._version += 1
            rob_entries.append(uop)
            if _opinfo[inst.op][3]:
                lsq.add_store(uop)
            dispatched += 1
        processor._dispatch_blocked_inst = blocked
        if stalled:
            stats.dispatch_stall_cycles += 1
        # stage 6: decode
        room = {decode_room} - len(decode_queue)
        if room > 0:
            moved = fetch.pop_instructions(
                room if room < {spec['decode_width']} else {spec['decode_width']}
            )
            decoded = len(moved)
            due = cycle + 1
            for inst in moved:
                decode_queue.append((inst, due))
        else:
            decoded = 0
        # stage 7: fetch
        token = fetch.state_token()
        fetched = fetch.fetch_cycle(cycle)
        if _cycle_end is not None:
            _cycle_end(cycle)
        processor._occupancy_accum += {_occupancy_expr(spec)}
        activity = bool(
            resolved
            or retired
            or b
            or issued_n
            or dispatched
            or decoded
            or fetched
            or fetch.state_token() != token
        )
        return activity, retired

    return _step
'''
    return body
