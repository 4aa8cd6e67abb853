"""Per-configuration kernel generation for the ``specialized`` backend.

:func:`generate_source` emits a Python module specialized to one
:class:`~repro.common.config.ProcessorConfig`: queue capacities,
issue/commit widths, D-cache port count and every functional-unit
latency are baked in, the issue-scheme dispatch is resolved at
generation time (only the configured scheme's code is emitted — dead
branches folded), and the per-cycle hot path is flattened into one
``_step`` closure: commit, FIFO placement, the conventional append, the
``IssueContext`` call tower, the per-operand scoreboard accessors,
``_schedule_completion`` and the ``StatCounters.add`` layer are all
inlined into direct list/dict operations. CPython call overhead
dominates the interpreted detailed path, so the flattening — not
algorithmic change — is the speedup.

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
* an instruction's facts are read where the interpreter reads them:
  ``uop.op``'s and ``uop.fu_type``'s attributes and the ``issue_srcs``
  slot that ``InFlight.set_sources`` fills. Generated code never keys a
  dict by an enum member (``Enum.__hash__`` is a Python call); only the
  latencies, which depend on the config, are baked, into ``_LAT``
  keyed by ``op.latency_field``;
* the estimator-placed LatFIFO FP side, the MixBUFF FP chain placement
  (both through ``scheme.try_dispatch``) and the MixBUFF FP selector
  (which gets a real ``IssueContext``) stay interpreted, as do rename,
  fetch and the LSQ bookkeeping.

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
from repro.isa.opcodes import OpClass, latency_for

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


def kernel_spec(config: ProcessorConfig) -> dict:
    """The subset of the config the generated source depends on.

    Two configs with equal specs compile to byte-identical kernels, so
    e.g. all benchmarks of one figure share one compiled kernel per
    scheme. Anything that cannot change the emitted source (cache
    geometry, branch predictor, register-file sizes) stays out, and so
    do the queue counts, which the kernel reads from the scheme's queue
    lists at run time, MixBUFF's chain limit, which only its interpreted
    FP placement reads, and the binding of functional units to queues,
    which the kernel reads from the processor's ``FuPool`` banks.
    ``latencies`` maps each ``FunctionalUnitConfig`` latency field to
    its value.
    """
    scheme = config.scheme
    return {
        "v": 1,
        "scheme_kind": scheme.kind,
        "int_queue_entries": scheme.int_queue_entries,
        "fp_queue_entries": scheme.fp_queue_entries,
        "unbounded": bool(scheme.unbounded),
        "decode_width": config.decode_width,
        "commit_width": config.commit_width,
        "int_issue_width": config.int_issue_width,
        "fp_issue_width": config.fp_issue_width,
        "dcache_ports": config.dcache.ports,
        "rob_entries": config.rob_entries,
        "latencies": {
            op.latency_field: latency_for(op, config.fus) for op in OpClass
        },
    }


def spec_digest(spec: dict) -> str:
    """Content address of one kernel spec."""
    return hashlib.sha256(
        json.dumps(spec, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _indent(block: str, spaces: int) -> str:
    pad = " " * spaces
    return "\n".join(pad + line if line.strip() else "" for line in block.splitlines())


def _attempt_block(queue: str, fp_side: bool) -> str:
    """Inlined ``IssueContext.issue`` of ``head`` from queue ``queue``,
    once the caller has checked the side's issue width.

    In ``issue``'s order: the memory-port check, operand readiness over
    ``issue_srcs``, load gating, ``FuPool.try_allocate`` from the
    queue's bank, the budget spend, then ``_schedule_completion``. A
    failed check ``continue``s with no side effect, as a rejected
    ``issue`` has none. FP-side ops are never memory ops or branches
    (``OpClass.is_fp``), so their template leaves those parts out.
    """
    if fp_side:
        port_check = load_gate = memory_completion = branch = ""
        spend = "fp_b -= 1"
    else:
        port_check = """
is_mem = op.is_memory
if is_mem and mem_b <= 0:
    continue"""
        load_gate = """
is_ld = op.is_load
if is_ld and (
    not lsq.can_issue_load(head.seq)
    or lsq.load_blocked_on_store_data(head, sb)
):
    continue"""
        spend = """\
int_b -= 1
if is_mem:
    mem_b -= 1"""
        # A memory op's latency is its address computation.
        memory_completion = """
if is_ld:
    start, fwd = lsq.load_access_constraints(head, complete)
    if fwd is not None:
        _sp = fwd.src_phys
        if _sp:
            fp_, ix = _sp[0]
            data_ready = (sb_fp if fp_ else sb_int)[ix]
        else:
            data_ready = start
        complete = (start if start >= data_ready else data_ready) + 1
    else:
        complete = start + hierarchy.data_access_latency(head.inst.mem_addr)
elif op.is_store:
    lsq.store_issued(head)"""
        branch = """
if op.is_branch:
    if complete in br_res:
        br_res[complete].append(head)
    else:
        br_res[complete] = [head]"""
    return f"""\
op = head.op{port_check}
ready = True
for fp_, ix in head.issue_srcs:
    if (sb_fp if fp_ else sb_int)[ix] > cycle:
        ready = False
        break
if not ready:
    continue{load_gate}
fu = head.fu_type
for unit in _banks[fu.slot][{queue}]:
    if cycle > unit.busy_until and cycle > unit.last_issue_cycle:
        unit.last_issue_cycle = cycle
        if not op.pipelined:
            unit.busy_until = cycle + _lat[op.latency_field] - 1
        break
else:
    continue
{spend}
complete = cycle + _lat[op.latency_field]{memory_completion}
head.complete_cycle = complete
mux = fu.mux_event
_ev[mux] = _ev.get(mux, 0) + 1
dp = head.dest_phys
if dp is not None:
    fp_, ix = dp
    (sb_fp if fp_ else sb_int)[ix] = complete
    sb._version += 1
    bc_wheel[complete] = bc_wheel.get(complete, 0) + 1{branch}"""


def _fifo_heads_block(queues_var: str, fp_side: bool) -> str:
    """One FIFO side's ``issue_heads``, fully inlined.

    The budget early-break skips only ``ctx.issue`` calls that provably
    fail with zero side effects, so the issued set, queue state and
    every counter match the interpreted side exactly.
    """
    budget = "fp_b" if fp_side else "int_b"
    return f"""\
heads = []
total_reads = 0
for _qi, _q in enumerate({queues_var}):
    if _q:
        heads.append((_q[0].seq, _qi))
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
{_indent(_attempt_block("_qi", fp_side), 8)}
        _q.popleft()
        _ev["fifo_read"] = _ev.get("fifo_read", 0) + 1
        issued_n += 1"""


def _conventional_side_block(side: int) -> str:
    """One side of the CAM/RAM baseline: ready-bound scan + selection."""
    queue_var = "cq_fp" if side else "cq_int"
    budget = "fp_b" if side else "int_b"
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
                latest = 0
                for fp_, ix in uop.issue_srcs:
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
{_indent(_attempt_block("0", bool(side)), 12)}
            taken.append(_i)
            issued_n += 1
        if taken:
            for _i in reversed(taken):
                queue.pop(_i)
            cq_rev[{side}] += 1
            _ev["iq_buff_read"] = _ev.get("iq_buff_read", 0) + len(taken)"""


def _fifo_choose_code(queues_var: str, map_var: str, tail_var: str,
                      cap: int) -> str:
    """Inlined ``FifoSide._choose_queue``: sets ``qi`` (None on stall).

    Replicates the three placement heuristics and their event side
    effects; a rule-1 stall (full producer queue, one operand) skips the
    second-operand lookup and leaves ``qi`` as None.
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
elif first is None or len(srcs_a) > 1:
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
        for _qi2, _q2 in enumerate({queues_var}):
            if not _q2:
                qi = _qi2
                break"""


def _fifo_place_code(queues_var: str, map_var: str, tail_var: str,
                     cap: int, after_append: str = "") -> str:
    """Inlined ``FifoSide.try_place`` + ``_append`` with stall break."""
    choose = _fifo_choose_code(queues_var, map_var, tail_var, cap)
    return f"""\
{choose}
if qi is None:
    stalled = True
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
    stalled = True
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
if uop.op.is_fp:
    if len(cq_fp) >= {fp_cap}:
        stalled = True
        break
    cq_fp.append(uop)
    cq_rev[1] += 1
else:
    if len(cq_int) >= {int_cap}:
        stalled = True
        break
    cq_int.append(uop)
    cq_rev[0] += 1
_ev["iq_buff_write"] = _ev.get("iq_buff_write", 0) + 1"""
    int_place = _fifo_place_code(
        "int_queues_list", "imap", "itail", spec["int_queue_entries"],
        after_append=(
            "\nestimator.estimate(inst, cycle)" if kind == SCHEME_LATFIFO else ""
        ),
    )
    if kind == SCHEME_ISSUEFIFO:
        fp_place = _fifo_place_code(
            "fp_queues_list", "fmap", "ftail", spec["fp_queue_entries"]
        )
    else:  # latfifo estimator placement / mixbuff chains stay interpreted
        fp_place = _INTERPRETED_PLACE
    return (
        "if uop.op.is_fp:\n"
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
                _conventional_side_block(0),
                _conventional_side_block(1),
            ]
        )
    if kind in (SCHEME_ISSUEFIFO, SCHEME_LATFIFO):
        return "\n".join(
            [
                header,
                _fifo_heads_block("int_queues_list", fp_side=False),
                _fifo_heads_block("fp_queues_list", fp_side=True),
            ]
        )
    if kind == SCHEME_MIXBUFF:
        mixbuff_fp = """\
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
    issued_n += len(scheme.fp_side.issue_one_per_queue(ctx))"""
        return "\n".join(
            [
                header,
                _fifo_heads_block("int_queues_list", fp_side=False),
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
from repro.issue.base import IssueContext

_NEVER = 1 << 60

_LAT = {spec["latencies"]!r}


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
    rob_entries = processor.rob._entries
    lsq = processor.lsq
    hierarchy = processor.hierarchy
    stats = processor.stats
    bc_wheel = processor._broadcasts
    br_res = processor._branch_resolutions
    decode_queue = processor._decode_queue
    fu_pool = processor.fu_pool
    _banks = fu_pool._banks
{_indent(_scheme_bindings(spec), 4)}
    _lat = _LAT

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
            if head.op.is_store:
                lsq.retire_store(head)
                hierarchy.data_access_latency(head.inst.mem_addr, is_store=True)
            retired += 1
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
        while (
            decode_queue
            and decode_queue[0][1] <= cycle
            and dispatched < {spec['decode_width']}
        ):
            inst = decode_queue[0][0]
            if len(rob_entries) >= {spec['rob_entries']} or not renamer.can_rename(inst.dest):
                stalled = True
                break
            uop = InFlight(inst)
{_indent(_dispatch_place_block(spec), 12)}
            decode_queue.popleft()
            srcs, dp, uop.prev_phys = renamer.rename(inst.srcs, inst.dest)
            uop.set_sources(srcs)
            uop.dest_phys = dp
            if dp is not None:
                fp_, ix = dp
                (sb_fp if fp_ else sb_int)[ix] = _NEVER
                sb._version += 1
            rob_entries.append(uop)
            if uop.op.is_store:
                lsq.add_store(uop)
            dispatched += 1
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
