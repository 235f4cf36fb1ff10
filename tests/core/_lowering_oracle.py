"""Row-at-a-time reference lowering of the SW-scheduler.

:meth:`repro.core.scheduler.SwScheduler.schedule` builds a whole program
as columns and appends it as one block.  This is the same lowering
written one row at a time, layer by layer, group by group, then appended
with one ``emit_block`` - the oracle ``test_lowering_oracle.py`` checks
the block lowering against.
"""

from repro.core.isa import DmaOp, VpuOp, XpuOp

from .._programs import Row, stream


def schedule(scheduler, layers):
    params, size = scheduler.params, scheduler.group_size
    rows = []

    def emit(op, group, depends_on=(), count=0, data_bytes=0, macs=0):
        """Append a row; returns its id."""
        rows.append(Row(len(rows), op, group, count, data_bytes, macs, tuple(depends_on)))
        return len(rows) - 1

    group = 0
    barrier = []  # ids the next layer waits on
    for layer in layers:
        palu = []
        if layer.linear_macs > 0:
            palu = [emit(VpuOp.P_ALU, group, barrier, macs=layer.linear_macs)]
        waits = palu or barrier
        full, rest = divmod(layer.bootstraps, size)
        batches = [size] * full + [rest] * (rest > 0)
        loads = [
            (emit(DmaOp.LOAD_LWE, group + i, waits, count=batch,
                  data_bytes=batch * params.lwe_bytes),
             emit(DmaOp.LOAD_BSK, group + i, waits,
                  data_bytes=params.bsk_transform_bytes),
             emit(DmaOp.LOAD_KSK, group + i, waits, data_bytes=params.ksk_bytes))
            for i, batch in enumerate(batches)
        ]
        stores = []
        for i, (batch, (lwe, bsk, ksk)) in enumerate(zip(batches, loads)):
            ms = emit(VpuOp.MODULUS_SWITCH, group + i, [lwe], count=batch)
            br = emit(XpuOp.BLIND_ROTATE, group + i, [ms, bsk], count=batch)
            se = emit(VpuOp.SAMPLE_EXTRACT, group + i, [br], count=batch)
            ks = emit(VpuOp.KEY_SWITCH, group + i, [se, ksk], count=batch)
            stores.append(emit(DmaOp.STORE_LWE, group + i, [ks], count=batch,
                               data_bytes=batch * params.lwe_bytes))
        group += len(batches)
        if palu or stores:  # a layer that emits nothing keeps the barrier
            barrier = palu + stores
    return stream(rows)
