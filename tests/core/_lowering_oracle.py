"""Record-at-a-time reference lowering of the SW-scheduler.

:meth:`repro.core.scheduler.SwScheduler.schedule` builds a whole program
as columns and appends it as one block.  This is the same lowering
written one ``emit`` per row, layer by layer, group by group - the
oracle ``test_lowering_oracle.py`` checks the block lowering against.
"""

from repro.core.isa import DmaOp, InstructionStream, VpuOp, XpuOp


def schedule(scheduler, layers):
    params, size = scheduler.params, scheduler.group_size
    stream = InstructionStream()
    group = 0
    barrier = []  # ids the next layer waits on
    for layer in layers:
        palu = []
        if layer.linear_macs > 0:
            palu = [stream.emit(VpuOp.P_ALU, group, barrier,
                                macs=layer.linear_macs).inst_id]
        waits = palu or barrier
        full, rest = divmod(layer.bootstraps, size)
        batches = [size] * full + [rest] * (rest > 0)
        loads = [
            (stream.emit(DmaOp.LOAD_LWE, group + i, waits, count=batch,
                         data_bytes=batch * params.lwe_bytes).inst_id,
             stream.emit(DmaOp.LOAD_BSK, group + i, waits,
                         data_bytes=params.bsk_transform_bytes).inst_id,
             stream.emit(DmaOp.LOAD_KSK, group + i, waits,
                         data_bytes=params.ksk_bytes).inst_id)
            for i, batch in enumerate(batches)
        ]
        stores = []
        for i, (batch, (lwe, bsk, ksk)) in enumerate(zip(batches, loads)):
            ms = stream.emit(VpuOp.MODULUS_SWITCH, group + i, [lwe], count=batch)
            br = stream.emit(XpuOp.BLIND_ROTATE, group + i, [ms.inst_id, bsk], count=batch)
            se = stream.emit(VpuOp.SAMPLE_EXTRACT, group + i, [br.inst_id], count=batch)
            ks = stream.emit(VpuOp.KEY_SWITCH, group + i, [se.inst_id, ksk], count=batch)
            stores.append(stream.emit(DmaOp.STORE_LWE, group + i, [ks.inst_id], count=batch,
                                      data_bytes=batch * params.lwe_bytes).inst_id)
        group += len(batches)
        if palu or stores:  # a layer that emits nothing keeps the barrier
            barrier = palu + stores
    return stream
