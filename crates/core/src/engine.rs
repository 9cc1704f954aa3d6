//! The schedule executor: replays a compiled [`Plan`] against the SRM
//! substrates — the node's shared-memory board, the masters' network
//! landing state and the RMA endpoint.
//!
//! The engine is the **only** execution path for the collectives: the
//! protocol logic lives entirely in the planners
//! ([`crate::inter`]/[`crate::smp`]), and this module mechanically
//! resolves each [`Step`]'s operands against the communicator. All
//! relative values (buffer sides, cumulative flag targets, drain
//! guards) resolve against the sequence bases sampled once at entry,
//! which is what makes plans reusable across calls.
//!
//! Per call the engine counts a plan-cache hit or miss and per-step
//! categories into the simulator metrics, and — when
//! [`SrmTuning::trace_steps`](crate::SrmTuning) is set — emits one
//! trace event per step for timeline rendering.
//!
//! Execution state is factored so a call can be **suspended**: every
//! mutable per-call datum (the sampled bases, the reduce accumulator,
//! captured address handles) lives in a `CallState`, and `exec_step`
//! executes exactly one step against it. The blocking path here simply
//! folds `exec_step` over the plan; the nonblocking executor
//! ([`crate::nb`]) runs the same steps with parks in between. A
//! blocking call that arrives while nonblocking requests are
//! outstanding routes through the nonblocking queue (issue + wait) so
//! it orders correctly behind them instead of deadlocking against its
//! own predecessors.

use crate::plan::{
    BufRef, CopyCost, CtrRef, FlagRef, HandleSrc, Off, PairSel, Plan, PlanKey, SeqBase, Side, Step,
    Val, SEQ_BASES,
};
use crate::world::SrmComm;
use collops::{combine_from_buffer_costed, DType, ReduceOp};
use rma::LapiCounter;
use shmem::{BufPair, ShmBuffer, SpinFlag};
use simnet::Ctx;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) fn val_of(bases: &[u64; SEQ_BASES], v: Val) -> u64 {
    match v {
        Val::Lit(x) => x,
        Val::Seq { base, rel } => bases[base.index()] + rel,
    }
}

pub(crate) fn side_of(bases: &[u64; SEQ_BASES], s: Side) -> usize {
    (seq_of(bases, s) % 2) as usize
}

/// The full use-sequence number a `Side` resolves to — the buffer pair
/// protocol counts *uses*, not parities, so writer handoffs between
/// uses of the same side stay ordered (see [`shmem::BufPair`]).
pub(crate) fn seq_of(bases: &[u64; SEQ_BASES], s: Side) -> u64 {
    match s {
        Side::Lit(x) => x as u64,
        Side::Parity { base, rel } => bases[base.index()] + rel,
    }
}

pub(crate) fn off_of(bases: &[u64; SEQ_BASES], o: Off) -> usize {
    match o {
        Off::Lit(x) => x,
        Off::Parity { base, rel, stride } => ((bases[base.index()] + rel) % 2) as usize * stride,
    }
}

pub(crate) fn pair_of(comm: &SrmComm, sel: PairSel) -> &BufPair {
    match sel {
        PairSel::Smp => &comm.board().smp,
        PairSel::Landing => &comm.board().landing,
    }
}

pub(crate) fn flag_of<'a>(comm: &'a SrmComm, bases: &[u64; SEQ_BASES], f: FlagRef) -> &'a SpinFlag {
    let board = comm.board();
    match f {
        FlagRef::Barrier { slot } => board.barrier_flags.flag(slot),
        FlagRef::ContribReady { slot, side } => &board.contrib_ready[slot][side_of(bases, side)],
        FlagRef::ContribDone { slot, side } => &board.contrib_done[slot][side_of(bases, side)],
        FlagRef::XferReady { side } => &board.xfer_ready[side_of(bases, side)],
        FlagRef::XferDone { side } => &board.xfer_done[side_of(bases, side)],
        FlagRef::TreeReady { slot } => &board.tree_ready[slot],
        FlagRef::TreeDone { slot } => &board.tree_done[slot],
    }
}

/// The contribution drain guard of my own slot on `side`: my last
/// publish there (`0` if none yet) and the `ContribDone` flag that must
/// reach it before the side may be refilled. Only I raise my READY
/// flags, so reading my own is free (the line is in my cache).
pub(crate) fn contrib_drain<'a>(
    comm: &'a SrmComm,
    bases: &[u64; SEQ_BASES],
    side: Side,
) -> (u64, &'a SpinFlag) {
    let board = comm.board();
    let s = side_of(bases, side);
    let my = comm.cslot();
    (
        board.contrib_ready[my][s].peek(),
        &board.contrib_done[my][s],
    )
}

pub(crate) fn ctr_of<'a>(
    comm: &'a SrmComm,
    bases: &[u64; SEQ_BASES],
    c: CtrRef,
) -> &'a LapiCounter {
    let lpar = |rel| ((bases[SeqBase::Landing.index()] + rel) % 2) as usize;
    let rpar = |rel| ((bases[SeqBase::Reduce.index()] + rel) % 2) as usize;
    match c {
        CtrRef::LandingData { node, rel } => &comm.comm.boards[node].landing_data[lpar(rel)],
        CtrRef::BcastFree { node, child, rel } => &comm.inter(node).bcast_free[child][lpar(rel)],
        CtrRef::ReduceData { node, src, rel } => &comm.inter(node).reduce_data[src][rpar(rel)],
        CtrRef::ReduceFree { node, dst, rel } => &comm.inter(node).reduce_free[dst][rpar(rel)],
        CtrRef::LargeData { node } => &comm.inter(node).large_data,
        CtrRef::RdData { node, round } => &comm.inter(node).rd_data[round],
        CtrRef::RdFree { node, round } => &comm.inter(node).rd_free[round],
        CtrRef::FoldData { node } => &comm.inter(node).fold_data,
        CtrRef::FoldFree { node } => &comm.inter(node).fold_free,
        CtrRef::UnfoldData { node } => &comm.inter(node).unfold_data,
        CtrRef::BarRound { node, round } => &comm.inter(node).bar_round[round],
        CtrRef::PairwiseData { node, src } => comm.comm.pairwise.data(src, node),
        CtrRef::PairwiseFree { node, dst } => comm.comm.pairwise.free(node, dst),
        CtrRef::PairwiseDirect { src, dst } => comm.comm.pairwise.direct(src, dst),
    }
}

/// Resolve a shared-memory buffer operand. [`BufRef::Acc`] has no
/// backing `ShmBuffer` and is special-cased by the copy steps.
pub(crate) fn buf_of<'a>(
    comm: &'a SrmComm,
    bases: &[u64; SEQ_BASES],
    user: &'a ShmBuffer,
    child_bufs: &'a [ShmBuffer],
    root_buf: &'a Option<ShmBuffer>,
    scratch: &'a Option<ShmBuffer>,
    r: BufRef,
) -> &'a ShmBuffer {
    let rpar = |rel| ((bases[SeqBase::Reduce.index()] + rel) % 2) as usize;
    match r {
        BufRef::User => user,
        BufRef::Acc => panic!("accumulator is not an addressable buffer"),
        BufRef::Smp { side } => comm.board().smp.buf(side_of(bases, side)),
        BufRef::Landing { node, side } => comm.comm.boards[node].landing.buf(side_of(bases, side)),
        BufRef::Contrib { slot } => &comm.board().contrib[slot],
        BufRef::Xfer => &comm.board().xfer,
        BufRef::ReduceLanding { node, src, rel } => {
            &comm.inter(node).reduce_landing[src][rpar(rel)]
        }
        BufRef::RdLanding { node, round } => &comm.inter(node).rd_landing[round],
        BufRef::FoldLanding { node } => &comm.inter(node).fold_landing,
        BufRef::PairwiseRing { node, src } => comm.comm.pairwise.ring(node, src),
        BufRef::ChildUser { idx } => &child_bufs[idx],
        BufRef::RootUser => root_buf
            .as_ref()
            .expect("root user-buffer handle not captured yet"),
        BufRef::Scratch => scratch
            .as_ref()
            .expect("scratch not allocated (missing ScratchAlloc)"),
    }
}

/// Mutable state of one collective call mid-execution: the sequence
/// bases sampled at entry plus everything the steps accumulate (the
/// operator scratch and captured buffer handles). Extracting this from
/// the executor loop is what lets the nonblocking engine park a call at
/// a blocking step and resume it later with nothing lost.
pub(crate) struct CallState {
    /// [`SeqBase`] cells sampled once when the call entered.
    pub(crate) bases: [u64; SEQ_BASES],
    /// Operator scratch ([`BufRef::Acc`]).
    pub(crate) acc: Vec<u8>,
    /// Handles captured by [`Step::AddrTake`], in take order.
    pub(crate) child_bufs: Vec<ShmBuffer>,
    /// Handle captured by [`Step::GsRootTake`]/[`Step::BoardAddrTake`].
    pub(crate) root_buf: Option<ShmBuffer>,
    /// Per-call scratch allocated by [`Step::ScratchAlloc`]
    /// ([`BufRef::Scratch`]); dies with the call.
    pub(crate) scratch: Option<ShmBuffer>,
    /// Suppress [`Step::Advance`]: the nonblocking issue path already
    /// applied the plan's advance totals to the live cells at issue
    /// time (sequence-base relocation), so executing them again would
    /// double-count.
    pub(crate) skip_advance: bool,
}

impl CallState {
    /// State for a call entering now, with `bases` sampled from the
    /// communicator's live cells.
    pub(crate) fn new(bases: [u64; SEQ_BASES], skip_advance: bool) -> Self {
        CallState {
            bases,
            acc: Vec::new(),
            child_bufs: Vec::new(),
            root_buf: None,
            scratch: None,
            skip_advance,
        }
    }
}

impl SrmComm {
    /// Fetch the cached plan for `key`, compiling it on a miss.
    /// Bumps the `plan_hits`/`plan_misses` metrics accordingly. Keys
    /// are normalized first ([`PlanKey::normalized`]) so call shapes
    /// that compile identically share one cache slot.
    pub fn plan_for(&self, ctx: &Ctx, key: PlanKey) -> Arc<Plan> {
        let key = key.normalized(self.csize());
        let comm_id = key.comm;
        if let Some(plan) = self
            .seat
            .plan_cache
            .lock()
            .expect("plan cache poisoned")
            .get(&key)
        {
            ctx.metrics().plan_hits.fetch_add(1, Ordering::Relaxed);
            ctx.plan_by_comm().hit(comm_id);
            return plan;
        }
        ctx.metrics().plan_misses.fetch_add(1, Ordering::Relaxed);
        ctx.plan_by_comm().miss(comm_id);
        // Compile-time tuning-table consultation accounting: only on
        // the miss path (a cached plan was compiled under the same
        // effective tuning — the lookup is a pure function of the key).
        let (eff, consulted) = self.tune_consult(&key.shape);
        match consulted {
            Some(true) => {
                ctx.metrics()
                    .tune_table_hits
                    .fetch_add(1, Ordering::Relaxed);
                ctx.tune_by_comm().hit(comm_id);
                ctx.trace("tuned:table");
            }
            Some(false) => {
                ctx.metrics()
                    .tune_table_misses
                    .fetch_add(1, Ordering::Relaxed);
                ctx.tune_by_comm().miss(comm_id);
                ctx.trace("tuned:default");
            }
            None => {}
        }
        // Compile-time routing decision, traced alongside the `tuned:*`
        // labels (timeline renders both).
        if let Some(route) = self.route_of_shape(&key.shape, &eff) {
            ctx.trace(route.label());
        }
        let plan = Arc::new(self.build_plan(&key));
        self.seat
            .plan_cache
            .lock()
            .expect("plan cache poisoned")
            .insert(key, plan.clone());
        plan
    }

    /// Plan (or fetch) and execute the collective described by `key`.
    ///
    /// When this rank has outstanding nonblocking collectives, the call
    /// is routed through the pending queue (issue + wait) instead of
    /// executing directly: a blocking call's steps may depend on flags
    /// that only this rank's own parked schedules will raise, so
    /// executing it to completion in line would self-deadlock.
    pub(crate) fn run_planned(
        &self,
        ctx: &Ctx,
        key: PlanKey,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) {
        if !self
            .shared
            .pending
            .lock()
            .expect("queue poisoned")
            .is_empty()
        {
            let id = self.nb_issue(ctx, key, buf, reduce);
            self.nb_wait_id(ctx, id);
            return;
        }
        ctx.perturb_straggler(self.rank());
        let plan = self.plan_for(ctx, key);
        self.execute_plan(ctx, &plan, buf, reduce);
    }

    /// Replay `plan` step by step against this communicator, blocking
    /// in place at every waiting step. `buf` is the call's user
    /// payload; `reduce` late-binds the operator for plans containing
    /// [`Step::LocalReduce`].
    pub fn execute_plan(
        &self,
        ctx: &Ctx,
        plan: &Plan,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) {
        let mut st = CallState::new(self.sample_bases(), false);
        ctx.metrics()
            .engine_steps
            .fetch_add(plan.steps.len() as u64, Ordering::Relaxed);
        for step in &plan.steps {
            self.exec_step(ctx, &mut st, buf, reduce, step);
        }
    }

    /// Snapshot the live sequence cells (the bases a call entering now
    /// resolves its relative values against).
    pub(crate) fn sample_bases(&self) -> [u64; SEQ_BASES] {
        [
            self.seat.smp_seq.load(Ordering::Relaxed),
            self.seat.landing_seq.load(Ordering::Relaxed),
            self.seat.tree_seq.load(Ordering::Relaxed),
            self.seat.reduce_cum.load(Ordering::Relaxed),
            self.seat.xfer_cum.load(Ordering::Relaxed),
            self.seat.barrier_seq.load(Ordering::Relaxed),
        ]
    }

    /// Execute one step of a call. Blocking steps block in place; the
    /// nonblocking executor only calls this after probing readiness
    /// (see `crate::nb`), in which case they return promptly.
    pub(crate) fn exec_step(
        &self,
        ctx: &Ctx,
        st: &mut CallState,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
        step: &Step,
    ) {
        let bases = st.bases;
        let skip_advance = st.skip_advance;
        let acc = &mut st.acc;
        let child_bufs = &mut st.child_bufs;
        let root_buf = &mut st.root_buf;
        let scratch = &mut st.scratch;
        let metrics = ctx.metrics();
        if self.tuning().trace_steps {
            ctx.trace(step.label());
        }
        {
            match *step {
                Step::Trace(label) => ctx.trace(label),
                Step::SetInterrupts(on) => self.rma.set_interrupts(ctx, on),
                Step::ShmCopy {
                    src,
                    src_off,
                    dst,
                    dst_off,
                    len,
                    cost,
                } => {
                    metrics.engine_copy_steps.fetch_add(1, Ordering::Relaxed);
                    let so = off_of(&bases, src_off);
                    let dofs = off_of(&bases, dst_off);
                    let resolve =
                        |r: BufRef| buf_of(self, &bases, buf, child_bufs, root_buf, scratch, r);
                    match cost {
                        CopyCost::Read(streams) => {
                            // Charged read out of shared memory; the
                            // private-side store rides along for free.
                            let mut tmp = vec![0u8; len];
                            resolve(src).read(ctx, so, &mut tmp, streams);
                            match dst {
                                BufRef::Acc => *acc = tmp,
                                _ => resolve(dst)
                                    .with_mut(|d| d[dofs..dofs + len].copy_from_slice(&tmp)),
                            }
                        }
                        CopyCost::Write(streams) => {
                            // Charged write into shared memory.
                            let tmp = match src {
                                BufRef::Acc => acc[..len].to_vec(),
                                _ => resolve(src).with(|d| d[so..so + len].to_vec()),
                            };
                            resolve(dst).write(ctx, dofs, &tmp, streams);
                        }
                        CopyCost::Free => {
                            // Operator output stream: no charge.
                            let tmp = match src {
                                BufRef::Acc => acc[..len].to_vec(),
                                _ => resolve(src).with(|d| d[so..so + len].to_vec()),
                            };
                            match dst {
                                BufRef::Acc => *acc = tmp,
                                _ => resolve(dst)
                                    .with_mut(|d| d[dofs..dofs + len].copy_from_slice(&tmp)),
                            }
                        }
                    }
                }
                Step::LoadAcc { off, len } => {
                    acc.resize(len, 0);
                    buf.with(|d| acc.copy_from_slice(&d[off..off + len]));
                }
                Step::LocalReduce { src, src_off, len } => {
                    metrics.engine_copy_steps.fetch_add(1, Ordering::Relaxed);
                    let (dtype, op) =
                        reduce.expect("plan reduces but the call carries no operator");
                    debug_assert_eq!(acc.len(), len);
                    let so = off_of(&bases, src_off);
                    let src = buf_of(self, &bases, buf, child_bufs, root_buf, scratch, src);
                    combine_from_buffer_costed(ctx, dtype, op, acc, src, so);
                }
                Step::FlagRaise { flag, val } => {
                    // Every sequence flag has one raiser per outstanding
                    // use, so raises arrive in order; only the flat
                    // barrier's 0/1 toggles store a lower value.
                    let f = flag_of(self, &bases, flag);
                    let v = val_of(&bases, val);
                    debug_assert!(
                        matches!(flag, FlagRef::Barrier { .. }) || v >= f.peek(),
                        "{flag:?} lowered from {} to {v}",
                        f.peek()
                    );
                    f.set(ctx, v);
                }
                Step::FlagAdd { flag, n } => {
                    flag_of(self, &bases, flag).fetch_add(ctx, n);
                }
                Step::FlagWaitEq { flag, val, label } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    flag_of(self, &bases, flag).wait_eq(ctx, label, val_of(&bases, val));
                }
                Step::FlagWaitGe { flag, val, label } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    flag_of(self, &bases, flag).wait_ge(ctx, label, val_of(&bases, val));
                }
                Step::DrainWait {
                    flag,
                    base,
                    rel,
                    scale,
                    label,
                } => {
                    let cum = bases[base.index()] + rel;
                    if cum >= 2 {
                        metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                        flag_of(self, &bases, flag).wait_ge(ctx, label, (cum - 1) * scale);
                    }
                }
                Step::ContribDrained { side } => {
                    let (last, done) = contrib_drain(self, &bases, side);
                    if last > 0 {
                        metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                        done.wait_ge(ctx, "contrib side drained", last);
                    }
                }
                Step::PairWaitFree { pair, side } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    pair_of(self, pair).wait_free(ctx, seq_of(&bases, side));
                }
                Step::PairPublish { pair, side } => {
                    pair_of(self, pair).publish_from(ctx, seq_of(&bases, side), self.cslot());
                }
                Step::PairWaitPublished { pair, side } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    pair_of(self, pair).wait_published(ctx, seq_of(&bases, side), self.cslot());
                }
                Step::PairRelease { pair, side } => {
                    pair_of(self, pair).release(ctx, seq_of(&bases, side), self.cslot());
                }
                Step::PairWaitDrained { pair, side } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    pair_of(self, pair).wait_drained(ctx, seq_of(&bases, side));
                }
                Step::RmaPut {
                    to,
                    src,
                    src_off,
                    dst,
                    dst_off,
                    len,
                    ctr,
                } => {
                    metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                    if matches!(dst, BufRef::PairwiseRing { .. }) {
                        metrics.pairwise_puts.fetch_add(1, Ordering::Relaxed);
                    }
                    if matches!(ctr, Some(CtrRef::PairwiseDirect { .. })) {
                        metrics.pairwise_direct_puts.fetch_add(1, Ordering::Relaxed);
                    }
                    let so = off_of(&bases, src_off);
                    let dofs = off_of(&bases, dst_off);
                    let src = buf_of(self, &bases, buf, child_bufs, root_buf, scratch, src);
                    let dst = buf_of(self, &bases, buf, child_bufs, root_buf, scratch, dst);
                    debug_assert!(
                        dst.fits(dofs, len),
                        "direct put overruns the destination buffer"
                    );
                    let ctr = ctr.map(|c| ctr_of(self, &bases, c));
                    self.rma.put(ctx, to, src, so, len, dst, dofs, ctr);
                }
                Step::CounterPut { to, ctr } => {
                    metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                    self.rma.put_counter(ctx, to, ctr_of(self, &bases, ctr));
                }
                Step::CounterWait { ctr, n } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    self.rma.wait_counter(ctx, ctr_of(self, &bases, ctr), n);
                }
                Step::CreditWait { ctr, n } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    let c = ctr_of(self, &bases, ctr);
                    if c.peek() < n {
                        metrics.credit_stalls.fetch_add(1, Ordering::Relaxed);
                    }
                    self.rma.wait_counter(ctx, c, n);
                }
                Step::CounterWaitGe { ctr, val } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    self.rma
                        .wait_counter_ge(ctx, ctr_of(self, &bases, ctr), val_of(&bases, val));
                }
                Step::AddrSend { to, am, src } => {
                    metrics.engine_put_steps.fetch_add(1, Ordering::Relaxed);
                    let handle = match src {
                        HandleSrc::User => buf.clone(),
                        HandleSrc::RootUser => root_buf
                            .clone()
                            .expect("root user-buffer handle not captured yet"),
                        HandleSrc::Scratch => scratch
                            .clone()
                            .expect("scratch not allocated (missing ScratchAlloc)"),
                    };
                    self.rma.am(ctx, to, am, Vec::new(), Some(handle));
                }
                // The address-take family parks on a slot an incoming
                // AM fills, so the wait must count as *inside a LAPI
                // call* (like the counter waits do): with interrupts
                // disabled the dispatcher can only deliver that AM to
                // a polling target, and a task parked outside a call
                // would deadlock the exchange.
                Step::AddrTake { child } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    self.rma.begin_call(ctx);
                    let taken = self.inter(self.cnode()).addr_slot[child].wait_take(
                        ctx,
                        "child user-buffer address",
                        |s| s.take(),
                    );
                    self.rma.end_call(ctx);
                    child_bufs.push(taken);
                }
                Step::PairAddrTake { from } => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    self.rma.begin_call(ctx);
                    let taken =
                        self.pair_addr_slot(from)
                            .wait_take(ctx, "pairwise peer address", |s| s.take());
                    self.rma.end_call(ctx);
                    child_bufs.push(taken);
                }
                Step::ScratchAlloc { len } => {
                    *scratch = Some(ShmBuffer::new(len));
                }
                Step::GsRootTake => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    self.rma.begin_call(ctx);
                    *root_buf = Some(self.inter(self.cnode()).gs_root.wait_take(
                        ctx,
                        "gather root address",
                        |s| s.take(),
                    ));
                    self.rma.end_call(ctx);
                }
                Step::BoardAddrPut => {
                    self.board().gs_addr.store(ctx, Some(buf.clone()));
                }
                Step::BoardAddrTake => {
                    metrics.engine_wait_steps.fetch_add(1, Ordering::Relaxed);
                    *root_buf = Some(self.board().gs_addr.wait_take(
                        ctx,
                        "gather root address",
                        |s| s.take(),
                    ));
                }
                Step::Advance { base, by } => {
                    // Nonblocking issue already relocated the live cells
                    // (see `nb_issue`), so a queued call must not advance
                    // them a second time when its schedule executes.
                    if !skip_advance {
                        let cell = match base {
                            SeqBase::Smp => &self.seat.smp_seq,
                            SeqBase::Landing => &self.seat.landing_seq,
                            SeqBase::Tree => &self.seat.tree_seq,
                            SeqBase::Reduce => &self.seat.reduce_cum,
                            SeqBase::Xfer => &self.seat.xfer_cum,
                            SeqBase::Barrier => &self.seat.barrier_seq,
                        };
                        cell.fetch_add(by, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}
