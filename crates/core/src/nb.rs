//! The nonblocking interleaving executor: runs any number of
//! outstanding collective schedules on one rank, advancing each to its
//! next blocking step and parking it there.
//!
//! # How it works
//!
//! A nonblocking call ([`crate::SrmComm`]'s `i`-prefixed operations)
//! compiles to the **same** [`Plan`] as its blocking twin. Instead of
//! replaying it to completion, `nb_issue` appends a `PendingCall` —
//! the plan plus a parked `CallState` and a program counter — to the
//! rank's pending queue and returns a request id. Progress then happens
//! in three places:
//!
//! * **opportunistically** at issue and at every `test`/`wait`: the
//!   executor sweeps the queue oldest-first, executing every step whose
//!   readiness probe succeeds (see below), until a full sweep executes
//!   nothing;
//! * **while waiting**: `nb_wait_id` collects the kernel wake keys of
//!   every runnable-but-stuck head step and blocks on *any* of them
//!   ([`simnet::Ctx::wait_any_until`]), bracketed by
//!   [`Rma::begin_call`](rma::Rma::begin_call)/`end_call` so the LAPI
//!   dispatcher may deliver to this task while it is parked;
//! * **never in the background**: like LAPI itself, progress is made
//!   only inside calls (§2.3 — the dispatcher runs on message arrival
//!   or inside API calls).
//!
//! # Readiness probes
//!
//! Every blocking [`Step`] has a costless probe (`peek` on the flag or
//! counter, `with` on an address mailbox) that decides whether the step
//! would return promptly. Probes are free because the *executed* step
//! still pays the modeled cost; the turn-based kernel makes the
//! probe-then-execute pair atomic (no other LP runs in between).
//!
//! # Ordering classes
//!
//! Schedules synchronize through shared substrate state — double-buffer
//! READY flags, per-side contribution flags, barrier flags, LAPI
//! counters, address mailboxes. All of these encode *per-substrate
//! FIFO* assumptions: a binary pair flag does not say which operation
//! published it, so a reader parked in operation 1 could consume
//! operation 2's publish if the executor ran them out of order. The
//! executor therefore tags every step with the bitset of substrate
//! **classes** it touches (`step_classes`) and enforces:
//!
//! > a pending call may execute its head step only if no *older*
//! > pending call has remaining steps in any of the head's classes.
//!
//! Within one class this reproduces blocking execution order exactly;
//! across classes (an `ibroadcast` over the landing pair, an `ireduce`
//! over the contribution buffers, an `ibarrier` over the barrier
//! flags) schedules interleave freely — which is where the overlap
//! comes from. Since the communicator refactor the ordering rule is
//! additionally scoped **per communicator**: calls on *disjoint*
//! communicators share no substrate at all (each communicator owns its
//! boards, landing state and pairwise registry), so an older schedule
//! on communicator A never class-blocks a younger schedule on
//! communicator B — they interleave freely — while two calls on the
//! *same* communicator keep their issue order exactly as before. The
//! queue itself is **per rank** (shared by all of the rank's
//! communicator handles): a blocking call on any communicator drives
//! every outstanding schedule, so a rank spinning inside one
//! communicator cannot starve a parked schedule its peers on another
//! communicator are waiting for. The oldest call is never
//! class-blocked, so the executor can always name a wake key and the
//! wait cannot sleep forever.
//!
//! Sequence-base relocation happens at **issue** time: the plan's
//! [`Plan::advances`] totals are applied to the live cells immediately,
//! so a later call (blocking or not) samples bases as if every earlier
//! call had already finished — exactly the invariant blocking execution
//! maintains (see DESIGN.md §10.2, "Sequence-base relocation").

use crate::engine::{contrib_drain, ctr_of, flag_of, pair_of, val_of, CallState};
use crate::plan::{BufRef, CtrRef, FlagRef, PairSel, Plan, PlanKey, Step};
use crate::world::SrmComm;
use collops::{DType, ReduceOp};
use shmem::ShmBuffer;
use simnet::Ctx;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Maximum nonblocking collectives outstanding per rank. Issuing one
/// more blocks until *some* outstanding request completes (MPI allows
/// implementations to throttle; bounding the queue bounds the
/// interleaving executor's per-poll scan).
const MAX_OUTSTANDING: usize = 8;

/// Substrate class: the intra-node broadcast pair.
const CL_SMP: u8 = 1 << 0;
/// Substrate class: the landing pair and its flow-control counters.
const CL_LANDING: u8 = 1 << 1;
/// Substrate class: the tree-variant broadcast flags and buffers.
const CL_TREE: u8 = 1 << 2;
/// Substrate class: reduce contribution/landing state and counters.
const CL_REDUCE: u8 = 1 << 3;
/// Substrate class: the master→root `xfer` handoff.
const CL_XFER: u8 = 1 << 4;
/// Substrate class: address mailboxes (handle exchange) and the
/// large-transfer counter.
const CL_ADDR: u8 = 1 << 5;
/// Substrate class: barrier flags and round counters.
const CL_BARRIER: u8 = 1 << 6;
/// Substrate class: the pairwise exchange subsystem — landing rings,
/// per-pair data/credit counter families (see [`crate::pairwise`]).
const CL_PAIRWISE: u8 = 1 << 7;

/// Number of substrate classes (width of the per-call remaining-step
/// counters).
const NCLASSES: usize = 8;

fn flag_class(f: FlagRef) -> u8 {
    match f {
        FlagRef::Barrier { .. } => CL_BARRIER,
        FlagRef::ContribReady { .. } | FlagRef::ContribDone { .. } => CL_REDUCE,
        FlagRef::XferReady { .. } | FlagRef::XferDone { .. } => CL_XFER,
        FlagRef::TreeReady { .. } | FlagRef::TreeDone { .. } => CL_TREE,
    }
}

fn ctr_class(c: CtrRef) -> u8 {
    match c {
        CtrRef::LandingData { .. } | CtrRef::BcastFree { .. } => CL_LANDING,
        CtrRef::ReduceData { .. }
        | CtrRef::ReduceFree { .. }
        | CtrRef::RdData { .. }
        | CtrRef::RdFree { .. }
        | CtrRef::FoldData { .. }
        | CtrRef::FoldFree { .. }
        | CtrRef::UnfoldData { .. } => CL_REDUCE,
        CtrRef::LargeData { .. } => CL_ADDR,
        CtrRef::BarRound { .. } => CL_BARRIER,
        CtrRef::PairwiseData { .. } | CtrRef::PairwiseFree { .. } => CL_PAIRWISE,
        // Direct-route completions serialize with the address exchange
        // they rendezvous through: an older call's consuming waits must
        // retire before a younger call's AddrSend may land in the same
        // slot (the cross-call slot-safety argument, DESIGN.md §16).
        CtrRef::PairwiseDirect { .. } => CL_ADDR,
    }
}

fn buf_class(b: BufRef) -> u8 {
    match b {
        BufRef::User | BufRef::Acc => 0,
        BufRef::Smp { .. } => CL_SMP,
        BufRef::Landing { .. } => CL_LANDING,
        // The contribution buffers are shared between the reduce
        // protocols and the tree-variant broadcast, so steps touching
        // them order against both classes.
        BufRef::Contrib { .. } => CL_REDUCE | CL_TREE,
        BufRef::Xfer => CL_XFER,
        BufRef::ReduceLanding { .. } | BufRef::RdLanding { .. } | BufRef::FoldLanding { .. } => {
            CL_REDUCE
        }
        BufRef::ChildUser { .. } | BufRef::RootUser => CL_ADDR,
        BufRef::PairwiseRing { .. } => CL_PAIRWISE,
        // Scratch is per-call private, but it is published through the
        // address exchange, so its uses order with that class.
        BufRef::Scratch => CL_ADDR,
    }
}

fn pair_class(p: PairSel) -> u8 {
    match p {
        PairSel::Smp => CL_SMP,
        PairSel::Landing => CL_LANDING,
    }
}

/// Bitset of substrate classes a step touches. Steps with class 0
/// (traces, accumulator loads, interrupt toggles, sequence advances)
/// never order against other schedules.
pub(crate) fn step_classes(step: &Step) -> u8 {
    match *step {
        Step::Trace(_) | Step::SetInterrupts(_) | Step::LoadAcc { .. } | Step::Advance { .. } => 0,
        Step::ShmCopy { src, dst, .. } => buf_class(src) | buf_class(dst),
        Step::LocalReduce { src, .. } => buf_class(src),
        Step::FlagRaise { flag, .. }
        | Step::FlagAdd { flag, .. }
        | Step::FlagWaitEq { flag, .. }
        | Step::FlagWaitGe { flag, .. }
        | Step::DrainWait { flag, .. } => flag_class(flag),
        Step::ContribDrained { .. } => CL_REDUCE,
        Step::PairWaitFree { pair, .. }
        | Step::PairPublish { pair, .. }
        | Step::PairWaitPublished { pair, .. }
        | Step::PairRelease { pair, .. }
        | Step::PairWaitDrained { pair, .. } => pair_class(pair),
        Step::RmaPut { src, dst, ctr, .. } => {
            buf_class(src) | buf_class(dst) | ctr.map_or(0, ctr_class)
        }
        Step::CounterPut { ctr, .. } => ctr_class(ctr),
        Step::CounterWait { ctr, .. } => ctr_class(ctr),
        Step::CounterWaitGe { ctr, .. } => ctr_class(ctr),
        Step::CreditWait { ctr, .. } => ctr_class(ctr),
        Step::AddrSend { .. }
        | Step::AddrTake { .. }
        | Step::PairAddrTake { .. }
        | Step::GsRootTake
        | Step::BoardAddrPut
        | Step::BoardAddrTake => CL_ADDR,
        // Allocating a per-call scratch touches only this call's own
        // state; it never orders against other schedules.
        Step::ScratchAlloc { .. } => 0,
    }
}

/// Whether a step can block the executing task (and therefore needs a
/// readiness probe before the interleaving executor runs it).
fn step_blocks(step: &Step) -> bool {
    matches!(
        step,
        Step::FlagWaitEq { .. }
            | Step::FlagWaitGe { .. }
            | Step::DrainWait { .. }
            | Step::ContribDrained { .. }
            | Step::PairWaitFree { .. }
            | Step::PairWaitPublished { .. }
            | Step::PairWaitDrained { .. }
            | Step::CounterWait { .. }
            | Step::CounterWaitGe { .. }
            | Step::CreditWait { .. }
            | Step::AddrTake { .. }
            | Step::PairAddrTake { .. }
            | Step::GsRootTake
            | Step::BoardAddrTake
    )
}

/// Costless probe: would this (blocking) step return promptly if
/// executed now? Steps that never block report ready. The executed
/// step still pays its modeled cost; in the turn-based kernel nothing
/// can run between the probe and the execution.
fn step_ready(comm: &SrmComm, st: &CallState, step: &Step) -> bool {
    let bases = &st.bases;
    match *step {
        Step::FlagWaitEq { flag, val, .. } => {
            flag_of(comm, bases, flag).peek() == val_of(bases, val)
        }
        Step::FlagWaitGe { flag, val, .. } => {
            flag_of(comm, bases, flag).peek() >= val_of(bases, val)
        }
        Step::DrainWait {
            flag,
            base,
            rel,
            scale,
            ..
        } => {
            let cum = bases[base.index()] + rel;
            cum < 2 || flag_of(comm, bases, flag).peek() >= (cum - 1) * scale
        }
        Step::ContribDrained { side } => {
            let (last, done) = contrib_drain(comm, bases, side);
            done.peek() >= last
        }
        Step::PairWaitFree { pair, side } => {
            let q = crate::engine::seq_of(bases, side);
            let bank = pair_of(comm, pair).released((q % 2) as usize);
            (0..bank.len()).all(|i| bank.flag(i).peek() >= q / 2)
        }
        Step::PairWaitPublished { pair, side } => {
            let q = crate::engine::seq_of(bases, side);
            pair_of(comm, pair)
                .ready((q % 2) as usize)
                .flag(comm.cslot())
                .peek()
                > q / 2
        }
        Step::PairWaitDrained { pair, side } => {
            let q = crate::engine::seq_of(bases, side);
            let bank = pair_of(comm, pair).released((q % 2) as usize);
            (0..bank.len()).all(|i| bank.flag(i).peek() > q / 2)
        }
        Step::CounterWait { ctr, n } | Step::CreditWait { ctr, n } => {
            ctr_of(comm, bases, ctr).peek() >= n
        }
        Step::CounterWaitGe { ctr, val } => ctr_of(comm, bases, ctr).peek() >= val_of(bases, val),
        Step::AddrTake { child } => comm.inter(comm.cnode()).addr_slot[child].with(|s| s.is_some()),
        Step::PairAddrTake { from } => comm.pair_addr_slot(from).with(|s| s.is_some()),
        Step::GsRootTake => comm.inter(comm.cnode()).gs_root.with(|s| s.is_some()),
        Step::BoardAddrTake => comm.board().gs_addr.with(|s| s.is_some()),
        _ => true,
    }
}

/// Kernel wake keys of the variables whose writes could make `step`
/// ready — the keys a parked executor sleeps on.
fn step_wait_keys(comm: &SrmComm, st: &CallState, step: &Step, out: &mut Vec<u64>) {
    let bases = &st.bases;
    match *step {
        Step::FlagWaitEq { flag, .. } | Step::FlagWaitGe { flag, .. } => {
            out.push(flag_of(comm, bases, flag).wait_key())
        }
        Step::DrainWait {
            flag, base, rel, ..
        } if bases[base.index()] + rel >= 2 => out.push(flag_of(comm, bases, flag).wait_key()),
        Step::ContribDrained { side } => out.push(contrib_drain(comm, bases, side).1.wait_key()),
        Step::PairWaitFree { pair, side } | Step::PairWaitDrained { pair, side } => {
            let bank = pair_of(comm, pair).released(crate::engine::side_of(bases, side));
            for i in 0..bank.len() {
                out.push(bank.flag(i).wait_key());
            }
        }
        Step::PairWaitPublished { pair, side } => out.push(
            pair_of(comm, pair)
                .ready(crate::engine::side_of(bases, side))
                .flag(comm.cslot())
                .wait_key(),
        ),
        Step::CounterWait { ctr, .. }
        | Step::CounterWaitGe { ctr, .. }
        | Step::CreditWait { ctr, .. } => out.push(ctr_of(comm, bases, ctr).wait_key()),
        Step::AddrTake { child } => out.push(comm.inter(comm.cnode()).addr_slot[child].wait_key()),
        Step::PairAddrTake { from } => out.push(comm.pair_addr_slot(from).wait_key()),
        Step::GsRootTake => out.push(comm.inter(comm.cnode()).gs_root.wait_key()),
        Step::BoardAddrTake => out.push(comm.board().gs_addr.wait_key()),
        _ => {}
    }
}

/// Whether a schedule of this shape writes into the user buffer of the
/// rank whose communicator-relative rank is `crank`. Conservative for
/// shapes the normalizer does not name explicitly (`true`): the
/// aliasing guard only needs "definitely read-only" to admit sharing.
pub(crate) fn shape_writes_user(shape: &crate::plan::PlanShape, crank: usize) -> bool {
    use crate::plan::PlanShape as S;
    match *shape {
        S::Barrier => false,
        // A broadcast root only reads its buffer; everyone else lands
        // the payload in it. Scatter is the same split.
        S::Bcast { root, .. } | S::Scatter { root, .. } => crank != root,
        // Reduce/gather write only at the root.
        S::Reduce { root, .. } | S::Gather { root, .. } => crank == root,
        // Every pairwise/all-to-all shape writes every rank's buffer.
        // Named explicitly because the *direct* route makes the timing
        // stricter, not looser: remote peers put straight into the user
        // buffer as soon as the address exchange lands — earlier than
        // the staged route's final copy-out — so write-aliased sharing
        // between outstanding schedules must stay rejected at issue.
        S::Alltoall { .. }
        | S::Alltoallv { .. }
        | S::ReduceScatter { .. }
        | S::Allgather { .. }
        | S::Allreduce { .. } => true,
        _ => true,
    }
}

/// One outstanding nonblocking collective: its compiled plan, the
/// parked execution state, the communicator handle it was issued on,
/// and per-class counts of remaining steps (the ordering-rule
/// bookkeeping).
pub(crate) struct PendingCall {
    /// Request id handed to the caller.
    pub(crate) id: u64,
    /// Handle on the issuing communicator (a cheap clone): steps of
    /// this call resolve against *its* boards, landing state and seat,
    /// not against whichever handle happens to drive progress.
    comm: SrmComm,
    plan: Arc<Plan>,
    /// The call's user payload (a cheap handle clone; storage is
    /// shared with the caller's buffer).
    buf: ShmBuffer,
    /// Whether this schedule writes into `buf` on this rank (computed
    /// from the normalized shape at issue). Drives the aliasing guard.
    writes_user: bool,
    reduce: Option<(DType, ReduceOp)>,
    st: CallState,
    /// Index of the next step to execute.
    pc: usize,
    /// Remaining steps per substrate class — `rem_mask()` is the OR of
    /// classes with nonzero count, kept incrementally so the ordering
    /// rule costs O(1) per query.
    class_rem: [u32; NCLASSES],
}

impl PendingCall {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: u64,
        comm: SrmComm,
        plan: Arc<Plan>,
        buf: ShmBuffer,
        writes_user: bool,
        reduce: Option<(DType, ReduceOp)>,
        st: CallState,
    ) -> Self {
        let mut class_rem = [0u32; NCLASSES];
        for step in &plan.steps {
            let m = step_classes(step);
            for (c, rem) in class_rem.iter_mut().enumerate() {
                if m & (1 << c) != 0 {
                    *rem += 1;
                }
            }
        }
        PendingCall {
            id,
            comm,
            plan,
            buf,
            writes_user,
            reduce,
            st,
            pc: 0,
            class_rem,
        }
    }

    /// Id of the communicator this call was issued on (the ordering
    /// classes are scoped by it).
    fn comm_id(&self) -> u64 {
        self.comm.comm_id()
    }

    fn done(&self) -> bool {
        self.pc >= self.plan.steps.len()
    }

    /// OR of the classes this call still has steps in.
    fn rem_mask(&self) -> u8 {
        let mut m = 0u8;
        for (c, rem) in self.class_rem.iter().enumerate() {
            if *rem > 0 {
                m |= 1 << c;
            }
        }
        m
    }

    fn retire_step_classes(&mut self, mask: u8) {
        for (c, rem) in self.class_rem.iter_mut().enumerate() {
            if mask & (1 << c) != 0 {
                debug_assert!(*rem > 0);
                *rem -= 1;
            }
        }
    }
}

impl SrmComm {
    /// Compile (or fetch) the plan for `key`, relocate the sequence
    /// bases, and park the call on the pending queue. Returns the
    /// request id. When [`MAX_OUTSTANDING`] schedules are already
    /// pending, blocks until *any* of them retires — not specifically
    /// the oldest, which could force a long wait while a younger
    /// schedule was one step from done.
    pub(crate) fn nb_issue(
        &self,
        ctx: &Ctx,
        key: PlanKey,
        buf: &ShmBuffer,
        reduce: Option<(DType, ReduceOp)>,
    ) -> u64 {
        ctx.perturb_straggler(self.rank());
        if self.shared.pending.lock().expect("queue poisoned").len() >= MAX_OUTSTANDING {
            self.nb_wait_below(ctx, MAX_OUTSTANDING);
        }
        // Aliasing guard: sharing one buffer between outstanding
        // schedules is only safe when *neither* side writes it (e.g. a
        // root sourcing two ibroadcasts from the same payload). Any
        // write-aliased overlap races the interleaving executor, so
        // reject it at issue. `run_planned` routes blocking calls
        // through here whenever anything is pending, so this one check
        // covers the blocking-over-nonblocking overlap too.
        let writes =
            shape_writes_user(&key.clone().normalized(self.size()).shape, self.comm_rank());
        {
            let q = self.shared.pending.lock().expect("queue poisoned");
            for c in q.iter() {
                assert!(
                    !c.buf.same_storage(buf) || !(writes || c.writes_user),
                    "buffer aliasing between outstanding collectives: the new call \
                     shares storage with pending request {} and at least one of them \
                     writes it (read-only sharing is allowed)",
                    c.id
                );
            }
        }
        let plan = self.plan_for(ctx, key);
        // Sequence-base relocation: sample the cells for *this* call,
        // then advance them by the plan's totals immediately, so every
        // later call samples bases as if this one had already run to
        // completion, exactly as blocking execution leaves them.
        // The cells are per (rank, communicator) — a schedule on one
        // communicator never shifts another communicator's bases.
        let bases = self.sample_bases();
        let cells = [
            &self.seat.smp_seq,
            &self.seat.landing_seq,
            &self.seat.tree_seq,
            &self.seat.reduce_cum,
            &self.seat.xfer_cum,
            &self.seat.barrier_seq,
        ];
        for (cell, by) in cells.iter().zip(plan.advances.iter()) {
            cell.fetch_add(*by, Ordering::Relaxed);
        }
        let id = self.shared.next_req.fetch_add(1, Ordering::Relaxed);
        ctx.metrics().nb_issued.fetch_add(1, Ordering::Relaxed);
        self.shared
            .pending
            .lock()
            .expect("queue poisoned")
            .push_back(PendingCall::new(
                id,
                self.clone(),
                plan,
                buf.clone(),
                writes,
                reduce,
                CallState::new(bases, true),
            ));
        self.nb_progress(ctx);
        id
    }

    /// Sweep the pending queue oldest-first, executing every head step
    /// that is ready and not class-blocked, until a full sweep makes no
    /// progress. Retired calls move to the completed set. Class
    /// blocking is scoped per communicator: only older calls on the
    /// *same* communicator contribute to a call's blocking mask.
    pub(crate) fn nb_progress(&self, ctx: &Ctx) {
        loop {
            let mut progressed = false;
            let mut i = 0;
            loop {
                if i >= self.shared.pending.lock().expect("queue poisoned").len() {
                    break;
                }
                // Run call i as far as it can go right now.
                loop {
                    let mut q = self.shared.pending.lock().expect("queue poisoned");
                    let my_comm = q[i].comm_id();
                    let mut older: u8 = 0;
                    for c in q.iter().take(i) {
                        if c.comm_id() == my_comm {
                            older |= c.rem_mask();
                        }
                    }
                    let call = &mut q[i];
                    if call.done() {
                        break;
                    }
                    let step = call.plan.steps[call.pc];
                    let mask = step_classes(&step);
                    if mask & older != 0 {
                        break; // class-blocked behind an older same-comm schedule
                    }
                    if step_blocks(&step) && !step_ready(&call.comm, &call.st, &step) {
                        break; // genuinely waiting: park here
                    }
                    let comm = call.comm.clone();
                    let buf = call.buf.clone();
                    let reduce = call.reduce;
                    call.pc += 1;
                    call.retire_step_classes(mask);
                    comm.exec_step(ctx, &mut call.st, &buf, reduce, &step);
                    ctx.metrics().engine_steps.fetch_add(1, Ordering::Relaxed);
                    progressed = true;
                }
                let retired = {
                    let mut q = self.shared.pending.lock().expect("queue poisoned");
                    if q[i].done() {
                        Some(q.remove(i).expect("index in bounds").id)
                    } else {
                        None
                    }
                };
                match retired {
                    Some(id) => {
                        self.shared
                            .completed
                            .lock()
                            .expect("set poisoned")
                            .insert(id);
                        progressed = true;
                        // Do not bump i: the next call shifted down.
                    }
                    None => i += 1,
                }
            }
            if !progressed {
                return;
            }
        }
    }

    /// OR of the remaining-class masks of same-communicator calls
    /// preceding each queue position, folded left to right by the
    /// caller: tracked as `(comm id, mask)` rows because a rank rarely
    /// holds more than a handful of communicators.
    fn fold_older(older: &mut Vec<(u64, u8)>, comm: u64, mask: u8) {
        match older.iter_mut().find(|(c, _)| *c == comm) {
            Some((_, m)) => *m |= mask,
            None => older.push((comm, mask)),
        }
    }

    fn older_mask(older: &[(u64, u8)], comm: u64) -> u8 {
        older
            .iter()
            .find(|(c, _)| *c == comm)
            .map_or(0, |&(_, m)| m)
    }

    /// Could any non-class-blocked head step execute right now? The
    /// re-check predicate of the parked wait.
    fn nb_any_head_ready(&self) -> bool {
        let q = self.shared.pending.lock().expect("queue poisoned");
        let mut older: Vec<(u64, u8)> = Vec::new();
        for call in q.iter() {
            if !call.done() {
                let step = &call.plan.steps[call.pc];
                if step_classes(step) & Self::older_mask(&older, call.comm_id()) == 0
                    && step_ready(&call.comm, &call.st, step)
                {
                    return true;
                }
            }
            Self::fold_older(&mut older, call.comm_id(), call.rem_mask());
        }
        false
    }

    /// Wake keys of every runnable-but-stuck head step (class-blocked
    /// heads contribute nothing — an older same-communicator schedule
    /// in their class must move first, and its keys are already
    /// included).
    fn nb_collect_wait_keys(&self) -> Vec<u64> {
        let mut keys = Vec::new();
        let q = self.shared.pending.lock().expect("queue poisoned");
        let mut older: Vec<(u64, u8)> = Vec::new();
        for call in q.iter() {
            if !call.done() {
                let step = &call.plan.steps[call.pc];
                if step_classes(step) & Self::older_mask(&older, call.comm_id()) == 0 {
                    step_wait_keys(&call.comm, &call.st, step, &mut keys);
                }
            }
            Self::fold_older(&mut older, call.comm_id(), call.rem_mask());
        }
        keys
    }

    /// Park until a stuck head can move, bracketed as a LAPI call so
    /// the dispatcher delivers to this task meanwhile.
    fn nb_park(&self, ctx: &Ctx, keys: &[u64]) {
        // The oldest schedule is never class-blocked, so it always
        // contributed its head's keys (or was ready, in which case
        // progress would have run it).
        debug_assert!(!keys.is_empty(), "parked executor with no wake keys");
        ctx.metrics().nb_parks.fetch_add(1, Ordering::Relaxed);
        ctx.perturb_stall_point("perturb:stall-park");
        self.rma.begin_call(ctx);
        ctx.wait_any_until(keys, "nb: outstanding collective", || {
            self.nb_any_head_ready()
        });
        self.rma.end_call(ctx);
        ctx.perturb_stall_point("perturb:stall-unpark");
    }

    /// Block until fewer than `cap` schedules are pending (the issue
    /// throttle). Unlike waiting a specific request, this drives every
    /// schedule and returns as soon as the *first* of them retires.
    fn nb_wait_below(&self, ctx: &Ctx, cap: usize) {
        loop {
            self.nb_progress(ctx);
            if self.shared.pending.lock().expect("queue poisoned").len() < cap {
                return;
            }
            let keys = self.nb_collect_wait_keys();
            self.nb_park(ctx, &keys);
        }
    }

    /// Block until request `id` completes, driving every outstanding
    /// schedule meanwhile. Parks on the union of all stuck heads' wake
    /// keys; the LAPI dispatcher may deliver to this task while parked
    /// (the wait is bracketed as an API call).
    pub(crate) fn nb_wait_id(&self, ctx: &Ctx, id: u64) {
        loop {
            self.nb_progress(ctx);
            if self
                .shared
                .completed
                .lock()
                .expect("set poisoned")
                .remove(&id)
            {
                return;
            }
            assert!(
                self.shared
                    .pending
                    .lock()
                    .expect("queue poisoned")
                    .iter()
                    .any(|c| c.id == id),
                "wait on unknown or already-waited request {id}"
            );
            let keys = self.nb_collect_wait_keys();
            self.nb_park(ctx, &keys);
        }
    }

    /// Nonblocking completion check for request `id`: makes progress
    /// (including one dispatcher poll, so pending network deliveries
    /// land) and reports whether the schedule has retired. Does not
    /// consume the completion — `wait` still must be called.
    pub(crate) fn nb_test(&self, ctx: &Ctx, id: u64) -> bool {
        self.nb_progress(ctx);
        if !self
            .shared
            .completed
            .lock()
            .expect("set poisoned")
            .contains(&id)
        {
            self.rma.poll(ctx, ctx.config().lapi_counter_check);
            self.nb_progress(ctx);
        }
        let done = self
            .shared
            .completed
            .lock()
            .expect("set poisoned")
            .contains(&id);
        assert!(
            done || self
                .shared
                .pending
                .lock()
                .expect("queue poisoned")
                .iter()
                .any(|c| c.id == id),
            "test on unknown or already-waited request {id}"
        );
        done
    }
}
