//! The collective-plan IR: every SRM collective compiles into a
//! per-rank [`Plan`] — a straight-line schedule of primitive [`Step`]s
//! — which the [engine](crate::engine) replays against the shared and
//! remote memory substrates.
//!
//! Plans are **cacheable**: nothing in a step refers to the mutable
//! protocol state directly. Buffer sides, cumulative flag targets and
//! drain guards are expressed relative to the per-rank cumulative
//! sequence cells ([`SeqBase`]), which the engine samples once at the
//! start of a call. Re-running the same plan later therefore resolves
//! to fresh buffer parities and flag values automatically, and a call
//! of a given shape `(op, root, len)` plans exactly once per
//! (rank, communicator) seat (see [`PlanCache`]).
//!
//! Since the communicator refactor every structural operand that names
//! a node (`node`, `src`, `dst`, `child` fields below) is a **group
//! node index** — an index into the communicator's node list — and
//! every root is a **comm rank**. On the world communicator these
//! coincide with world node ids and world ranks, and the compiled
//! plans are identical to the pre-communicator ones.
//!
//! The reduction operator and datatype are *late-bound*: a plan for
//! `reduce(len, root)` serves every `(dtype, op)` pair, because the
//! only data-dependent step, [`Step::LocalReduce`], reads them from the
//! executing call.

use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use simnet::{NodeId, Rank};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Fault-injection switch: when enabled, planners omit the
/// contribution drain guard ([`Step::ContribDrained`]), so a slot may
/// refill a buffer side its consumer has not read yet. Exists so the
/// schedule-exploration harness can prove it detects that overwrite.
/// Test-harness machinery: process-global, read at *plan build* time
/// (set it before any collective runs), never for protocol use.
static SKIP_CONTRIB_DRAIN: AtomicBool = AtomicBool::new(false);

/// Enable or disable the drain-guard omission fault injection; returns
/// the previous setting. See `SKIP_CONTRIB_DRAIN`'s caveats.
pub fn set_skip_contrib_drain(enabled: bool) -> bool {
    SKIP_CONTRIB_DRAIN.swap(enabled, Ordering::SeqCst)
}

/// Whether planners should omit the contribution drain guard.
pub(crate) fn skip_contrib_drain() -> bool {
    SKIP_CONTRIB_DRAIN.load(Ordering::SeqCst)
}

/// The per-rank cumulative sequence cells a plan's relative values are
/// resolved against. The engine samples all of them once when a call
/// starts; `Seq { base, rel }` then means `sample[base] + rel`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SeqBase {
    /// Uses of the node's SMP pair (broadcast cells and intra-node
    /// distribution pieces).
    Smp,
    /// Chunks through the node's landing pair.
    Landing,
    /// Chunks through the tree-variant broadcast buffers.
    Tree,
    /// Reduce chunks through the contribution buffers.
    Reduce,
    /// Chunks through the master→root `xfer` handoff buffer.
    Xfer,
    /// Barriers completed.
    Barrier,
}

/// Number of [`SeqBase`] cells (size of the engine's sample array).
pub const SEQ_BASES: usize = 6;

impl SeqBase {
    /// Index of this base in the engine's sample array.
    pub fn index(self) -> usize {
        match self {
            SeqBase::Smp => 0,
            SeqBase::Landing => 1,
            SeqBase::Tree => 2,
            SeqBase::Reduce => 3,
            SeqBase::Xfer => 4,
            SeqBase::Barrier => 5,
        }
    }
}

/// A `u64` resolved at execution time.
#[derive(Clone, Copy, Debug)]
pub enum Val {
    /// A literal.
    Lit(u64),
    /// `bases[base] + rel` — a cumulative flag/counter target.
    Seq {
        /// Sequence cell to resolve against.
        base: SeqBase,
        /// Offset added to the sampled base.
        rel: u64,
    },
}

/// A double-buffer side (0 or 1) resolved at execution time.
#[derive(Clone, Copy, Debug)]
pub enum Side {
    /// A fixed side (the Sistare variant uses a single buffer).
    Lit(usize),
    /// `(bases[base] + rel) % 2` — consecutive operations alternate
    /// buffers.
    Parity {
        /// Sequence cell driving the alternation.
        base: SeqBase,
        /// Chunk index within this plan.
        rel: u64,
    },
}

/// A byte offset resolved at execution time.
#[derive(Clone, Copy, Debug)]
pub enum Off {
    /// A fixed offset.
    Lit(usize),
    /// `((bases[base] + rel) % 2) * stride` — the side-selected half of
    /// a parity-double-buffered staging area.
    Parity {
        /// Sequence cell driving the alternation.
        base: SeqBase,
        /// Chunk index within this plan.
        rel: u64,
        /// Byte stride between the two halves.
        stride: usize,
    },
}

/// Which side of a [`Step::ShmCopy`] pays the simulated memory cost.
///
/// The SRM protocols charge each logical data movement exactly once:
/// a copy *into* shared memory is charged as the shared-side write
/// (the private-side read rides the same pass), a copy *out of* shared
/// memory as the shared-side read, and operator output streams (an
/// accumulator staged for a put) are free because the last operator
/// pass already produced the bytes.
#[derive(Clone, Copy, Debug)]
pub enum CopyCost {
    /// No charge (operator output stream).
    Free,
    /// Charge a read of the source with this many concurrent streams.
    Read(usize),
    /// Charge a write of the destination with this many streams.
    Write(usize),
}

/// A buffer operand. `User` is the executing call's payload buffer;
/// everything else names a shared structure of the fabric or a handle
/// the plan captured earlier ([`Step::AddrTake`] and friends).
#[derive(Clone, Copy, Debug)]
pub enum BufRef {
    /// The collective call's user payload buffer.
    User,
    /// The executor's private accumulator (operator scratch).
    Acc,
    /// My node's intra-node broadcast pair, one side.
    Smp {
        /// Which side.
        side: Side,
    },
    /// `node`'s landing pair, one side (remote for put targets).
    Landing {
        /// Whose landing pair.
        node: NodeId,
        /// Which side.
        side: Side,
    },
    /// My node's per-slot contribution buffer.
    Contrib {
        /// Which slot's buffer.
        slot: usize,
    },
    /// My node's master→root `xfer` handoff buffer.
    Xfer,
    /// `node`'s reduce landing buffer for puts from `src`, side by
    /// [`SeqBase::Reduce`] parity.
    ReduceLanding {
        /// Whose landing (the put target's node).
        node: NodeId,
        /// The sending node.
        src: NodeId,
        /// Chunk index within this plan (parity).
        rel: u64,
    },
    /// `node`'s recursive-doubling landing for `round`.
    RdLanding {
        /// Whose landing.
        node: NodeId,
        /// Recursive-doubling round.
        round: usize,
    },
    /// `node`'s fold/unfold landing.
    FoldLanding {
        /// Whose landing.
        node: NodeId,
    },
    /// The user-buffer handle taken by the `idx`-th [`Step::AddrTake`]
    /// of this plan (large-broadcast children, in take order).
    ChildUser {
        /// Capture index.
        idx: usize,
    },
    /// The gather root's user-buffer handle (captured by
    /// [`Step::GsRootTake`] or [`Step::BoardAddrTake`]).
    RootUser,
    /// `node`'s pairwise landing ring for puts from node `src` — a ring
    /// of [`SrmTuning::pairwise_window`](crate::SrmTuning) slots of
    /// `pairwise_chunk` bytes each. Ring offsets are plan literals: the
    /// credit protocol guarantees every ring is drained when a pairwise
    /// operation completes, so each call indexes slots from 0.
    PairwiseRing {
        /// Whose landing ring (the put target's node).
        node: NodeId,
        /// The sending node.
        src: NodeId,
    },
    /// The executing call's per-call scratch buffer, allocated by
    /// [`Step::ScratchAlloc`] (direct-route reduce_scatter fold
    /// staging). Dies with the call.
    Scratch,
}

/// A LAPI-style counter operand, named structurally. Counters indexed
/// by a buffer side resolve it from the indicated cumulative base.
#[derive(Clone, Copy, Debug)]
pub enum CtrRef {
    /// `node`'s landing-pair data counter ([`SeqBase::Landing`] side).
    LandingData {
        /// Whose counter.
        node: NodeId,
        /// Chunk index (parity).
        rel: u64,
    },
    /// `node`'s broadcast credit toward `child` ([`SeqBase::Landing`]).
    BcastFree {
        /// Whose credit pool.
        node: NodeId,
        /// The child edge.
        child: NodeId,
        /// Chunk index (parity).
        rel: u64,
    },
    /// `node`'s reduce data counter for puts from `src`
    /// ([`SeqBase::Reduce`] side).
    ReduceData {
        /// Whose counter.
        node: NodeId,
        /// The sending node.
        src: NodeId,
        /// Chunk index (parity).
        rel: u64,
    },
    /// `node`'s reduce credit toward destination `dst`
    /// ([`SeqBase::Reduce`] side).
    ReduceFree {
        /// Whose credit pool.
        node: NodeId,
        /// The destination node.
        dst: NodeId,
        /// Chunk index (parity).
        rel: u64,
    },
    /// `node`'s large-transfer chunk counter.
    LargeData {
        /// Whose counter.
        node: NodeId,
    },
    /// `node`'s recursive-doubling data counter for `round`.
    RdData {
        /// Whose counter.
        node: NodeId,
        /// Round.
        round: usize,
    },
    /// `node`'s recursive-doubling credit for `round`.
    RdFree {
        /// Whose counter.
        node: NodeId,
        /// Round.
        round: usize,
    },
    /// `node`'s fold-in data counter.
    FoldData {
        /// Whose counter.
        node: NodeId,
    },
    /// `node`'s fold-in credit.
    FoldFree {
        /// Whose counter.
        node: NodeId,
    },
    /// `node`'s unfold data counter.
    UnfoldData {
        /// Whose counter.
        node: NodeId,
    },
    /// `node`'s dissemination-barrier counter for `round`.
    BarRound {
        /// Whose counter.
        node: NodeId,
        /// Round.
        round: usize,
    },
    /// The pairwise data counter of the `(src → node)` stream, bumped
    /// by each of `src`'s puts into `node`'s landing ring (one counter
    /// per ordered node pair — see [`rma::CounterFamily`]).
    PairwiseData {
        /// The receiving node (counter owner).
        node: NodeId,
        /// The sending node.
        src: NodeId,
    },
    /// The pairwise credit counter of the `(node → dst)` stream, held
    /// at the source and restored by the destination's zero-byte put
    /// when a ring slot drains (init
    /// [`SrmTuning::pairwise_window`](crate::SrmTuning)).
    PairwiseFree {
        /// The sending node (counter owner).
        node: NodeId,
        /// The destination node.
        dst: NodeId,
    },
    /// The **direct-route** completion counter of the `(src → dst)`
    /// comm-rank stream, bumped at `dst` by each of `src`'s direct puts
    /// into `dst`'s user or scratch buffer (one counter per ordered
    /// comm-rank pair). The receiver's consuming waits are the drain:
    /// the counter is back at zero when the call returns.
    PairwiseDirect {
        /// The sending comm rank.
        src: usize,
        /// The receiving comm rank (counter owner).
        dst: usize,
    },
}

/// A spin-flag operand on my node's board.
#[derive(Clone, Copy, Debug)]
pub enum FlagRef {
    /// Flat-barrier flag of `slot`.
    Barrier {
        /// Which slot's flag.
        slot: usize,
    },
    /// Contribution channel of `slot`, one flag per buffer side: the
    /// owning slot raises it to `u + 1` when it publishes use `u` on
    /// that side.
    ContribReady {
        /// Which slot's channel.
        slot: usize,
        /// Which buffer side.
        side: Side,
    },
    /// Contribution channel of `slot`, one flag per buffer side: the
    /// consumer raises it to `u + 1` when it has drained use `u`.
    ContribDone {
        /// Which slot's channel.
        slot: usize,
        /// Which buffer side.
        side: Side,
    },
    /// The `xfer` handoff, one flag per buffer side: the producer
    /// (master or root) raises it to `u + 1` when use `u` is written.
    XferReady {
        /// Which buffer side.
        side: Side,
    },
    /// The `xfer` handoff, one flag per buffer side: the consumer
    /// raises it to `u + 1` when use `u` is drained.
    XferDone {
        /// Which buffer side.
        side: Side,
    },
    /// Tree-variant publish counter of `slot`.
    TreeReady {
        /// Which slot's flag.
        slot: usize,
    },
    /// Tree-variant drain counter of `slot`.
    TreeDone {
        /// Which slot's flag.
        slot: usize,
    },
}

/// Which of my node's double-buffer pairs a pair-protocol step drives.
#[derive(Clone, Copy, Debug)]
pub enum PairSel {
    /// The intra-node broadcast pair.
    Smp,
    /// The landing pair.
    Landing,
}

/// Which handle an [`Step::AddrSend`] ships.
#[derive(Clone, Copy, Debug)]
pub enum HandleSrc {
    /// The executing call's user buffer.
    User,
    /// The gather root's captured user buffer.
    RootUser,
    /// The executing call's scratch buffer (must have been allocated by
    /// an earlier [`Step::ScratchAlloc`] of the same plan).
    Scratch,
}

/// One primitive operation of a schedule. The engine executes steps in
/// order; blocking steps yield to the simulator exactly like the
/// direct-style protocols they were compiled from.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// Emit a protocol trace event (preserves the legacy markers).
    Trace(&'static str),
    /// Toggle LAPI interrupts on my dispatcher.
    SetInterrupts(bool),
    /// Copy `len` bytes between buffers, charging per [`CopyCost`].
    ShmCopy {
        /// Source buffer.
        src: BufRef,
        /// Source byte offset.
        src_off: Off,
        /// Destination buffer.
        dst: BufRef,
        /// Destination byte offset.
        dst_off: Off,
        /// Bytes to move.
        len: usize,
        /// Which side is charged, and with how many streams.
        cost: CopyCost,
    },
    /// Snapshot `user[off..off+len]` into the accumulator (free: the
    /// operator's input stream).
    LoadAcc {
        /// User-buffer offset.
        off: usize,
        /// Bytes.
        len: usize,
    },
    /// Fold `src[src_off..src_off+len]` into the accumulator with the
    /// executing call's `(dtype, op)` — operator execution only.
    LocalReduce {
        /// Contribution buffer.
        src: BufRef,
        /// Its byte offset.
        src_off: Off,
        /// Bytes.
        len: usize,
    },
    /// Set `flag` to `val` (cumulative flags only ever grow).
    FlagRaise {
        /// Target flag.
        flag: FlagRef,
        /// New value.
        val: Val,
    },
    /// `fetch_add(n)` on `flag` (tree-variant drain counting).
    FlagAdd {
        /// Target flag.
        flag: FlagRef,
        /// Increment.
        n: u64,
    },
    /// Block until `flag == val`.
    FlagWaitEq {
        /// Flag to watch.
        flag: FlagRef,
        /// Value to wait for.
        val: Val,
        /// Wait label for traces and deadlock reports.
        label: &'static str,
    },
    /// Block until `flag >= val`.
    FlagWaitGe {
        /// Flag to watch.
        flag: FlagRef,
        /// Threshold.
        val: Val,
        /// Wait label.
        label: &'static str,
    },
    /// The drain guard of a gap-free channel (every use is produced and
    /// consumed): with `cum = bases[base] + rel`, if `cum >= 2` wait
    /// until `flag >= (cum - 1) * scale` (the side about to be
    /// overwritten has been drained `scale` times).
    DrainWait {
        /// Flag to watch.
        flag: FlagRef,
        /// Cumulative base.
        base: SeqBase,
        /// Chunk index within this plan.
        rel: u64,
        /// Consumers per chunk (1 except for the tree variant).
        scale: u64,
        /// Wait label.
        label: &'static str,
    },
    /// The contribution drain guard of my own slot: block until this
    /// side's `ContribDone` has reached my last publish on the side
    /// (my `ContribReady` value there). Only the owner publishes on its
    /// channel, so uses an operation skips need no re-synchronization.
    ContribDrained {
        /// Which buffer side is about to be refilled.
        side: Side,
    },
    /// Writer claim of a pair side (block until every reader released).
    PairWaitFree {
        /// Which pair.
        pair: PairSel,
        /// Which side.
        side: Side,
    },
    /// Raise the READY flag of every other slot for a pair side.
    PairPublish {
        /// Which pair.
        pair: PairSel,
        /// Which side.
        side: Side,
    },
    /// Reader wait for my READY flag on a pair side.
    PairWaitPublished {
        /// Which pair.
        pair: PairSel,
        /// Which side.
        side: Side,
    },
    /// Reader release of a pair side.
    PairRelease {
        /// Which pair.
        pair: PairSel,
        /// Which side.
        side: Side,
    },
    /// Writer wait until the use it *published* is fully released (the
    /// drain-acknowledge before returning a flow-control credit to a
    /// remote producer). Distinct from [`Step::PairWaitFree`], which
    /// waits for the *previous* use of the side.
    PairWaitDrained {
        /// Which pair.
        pair: PairSel,
        /// Which side.
        side: Side,
    },
    /// One-sided put to rank `to`, optionally bumping a counter there.
    RmaPut {
        /// Target rank (a master).
        to: Rank,
        /// Source buffer (mine).
        src: BufRef,
        /// Source offset.
        src_off: Off,
        /// Destination buffer (the target's).
        dst: BufRef,
        /// Destination offset.
        dst_off: Off,
        /// Bytes.
        len: usize,
        /// Counter bumped at the target on completion.
        ctr: Option<CtrRef>,
    },
    /// Zero-byte put that only bumps a counter at rank `to`.
    CounterPut {
        /// Target rank.
        to: Rank,
        /// Counter to bump.
        ctr: CtrRef,
    },
    /// Consume `n` from a counter (LAPI `Waitcntr` semantics).
    CounterWait {
        /// Counter to drain.
        ctr: CtrRef,
        /// Count to consume.
        n: u64,
    },
    /// Block until a counter reaches `val` without consuming.
    CounterWaitGe {
        /// Counter to watch.
        ctr: CtrRef,
        /// Threshold.
        val: Val,
    },
    /// Consume `n` flow-control credits from a pairwise credit counter
    /// (same wait semantics as [`Step::CounterWait`], but the engine
    /// counts a `credit_stalls` metric when no credit is available —
    /// the observable of the pairwise window).
    CreditWait {
        /// Credit counter to drain.
        ctr: CtrRef,
        /// Credits to consume.
        n: u64,
    },
    /// Ship a buffer handle to rank `to` via active message `am`.
    AddrSend {
        /// Target rank (a master).
        to: Rank,
        /// Active-message handler id.
        am: u32,
        /// Which handle to ship.
        src: HandleSrc,
    },
    /// Take the handle `child`'s master sent me (large broadcast) and
    /// append it to the capture list ([`BufRef::ChildUser`] indices).
    AddrTake {
        /// The child node.
        child: NodeId,
    },
    /// Take the handle comm rank `from` sent me through the per-call
    /// pairwise address exchange (direct route) and append it to the
    /// capture list ([`BufRef::ChildUser`] indices — shared with
    /// [`Step::AddrTake`]).
    PairAddrTake {
        /// The sending comm rank.
        from: usize,
    },
    /// Allocate this call's `len`-byte scratch buffer
    /// ([`BufRef::Scratch`]); its handle can then be shipped with
    /// [`HandleSrc::Scratch`].
    ScratchAlloc {
        /// Scratch capacity in bytes.
        len: usize,
    },
    /// Take the gather-root handle another master sent me.
    GsRootTake,
    /// Publish my user-buffer handle on my node's board (gather root
    /// that is not the node master).
    BoardAddrPut,
    /// Take the handle the gather root published on my node's board.
    BoardAddrTake,
    /// Advance a cumulative sequence cell (end-of-protocol bookkeeping;
    /// the engine's sampled bases are unaffected).
    Advance {
        /// Which cell.
        base: SeqBase,
        /// Chunks pushed through it by this plan.
        by: u64,
    },
}

impl Step {
    /// Short static label for the per-step trace hook and debugging.
    pub fn label(&self) -> &'static str {
        match self {
            Step::Trace(_) => "step:trace",
            Step::SetInterrupts(_) => "step:interrupts",
            Step::ShmCopy { .. } => "step:shm-copy",
            Step::LoadAcc { .. } => "step:load-acc",
            Step::LocalReduce { .. } => "step:local-reduce",
            Step::FlagRaise { .. } => "step:flag-raise",
            Step::FlagAdd { .. } => "step:flag-add",
            Step::FlagWaitEq { .. } | Step::FlagWaitGe { .. } => "step:flag-wait",
            Step::DrainWait { .. } | Step::ContribDrained { .. } => "step:drain-wait",
            Step::PairWaitFree { .. } => "step:pair-wait-free",
            Step::PairPublish { .. } => "step:pair-publish",
            Step::PairWaitPublished { .. } => "step:pair-wait-published",
            Step::PairRelease { .. } => "step:pair-release",
            Step::PairWaitDrained { .. } => "step:pair-wait-drained",
            Step::RmaPut { .. } => "step:rma-put",
            Step::CounterPut { .. } => "step:counter-put",
            Step::CounterWait { .. } | Step::CounterWaitGe { .. } => "step:counter-wait",
            Step::CreditWait { .. } => "step:credit-wait",
            Step::AddrSend { .. } => "step:addr-send",
            Step::AddrTake { .. } | Step::PairAddrTake { .. } | Step::GsRootTake => {
                "step:addr-take"
            }
            Step::ScratchAlloc { .. } => "step:scratch-alloc",
            Step::BoardAddrPut => "step:board-addr-put",
            Step::BoardAddrTake => "step:board-addr-take",
            Step::Advance { .. } => "step:advance",
        }
    }
}

/// A compiled per-rank schedule: the full step sequence of one
/// collective call for one rank.
#[derive(Debug, Default)]
pub struct Plan {
    /// The steps, executed in order.
    pub steps: Vec<Step>,
    /// Total amount this plan advances each [`SeqBase`] cell (the sum
    /// of its [`Step::Advance`] steps, indexed by [`SeqBase::index`]).
    /// The nonblocking issue path applies these to the live cells *at
    /// issue time* — see the sequence-base relocation rule in
    /// `DESIGN.md` — so a later call outstanding concurrently samples
    /// bases as if this one had already completed.
    pub advances: [u64; SEQ_BASES],
}

impl Plan {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty schedule (trivial calls compile to nothing).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// Incremental plan construction. The builder tracks, per [`SeqBase`],
/// how far the plan has already advanced each cumulative cell, so
/// planners composed back to back (allgather = gather ++ broadcast)
/// emit correctly offset relative values.
/// The builder also carries the **effective tuning** of the call shape
/// being compiled: the world's decision defaults, overlaid with the
/// matching [`TuneTable`](crate::TuneTable) entry when a table is
/// loaded. Planners read decision knobs (switch points, chunk choices)
/// from here; buffer *geometry* (cell sizes, contribution strides)
/// always comes from the world tuning, which sizes the shared buffers.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    steps: Vec<Step>,
    adv: [u64; SEQ_BASES],
    addrs: usize,
    tuning: SrmTuning,
}

impl PlanBuilder {
    /// Fresh, empty builder with default decision knobs (unit tests;
    /// production compiles go through [`PlanBuilder::with_tuning`]).
    pub fn new() -> Self {
        PlanBuilder::default()
    }

    /// Fresh, empty builder compiling under `tuning` — the effective
    /// per-shape decision knobs.
    pub fn with_tuning(tuning: SrmTuning) -> Self {
        PlanBuilder {
            tuning,
            ..PlanBuilder::default()
        }
    }

    /// The effective decision knobs of the call shape being compiled.
    pub fn tuning(&self) -> &SrmTuning {
        &self.tuning
    }

    /// Append a step.
    pub fn push(&mut self, step: Step) {
        self.steps.push(step);
    }

    /// How far this plan has advanced `base` so far — the relative
    /// origin for the next protocol leg using that cell.
    pub fn rel(&self, base: SeqBase) -> u64 {
        self.adv[base.index()]
    }

    /// Record that the plan pushes `by` chunks through `base` (emits
    /// the [`Step::Advance`] and shifts subsequent [`Self::rel`]s).
    pub fn advance(&mut self, base: SeqBase, by: u64) {
        if by == 0 {
            return;
        }
        self.adv[base.index()] += by;
        self.steps.push(Step::Advance { base, by });
    }

    /// Emit an [`Step::AddrTake`] for `child` and return its capture
    /// index (for [`BufRef::ChildUser`]).
    pub fn take_addr(&mut self, child: NodeId) -> usize {
        let idx = self.addrs;
        self.addrs += 1;
        self.steps.push(Step::AddrTake { child });
        idx
    }

    /// Emit a [`Step::PairAddrTake`] for the handle comm rank `from`
    /// sent through the pairwise address exchange and return its
    /// capture index (same [`BufRef::ChildUser`] index space as
    /// [`PlanBuilder::take_addr`]).
    pub fn take_pair_addr(&mut self, from: usize) -> usize {
        let idx = self.addrs;
        self.addrs += 1;
        self.steps.push(Step::PairAddrTake { from });
        idx
    }

    /// Finish: hand over the plan, with its per-base advance totals.
    pub fn finish(self) -> Plan {
        Plan {
            steps: self.steps,
            advances: self.adv,
        }
    }
}

/// The shape of a collective call. Topology, tuning and tree kind are
/// fixed per world, the group is fixed per communicator, the datatype
/// and operator are late-bound, so the shape is fully described by the
/// operation, the payload length, the root (a **comm rank**, for
/// rooted operations only) and — for `alltoallv` — the count matrix.
/// Not `Copy`: the alltoallv shape shares its counts by `Arc`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum PlanShape {
    /// `broadcast(len, root)`.
    Bcast {
        /// Payload bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// `reduce(len, root)` (any datatype/operator).
    Reduce {
        /// Payload bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// `allreduce(len)` (any datatype/operator).
    Allreduce {
        /// Payload bytes.
        len: usize,
    },
    /// `barrier()`.
    Barrier,
    /// `gather(len, root)` — `len` is the per-rank segment.
    Gather {
        /// Per-rank segment bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// `scatter(len, root)` — `len` is the per-rank segment.
    Scatter {
        /// Per-rank segment bytes.
        len: usize,
        /// Root rank.
        root: Rank,
    },
    /// `allgather(len)` — `len` is the per-rank segment.
    Allgather {
        /// Per-rank segment bytes.
        len: usize,
    },
    /// `alltoall(len)` — `len` is the per-pair segment (rootless).
    Alltoall {
        /// Per-pair segment bytes.
        len: usize,
    },
    /// `alltoallv(seg, counts)` — per-pair counts on a `seg`-strided
    /// segment grid; `counts[i*n + j]` is the bytes rank `i` sends
    /// rank `j`.
    Alltoallv {
        /// Segment grid stride (every count is at most this).
        seg: usize,
        /// Flattened `n × n` count matrix.
        counts: Arc<[usize]>,
    },
    /// `reduce_scatter(len)` — `len` is the per-rank result segment
    /// (any datatype/operator, rootless).
    ReduceScatter {
        /// Per-rank segment bytes.
        len: usize,
    },
    /// Stand-alone intra-node broadcast (flat two-buffer algorithm).
    SmpBcast {
        /// Payload bytes.
        len: usize,
        /// Writing rank.
        writer: Rank,
    },
    /// Intra-node broadcast, tree-based ablation variant.
    SmpBcastTree {
        /// Payload bytes.
        len: usize,
        /// Writing rank.
        writer: Rank,
    },
    /// Intra-node broadcast, barrier-synchronized ablation variant.
    SmpBcastSistare {
        /// Payload bytes.
        len: usize,
        /// Writing rank.
        writer: Rank,
    },
}

/// Cache key: a [`PlanShape`] scoped to the communicator it was issued
/// on. The comm dimension keeps keys from distinct communicators
/// distinct even though caches are already per (rank, communicator) —
/// and it is what the per-communicator plan metrics are attributed by.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Communicator id (0 = world).
    pub comm: u64,
    /// The call shape.
    pub shape: PlanShape,
}

impl PlanKey {
    /// Canonicalize call shapes that compile to identical plans, so
    /// equivalent calls share one LRU slot instead of splitting the
    /// cache across them (`csize` is the communicator's size):
    ///
    /// * On a **single-member** communicator every collective except
    ///   alltoall/alltoallv compiles to the empty schedule (alltoall
    ///   still copies the caller's own segment into the result half of
    ///   its buffer, so it is *not* trivial), and every such shape
    ///   collapses to the canonical `Barrier`.
    /// * A rooted operation with an **empty payload** compiles to the
    ///   empty schedule regardless of root, and normalizes to root 0.
    /// * A rootless allgather/allreduce/alltoall with an empty payload
    ///   likewise compiles to the empty schedule; all three collapse to
    ///   the canonical `Allreduce { len: 0 }` slot.
    pub fn normalized(self, csize: usize) -> PlanKey {
        use PlanShape as S;
        let trivial = csize == 1;
        let shape = match self.shape {
            S::Alltoall { .. } | S::Alltoallv { .. } if trivial => self.shape,
            _ if trivial => S::Barrier,
            S::Bcast { len, .. } if len == 0 => S::Bcast { len, root: 0 },
            S::Reduce { len, .. } if len == 0 => S::Reduce { len, root: 0 },
            S::Gather { len, .. } if len == 0 => S::Gather { len, root: 0 },
            S::Scatter { len, .. } if len == 0 => S::Scatter { len, root: 0 },
            S::Allgather { len } | S::Allreduce { len } | S::Alltoall { len } if len == 0 => {
                S::Allreduce { len: 0 }
            }
            s => s,
        };
        PlanKey {
            comm: self.comm,
            shape,
        }
    }
}

/// Per-(rank, communicator) LRU cache of compiled plans, keyed by call
/// shape.
/// Capacity comes from [`SrmTuning::plan_cache_cap`](crate::SrmTuning::plan_cache_cap)
/// (`crate::SrmTuning`); the benchmark sweeps repeat each shape
/// hundreds of times, so a small cache removes all re-planning from
/// the measurement loops.
#[derive(Debug)]
pub struct PlanCache {
    cap: usize,
    entries: Vec<(PlanKey, Arc<Plan>)>,
}

impl PlanCache {
    /// Cache with room for `cap` plans (0 disables caching).
    pub fn new(cap: usize) -> Self {
        PlanCache {
            cap,
            entries: Vec::new(),
        }
    }

    /// Look up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<Plan>> {
        let pos = self.entries.iter().position(|(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        let plan = entry.1.clone();
        self.entries.insert(0, entry);
        Some(plan)
    }

    /// Insert a freshly compiled plan, evicting the least recently
    /// used entry if full.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<Plan>) {
        if self.cap == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        }
        self.entries.insert(0, (key, plan));
        self.entries.truncate(self.cap);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl SrmComm {
    /// Wrap a call shape in this communicator's cache key.
    pub fn key(&self, shape: PlanShape) -> PlanKey {
        PlanKey {
            comm: self.comm_id(),
            shape,
        }
    }

    /// Compile the plan for `key` on this rank (no caching — the
    /// cached path is [`SrmComm::plan_for`]). The builder carries the
    /// **effective tuning** of the shape — the world's decision
    /// defaults, overlaid with the loaded tuning-table entry if one
    /// matches — which is a pure function of the shape, so every rank
    /// resolves the same knobs and compiles consistent plans.
    pub fn build_plan(&self, key: &PlanKey) -> Plan {
        let mut b = PlanBuilder::with_tuning(self.effective_tuning(&key.shape));
        match &key.shape {
            PlanShape::Bcast { len, root } => self.plan_bcast(&mut b, *len, *root),
            PlanShape::Reduce { len, root } => self.plan_reduce(&mut b, *len, *root),
            PlanShape::Allreduce { len } => self.plan_allreduce(&mut b, *len),
            PlanShape::Barrier => self.plan_barrier(&mut b),
            PlanShape::Gather { len, root } => self.plan_gather(&mut b, *len, *root),
            PlanShape::Scatter { len, root } => self.plan_scatter(&mut b, *len, *root),
            PlanShape::Allgather { len } => self.plan_allgather(&mut b, *len),
            PlanShape::Alltoall { len } => self.plan_alltoall(&mut b, *len),
            PlanShape::Alltoallv { seg, counts } => self.plan_alltoallv(&mut b, *seg, counts),
            PlanShape::ReduceScatter { len } => self.plan_reduce_scatter(&mut b, *len),
            PlanShape::SmpBcast { len, writer } => self.plan_smp_bcast(&mut b, *len, *writer),
            PlanShape::SmpBcastTree { len, writer } => {
                self.plan_smp_bcast_tree(&mut b, *len, *writer)
            }
            PlanShape::SmpBcastSistare { len, writer } => {
                self.plan_smp_bcast_sistare(&mut b, *len, *writer)
            }
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(shape: PlanShape) -> PlanKey {
        PlanKey { comm: 0, shape }
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = PlanCache::new(2);
        let p = Arc::new(Plan::default());
        c.insert(key(PlanShape::Barrier), p.clone());
        c.insert(key(PlanShape::Allreduce { len: 8 }), p.clone());
        assert!(c.get(&key(PlanShape::Barrier)).is_some()); // refresh
        c.insert(key(PlanShape::Allgather { len: 8 }), p);
        assert!(c.get(&key(PlanShape::Barrier)).is_some());
        assert!(c.get(&key(PlanShape::Allreduce { len: 8 })).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PlanCache::new(0);
        c.insert(key(PlanShape::Barrier), Arc::new(Plan::default()));
        assert!(c.get(&key(PlanShape::Barrier)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn comm_dimension_keeps_keys_distinct() {
        let mut c = PlanCache::new(4);
        let p = Arc::new(Plan::default());
        c.insert(key(PlanShape::Barrier), p);
        let other = PlanKey {
            comm: 7,
            shape: PlanShape::Barrier,
        };
        assert!(c.get(&other).is_none());
        assert!(c.get(&key(PlanShape::Barrier)).is_some());
    }

    #[test]
    fn normalized_collapses_empty_rooted_roots() {
        for root in [1usize, 3] {
            let k = key(PlanShape::Bcast { len: 0, root }).normalized(4);
            assert_eq!(k, key(PlanShape::Bcast { len: 0, root: 0 }));
            let k = key(PlanShape::Scatter { len: 0, root }).normalized(4);
            assert_eq!(k, key(PlanShape::Scatter { len: 0, root: 0 }));
        }
        // Non-empty payloads keep their root.
        let k = key(PlanShape::Bcast { len: 8, root: 2 }).normalized(4);
        assert_eq!(k, key(PlanShape::Bcast { len: 8, root: 2 }));
    }

    #[test]
    fn normalized_collapses_empty_rootless_shapes() {
        // Satellite: the three rootless empty shapes share ONE slot.
        let canon = key(PlanShape::Allreduce { len: 0 });
        assert_eq!(key(PlanShape::Allgather { len: 0 }).normalized(4), canon);
        assert_eq!(key(PlanShape::Allreduce { len: 0 }).normalized(4), canon);
        assert_eq!(key(PlanShape::Alltoall { len: 0 }).normalized(4), canon);
        // Non-empty rootless shapes are untouched.
        let k = key(PlanShape::Alltoall { len: 8 }).normalized(4);
        assert_eq!(k, key(PlanShape::Alltoall { len: 8 }));
    }

    #[test]
    fn normalized_collapses_single_member_groups() {
        let canon = key(PlanShape::Barrier);
        assert_eq!(
            key(PlanShape::Bcast { len: 64, root: 0 }).normalized(1),
            canon
        );
        assert_eq!(key(PlanShape::Allreduce { len: 64 }).normalized(1), canon);
        assert_eq!(key(PlanShape::Allgather { len: 64 }).normalized(1), canon);
        assert_eq!(
            key(PlanShape::ReduceScatter { len: 64 }).normalized(1),
            canon
        );
        assert_eq!(key(PlanShape::Barrier).normalized(1), canon);
        // alltoall still copies the own segment: not collapsed.
        let k = key(PlanShape::Alltoall { len: 64 }).normalized(1);
        assert_eq!(k, key(PlanShape::Alltoall { len: 64 }));
    }

    #[test]
    fn builder_tracks_rel_and_addrs() {
        let mut b = PlanBuilder::new();
        assert_eq!(b.rel(SeqBase::Landing), 0);
        b.advance(SeqBase::Landing, 3);
        assert_eq!(b.rel(SeqBase::Landing), 3);
        assert_eq!(b.rel(SeqBase::Smp), 0);
        assert_eq!(b.take_addr(1), 0);
        assert_eq!(b.take_addr(2), 1);
        let plan = b.finish();
        assert_eq!(plan.len(), 3); // advance + 2 takes
        assert!(!plan.is_empty());
        assert_eq!(plan.advances[SeqBase::Landing.index()], 3);
        assert_eq!(plan.advances[SeqBase::Smp.index()], 0);
    }
}
