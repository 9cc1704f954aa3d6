//! Cluster-wide SRM state: per-node shared-memory boards and per-node
//! network landing structures, assembled once at setup (the moral
//! equivalent of SRM's initialization-time shared-segment creation and
//! address exchange) — plus first-class **communicators**: every
//! subgroup created by [`SrmWorld::comm_create`] or
//! [`SrmWorld::comm_split`] gets its own group-relative boards, landing
//! structures and pairwise registry, so collectives on disjoint groups
//! never share a flag, counter or buffer.

use crate::embed::{GroupEmbedding, TreeKind};
use crate::pairwise::PairwiseState;
use crate::plan::{PlanCache, PlanShape};
use crate::tune::{TuneOp, TuneTable};
use crate::tuning::SrmTuning;
use rma::{LapiCounter, Rma, RmaWorld};
use shmem::{BufPair, FlagBank, ShmBuffer, SpinFlag};
use simnet::{NodeId, Rank, Sim, SimHandle, SimVar, Topology};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Shared-memory structures of one SMP node, used by every task on it.
/// Allocated **per communicator**: a subgroup's board is sized by the
/// number of group members on the node, and disjoint groups sharing a
/// physical node still get disjoint flags and buffers.
pub struct NodeBoard {
    /// Intra-node broadcast double buffer (Figure 3). Readers = slots.
    pub smp: BufPair,
    /// Landing zone for inter-node small-message broadcast puts, also
    /// the intra-node distribution buffer of those broadcasts, without
    /// re-copying ("data moved by LAPI is directly available to all the
    /// tasks"). Only broadcast legs use it, so the per-edge credits
    /// cover every remote write into a side.
    pub landing: BufPair,
    /// Target counters bumped by the parent's puts into `landing`
    /// (one per buffer side).
    pub landing_data: [LapiCounter; 2],
    /// Flat-barrier flags, one cache line per slot.
    pub barrier_flags: FlagBank,
    /// Per-slot reduce contribution buffers (Figure 2), double-buffered
    /// by chunk parity: capacity `2 × reduce_chunk`.
    pub contrib: Vec<ShmBuffer>,
    /// Per-slot, per-side publish flags of `contrib`: use `u` of the
    /// channel lives on side `u % 2`, and its owner raises
    /// `contrib_ready[slot][u % 2]` to `u + 1`.
    pub contrib_ready: Vec<[SpinFlag; 2]>,
    /// Per-slot, per-side drain flags: the consumer of use `u` raises
    /// `contrib_done[slot][u % 2]` to `u + 1`.
    pub contrib_done: Vec<[SpinFlag; 2]>,
    /// Master↔root handoff buffer of the root node when the root is not
    /// the node master (double-buffered by chunk parity).
    pub xfer: ShmBuffer,
    /// Per-side publish flags of `xfer` (use `u` on side `u % 2`,
    /// raised to `u + 1` by whichever of master and root produced it).
    pub xfer_ready: [SpinFlag; 2],
    /// Per-side drain flags of `xfer`, raised to `u + 1` by the
    /// consumer of use `u`.
    pub xfer_done: [SpinFlag; 2],
    /// Cumulative per-slot chunk counters for the *tree-based* SMP
    /// broadcast variant kept for the ablation study (§2.2 compares it
    /// against the flat algorithm and rejects it).
    pub tree_ready: Vec<SpinFlag>,
    /// Consumption counters for `tree_ready` (children of a slot count
    /// their reads so the writer can reuse its buffer side).
    pub tree_done: Vec<SpinFlag>,
    /// Mailbox a gather root that is not the node master uses to hand
    /// its user-buffer handle to the master for distribution.
    pub gs_addr: SimVar<Option<ShmBuffer>>,
}

/// One zeroed flag per buffer side.
fn side_flags(handle: &SimHandle) -> [SpinFlag; 2] {
    [SpinFlag::new(handle, 0), SpinFlag::new(handle, 0)]
}

impl NodeBoard {
    fn new(handle: &SimHandle, tasks_per_node: usize, tuning: &SrmTuning) -> Self {
        NodeBoard {
            smp: BufPair::new(handle, tuning.smp_buf, tasks_per_node),
            landing: BufPair::new(handle, tuning.small_large_switch, tasks_per_node),
            landing_data: [LapiCounter::new(handle, 0), LapiCounter::new(handle, 0)],
            barrier_flags: FlagBank::new(handle, tasks_per_node, 0),
            contrib: (0..tasks_per_node)
                .map(|_| ShmBuffer::new(2 * tuning.reduce_chunk))
                .collect(),
            contrib_ready: (0..tasks_per_node).map(|_| side_flags(handle)).collect(),
            contrib_done: (0..tasks_per_node).map(|_| side_flags(handle)).collect(),
            xfer: ShmBuffer::new(2 * tuning.reduce_chunk),
            xfer_ready: side_flags(handle),
            xfer_done: side_flags(handle),
            tree_ready: (0..tasks_per_node)
                .map(|_| SpinFlag::new(handle, 0))
                .collect(),
            tree_done: (0..tasks_per_node)
                .map(|_| SpinFlag::new(handle, 0))
                .collect(),
            gs_addr: handle.var(None),
        }
    }
}

/// Network-facing state of one node's master, addressable by the other
/// masters (handles distributed at setup, like registered memory).
/// Like [`NodeBoard`], allocated per communicator and indexed by
/// **group node** numbers.
pub struct InterState {
    /// Flow-control credits for my small-broadcast puts toward each
    /// child node (init 1 per side; the child's zero-byte put restores
    /// a credit when its landing side drains).
    pub bcast_free: Vec<[LapiCounter; 2]>,
    /// Per-source-node landing buffers for pipelined-reduce puts.
    pub reduce_landing: Vec<[ShmBuffer; 2]>,
    /// Data counters for `reduce_landing`, bumped by the source's puts.
    pub reduce_data: Vec<[LapiCounter; 2]>,
    /// Credits for my reduce puts toward each destination node (init 1
    /// per side; destination acks restore).
    pub reduce_free: Vec<[LapiCounter; 2]>,
    /// Address-exchange slots: the user-buffer handle a child master
    /// sent me for the large broadcast, indexed by child node.
    pub addr_slot: Vec<SimVar<Option<ShmBuffer>>>,
    /// Cumulative counter of large-broadcast chunks landed in my user
    /// buffer.
    pub large_data: LapiCounter,
    /// Per-round recursive-doubling landing buffers (allreduce ≤16 KB).
    pub rd_landing: Vec<ShmBuffer>,
    /// Data counters for `rd_landing`.
    pub rd_data: Vec<LapiCounter>,
    /// Credits to put round `r` data at my partner (init 1; partner
    /// acks after consuming).
    pub rd_free: Vec<LapiCounter>,
    /// Landing for the non-power-of-two fold/unfold exchanges.
    pub fold_landing: ShmBuffer,
    /// Fold-in data counter (odd extra node → even neighbour).
    pub fold_data: LapiCounter,
    /// Credit for the fold-in put (init 1).
    pub fold_free: LapiCounter,
    /// Unfold (result return) data counter.
    pub unfold_data: LapiCounter,
    /// Cumulative barrier round counters (dissemination).
    pub bar_round: Vec<LapiCounter>,
    /// The gather root's user-buffer handle, delivered by
    /// the gather/scatter address AM (taken once per gather by the
    /// master).
    pub gs_root: SimVar<Option<ShmBuffer>>,
}

impl InterState {
    fn new(handle: &SimHandle, nodes: usize, tuning: &SrmTuning) -> Self {
        let rounds = usize::BITS as usize - nodes.leading_zeros() as usize + 1;
        let pair_counters = |init: u64| -> Vec<[LapiCounter; 2]> {
            (0..nodes)
                .map(|_| {
                    [
                        LapiCounter::new(handle, init),
                        LapiCounter::new(handle, init),
                    ]
                })
                .collect()
        };
        InterState {
            bcast_free: pair_counters(1),
            reduce_landing: (0..nodes)
                .map(|_| {
                    [
                        ShmBuffer::new(tuning.reduce_chunk),
                        ShmBuffer::new(tuning.reduce_chunk),
                    ]
                })
                .collect(),
            reduce_data: pair_counters(0),
            reduce_free: pair_counters(1),
            addr_slot: (0..nodes).map(|_| handle.var(None)).collect(),
            large_data: LapiCounter::new(handle, 0),
            rd_landing: (0..rounds)
                .map(|_| ShmBuffer::new(tuning.allreduce_rd_max))
                .collect(),
            rd_data: (0..rounds).map(|_| LapiCounter::new(handle, 0)).collect(),
            rd_free: (0..rounds).map(|_| LapiCounter::new(handle, 1)).collect(),
            fold_landing: ShmBuffer::new(tuning.allreduce_rd_max),
            fold_data: LapiCounter::new(handle, 0),
            fold_free: LapiCounter::new(handle, 1),
            unfold_data: LapiCounter::new(handle, 0),
            bar_round: (0..rounds).map(|_| LapiCounter::new(handle, 0)).collect(),
            gs_root: handle.var(None),
        }
    }
}

/// A communicator's membership and its mapping onto the machine: the
/// stable comm id, the member world ranks in caller order (= comm rank
/// order), the distinct SMP nodes the group touches, and per-node
/// member lists. The group's [`GroupEmbedding`] (rooted at comm rank 0)
/// is carried along for inspection.
#[derive(Clone, Debug)]
pub struct CommGroup {
    id: u64,
    /// Comm rank → world rank (caller order).
    ranks: Vec<Rank>,
    /// Group node index → world node id, ascending.
    nodes: Vec<NodeId>,
    /// Members per group node (ascending world rank), parallel to
    /// `nodes`. Group slot = index here; group master = slot 0.
    members: Vec<Vec<Rank>>,
    /// World rank → comm rank (None for non-members).
    crank_of: Vec<Option<usize>>,
    /// Comm rank → (group node, group slot).
    coord_of: Vec<(usize, usize)>,
    /// Per group node: do its members occupy **consecutive comm ranks
    /// in slot order**? (Always true for the world communicator; lets
    /// planners stream whole node blocks with single puts.)
    contig: Vec<bool>,
    /// The SMP-aware embedding rooted at comm rank 0.
    embedding: GroupEmbedding,
}

impl CommGroup {
    fn new(topo: Topology, kind: TreeKind, id: u64, ranks: Vec<Rank>) -> Self {
        assert!(!ranks.is_empty(), "empty communicator group");
        assert!(
            ranks.iter().all(|&r| r < topo.nprocs()),
            "group member out of range"
        );
        let mut crank_of: Vec<Option<usize>> = vec![None; topo.nprocs()];
        for (c, &r) in ranks.iter().enumerate() {
            assert!(crank_of[r].is_none(), "rank {r} listed twice in group");
            crank_of[r] = Some(c);
        }
        let mut nodes: Vec<NodeId> = ranks.iter().map(|&r| topo.node_of(r)).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let members: Vec<Vec<Rank>> = nodes
            .iter()
            .map(|&n| {
                let mut m: Vec<Rank> = ranks
                    .iter()
                    .copied()
                    .filter(|&r| topo.node_of(r) == n)
                    .collect();
                m.sort_unstable();
                m
            })
            .collect();
        let mut coord_of = vec![(0usize, 0usize); ranks.len()];
        for (g, m) in members.iter().enumerate() {
            for (s, &r) in m.iter().enumerate() {
                coord_of[crank_of[r].expect("member")] = (g, s);
            }
        }
        let contig = members
            .iter()
            .map(|m| {
                let base = crank_of[m[0]].expect("member");
                m.iter()
                    .enumerate()
                    .all(|(s, &r)| crank_of[r] == Some(base + s))
            })
            .collect();
        let embedding = GroupEmbedding::new(topo, &ranks, ranks[0], kind);
        CommGroup {
            id,
            ranks,
            nodes,
            members,
            crank_of,
            coord_of,
            contig,
            embedding,
        }
    }

    /// Stable communicator id (0 = world).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Group size (number of member ranks).
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Is the group empty? (Never true for a constructed group.)
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Member world ranks in comm rank order.
    pub fn ranks(&self) -> &[Rank] {
        &self.ranks
    }

    /// Number of distinct SMP nodes the group touches.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// World node id of group node `g`.
    pub fn world_node(&self, g: usize) -> NodeId {
        self.nodes[g]
    }

    /// Member world ranks on group node `g`, in group slot order.
    pub fn members_on(&self, g: usize) -> &[Rank] {
        &self.members[g]
    }

    /// Number of members on group node `g`.
    pub fn slots_on(&self, g: usize) -> usize {
        self.members[g].len()
    }

    /// Comm rank of world rank `r`, if a member.
    pub fn comm_rank_of(&self, r: Rank) -> Option<usize> {
        self.crank_of.get(r).copied().flatten()
    }

    /// (group node, group slot) of comm rank `c`.
    pub fn coord_of(&self, c: usize) -> (usize, usize) {
        self.coord_of[c]
    }

    /// Comm rank of group slot `s` on group node `g`.
    pub fn crank_at(&self, g: usize, s: usize) -> usize {
        self.crank_of[self.members[g][s]].expect("member")
    }

    /// World rank of group node `g`'s master (group slot 0): the one
    /// member of the node that talks to the network for this group.
    pub fn master_of(&self, g: usize) -> Rank {
        self.members[g][0]
    }

    /// Do group node `g`'s members hold consecutive comm ranks in slot
    /// order?
    pub fn contig(&self, g: usize) -> bool {
        self.contig[g]
    }

    /// The group's SMP-aware tree embedding, rooted at comm rank 0.
    pub fn embedding(&self) -> &GroupEmbedding {
        &self.embedding
    }
}

/// Everything one communicator owns: its group, its per-node boards and
/// landing structures (indexed by **group node**), its pairwise
/// exchange registry, and its pair of AM handler ids.
pub(crate) struct CommState {
    pub group: CommGroup,
    pub boards: Vec<Arc<NodeBoard>>,
    pub inter: Vec<Arc<InterState>>,
    pub pairwise: PairwiseState,
    pub am_addr_xchg: u32,
    pub am_gs_addr: u32,
    /// Per-call pairwise address-exchange slots for the **direct
    /// route**: `pair_addr[owner][sender]` holds the buffer handle comm
    /// rank `sender` shipped to comm rank `owner` (taken by the owner's
    /// `PairAddrTake` step; the CL_ADDR ordering class keeps slots from
    /// being overrun across calls). Rows are `Arc`-shared with the
    /// per-member AM handlers.
    pub pair_addr: Vec<Arc<Vec<SimVar<Option<ShmBuffer>>>>>,
    /// AM id of the pairwise address exchange (registered on **every**
    /// member rank — direct-route puts are rank-to-rank, not
    /// master-to-master).
    pub am_pair_addr: u32,
    /// Per-member protocol sequence cells and plan cache (comm rank →
    /// seat), shared by every handle clone of that member.
    pub seats: Vec<Arc<CommSeat>>,
}

impl CommState {
    /// Allocate the full substrate for `group`: one board per group
    /// node sized by that node's member count, inter-node state sized
    /// by the group's node count, a group-local pairwise registry, and
    /// the comm-scoped AM handlers on every group master.
    fn new(
        handle: &SimHandle,
        rma: &RmaWorld,
        topo: Topology,
        tuning: &SrmTuning,
        group: CommGroup,
    ) -> Arc<CommState> {
        let gnodes = group.node_count();
        let boards = (0..gnodes)
            .map(|g| Arc::new(NodeBoard::new(handle, group.slots_on(g), tuning)))
            .collect();
        let inter: Vec<Arc<InterState>> = (0..gnodes)
            .map(|_| Arc::new(InterState::new(handle, gnodes, tuning)))
            .collect();
        let am_addr_xchg = (1 + 3 * group.id()) as u32;
        let am_gs_addr = (2 + 3 * group.id()) as u32;
        let am_pair_addr = (3 + 3 * group.id()) as u32;
        // Address-exchange handlers on every group master: store the
        // sending master's handle in the slot for its **group** node.
        let gnode_of_rank: Arc<Vec<Option<usize>>> = Arc::new(
            (0..topo.nprocs())
                .map(|r| group.comm_rank_of(r).map(|c| group.coord_of(c).0))
                .collect(),
        );
        for (g, node_inter) in inter.iter().enumerate() {
            let ep = rma.endpoint(group.master_of(g));
            let my_inter = node_inter.clone();
            let gmap = gnode_of_rank.clone();
            ep.register_handler(am_addr_xchg, move |hctx, msg| {
                let src_gnode = gmap[msg.from].expect("sender is a group member");
                let buf = msg.buf.expect("address exchange carries a handle");
                my_inter.addr_slot[src_gnode].store(hctx, Some(buf));
            });
            let my_inter = node_inter.clone();
            ep.register_handler(am_gs_addr, move |hctx, msg| {
                let buf = msg.buf.expect("gather root address carries a handle");
                my_inter.gs_root.store(hctx, Some(buf));
            });
        }
        // Direct-route pairwise address exchange: every member rank
        // (not just masters) accepts handles, keyed by the sender's
        // comm rank. A slot must be empty when a handle arrives — the
        // CL_ADDR ordering class serializes the exchange across calls.
        let crank_of_rank: Arc<Vec<Option<usize>>> =
            Arc::new((0..topo.nprocs()).map(|r| group.comm_rank_of(r)).collect());
        let pair_addr: Vec<Arc<Vec<SimVar<Option<ShmBuffer>>>>> = (0..group.len())
            .map(|_| Arc::new((0..group.len()).map(|_| handle.var(None)).collect()))
            .collect();
        for (c, row) in pair_addr.iter().enumerate() {
            let ep = rma.endpoint(group.ranks()[c]);
            let row = row.clone();
            let cmap = crank_of_rank.clone();
            ep.register_handler(am_pair_addr, move |hctx, msg| {
                let src = cmap[msg.from].expect("sender is a group member");
                assert!(
                    row[src].with(|s| s.is_none()),
                    "pairwise address slot overrun (sender comm rank {src})"
                );
                row[src].store(
                    hctx,
                    Some(msg.buf.expect("address exchange carries a handle")),
                );
            });
        }
        let pairwise = PairwiseState::new(handle, gnodes, group.len(), tuning);
        let seats = (0..group.len())
            .map(|_| Arc::new(CommSeat::new(tuning.plan_cache_cap)))
            .collect();
        handle
            .metrics()
            .comm_creates
            .fetch_add(1, Ordering::Relaxed);
        Arc::new(CommState {
            group,
            boards,
            inter,
            pairwise,
            am_addr_xchg,
            am_gs_addr,
            pair_addr,
            am_pair_addr,
            seats,
        })
    }
}

/// One member's per-communicator protocol state: the six cumulative
/// sequence cells the plan engine resolves relative values against, and
/// the compiled-schedule cache. Shared (via `Arc`) between every
/// [`SrmComm`] handle of that (rank, communicator) pair — including the
/// clones the nonblocking executor parks inside pending schedules — so
/// all of them observe the same protocol position.
pub(crate) struct CommSeat {
    /// Cumulative uses of the node's [`NodeBoard::smp`] pair: broadcast
    /// cells and the intra-node distribution pieces of scatter,
    /// reduce_scatter and the pairwise exchanges.
    pub smp_seq: AtomicU64,
    /// Cumulative chunks through the node's landing pair — consecutive
    /// operations alternate buffers ("to improve concurrency", §2.2).
    pub landing_seq: AtomicU64,
    /// Cumulative chunks through the tree-variant broadcast buffers.
    pub tree_seq: AtomicU64,
    /// Cumulative reduce chunks this node has pushed through `contrib`.
    pub reduce_cum: AtomicU64,
    /// Cumulative chunks through the master↔root `xfer` buffer.
    pub xfer_cum: AtomicU64,
    /// Barriers completed (drives the cumulative round counters).
    pub barrier_seq: AtomicU64,
    /// Compiled-schedule cache, keyed by call shape (see
    /// [`crate::plan::PlanCache`]).
    pub plan_cache: Mutex<PlanCache>,
}

impl CommSeat {
    fn new(cache_cap: usize) -> Self {
        CommSeat {
            smp_seq: AtomicU64::new(0),
            landing_seq: AtomicU64::new(0),
            tree_seq: AtomicU64::new(0),
            reduce_cum: AtomicU64::new(0),
            xfer_cum: AtomicU64::new(0),
            barrier_seq: AtomicU64::new(0),
            plan_cache: Mutex::new(PlanCache::new(cache_cap)),
        }
    }
}

/// One rank's nonblocking-executor state, shared by **all** of the
/// rank's communicator handles: a single pending queue per rank means a
/// blocking call on one communicator still drives outstanding schedules
/// issued on another (otherwise a rank spinning inside comm A could
/// starve a parked comm-B schedule its peers are waiting on), and lets
/// `shutdown` assert that every subcommunicator is drained.
pub(crate) struct RankShared {
    /// Outstanding nonblocking collectives, oldest first (see
    /// [`crate::nb`]).
    pub pending: Mutex<VecDeque<crate::nb::PendingCall>>,
    /// Request ids whose schedules have retired but whose
    /// [`CollRequest`](collops::CollRequest) has not been waited yet.
    pub completed: Mutex<HashSet<u64>>,
    /// Next request id to hand out.
    pub next_req: AtomicU64,
}

impl RankShared {
    fn new() -> Self {
        RankShared {
            pending: Mutex::new(VecDeque::new()),
            completed: Mutex::new(HashSet::new()),
            next_req: AtomicU64::new(0),
        }
    }
}

pub(crate) struct WorldInner {
    pub topo: Topology,
    /// The **geometry** tuning every shared buffer was sized with. On
    /// a default world this equals `base`; with a tuning table loaded
    /// it is the table's geometry envelope (capacity knobs raised to
    /// the table maxima).
    pub tuning: SrmTuning,
    /// Decision defaults: the tuning a call shape compiles under when
    /// no table entry matches it.
    pub base: SrmTuning,
    /// The loaded per-shape tuning table, if any.
    pub table: Option<Arc<TuneTable>>,
    pub rma: RmaWorld,
    pub handle: SimHandle,
    pub world_comm: Arc<CommState>,
    pub per_rank: Vec<Arc<RankShared>>,
}

/// The cluster-wide SRM collectives fabric. Build once at setup (it
/// spawns the RMA dispatchers), then hand a [`SrmComm`] to each rank —
/// and optionally carve subgroup communicators with
/// [`SrmWorld::comm_create`] / [`SrmWorld::comm_split`].
pub struct SrmWorld {
    inner: Arc<WorldInner>,
    next_comm: AtomicU64,
}

impl SrmWorld {
    /// Assemble the fabric for `topo` with the given tuning.
    ///
    /// # Panics
    /// If the tuning is internally inconsistent: the large-broadcast
    /// chunk must be a whole number of intra-node broadcast cells (the
    /// pipelines share the cell grid), the recursive-doubling payload
    /// must fit the staging buffers, and the small-protocol chunks must
    /// fit the landing buffers.
    pub fn new(sim: &mut Sim, topo: Topology, tuning: SrmTuning) -> Self {
        SrmWorld::build(sim, topo, tuning, tuning, None)
    }

    /// Assemble the fabric with a searched per-shape [`TuneTable`]
    /// loaded: collectives whose `(op, size class, topology, comm
    /// size)` matches a table entry compile under that entry's
    /// decision knobs; everything else uses `base`. Shared buffers are
    /// sized with the table's **geometry envelope** (`base` with
    /// capacity knobs raised to the table maxima), so every entry's
    /// schedule fits. Loading a table never changes collective
    /// *results* — only the compiled schedules.
    ///
    /// # Panics
    /// If `base` is inconsistent (see [`SrmWorld::new`]) or any table
    /// entry is inconsistent with `base` (check first with
    /// [`TuneTable::validate`] for a typed error).
    pub fn with_tuning_table(
        sim: &mut Sim,
        topo: Topology,
        base: SrmTuning,
        table: Arc<TuneTable>,
    ) -> Self {
        table
            .validate(&base)
            .expect("tuning-table entry inconsistent with base tuning");
        let geometry = table.geometry_envelope(&base);
        SrmWorld::build(sim, topo, geometry, base, Some(table))
    }

    fn build(
        sim: &mut Sim,
        topo: Topology,
        geometry: SrmTuning,
        base: SrmTuning,
        table: Option<Arc<TuneTable>>,
    ) -> Self {
        geometry.validate().expect("inconsistent SrmTuning");
        base.validate().expect("inconsistent SrmTuning");
        let handle = sim.handle();
        let rma = RmaWorld::new(sim, topo.nprocs());
        let world_group = CommGroup::new(topo, geometry.tree, 0, (0..topo.nprocs()).collect());
        let world_comm = CommState::new(&handle, &rma, topo, &geometry, world_group);
        let per_rank = (0..topo.nprocs())
            .map(|_| Arc::new(RankShared::new()))
            .collect();
        SrmWorld {
            inner: Arc::new(WorldInner {
                topo,
                tuning: geometry,
                base,
                table,
                rma,
                handle,
                world_comm,
                per_rank,
            }),
            next_comm: AtomicU64::new(1),
        }
    }

    fn handle_for(&self, comm: &Arc<CommState>, crank: usize) -> SrmComm {
        let me = comm.group.ranks()[crank];
        let (gnode, gslot) = comm.group.coord_of(crank);
        SrmComm {
            world: self.inner.clone(),
            comm: comm.clone(),
            me,
            crank,
            gnode,
            gslot,
            rma: self.inner.rma.endpoint(me),
            seat: comm.seats[crank].clone(),
            shared: self.inner.per_rank[me].clone(),
        }
    }

    /// Per-rank handle on the **world** communicator.
    pub fn comm(&self, rank: Rank) -> SrmComm {
        assert!(rank < self.inner.topo.nprocs());
        self.handle_for(&self.inner.world_comm.clone(), rank)
    }

    /// Create a subgroup communicator over `ranks` (caller order =
    /// comm rank order; no duplicates). Returns one [`SrmComm`] handle
    /// per member, in the same order. The group gets its own boards,
    /// landing structures, pairwise registry and AM handler pair, so
    /// collectives on disjoint groups share no protocol state.
    ///
    /// Call during setup (before `Sim::run`), like [`SrmWorld::new`].
    pub fn comm_create(&self, ranks: &[Rank]) -> Vec<SrmComm> {
        let id = self.next_comm.fetch_add(1, Ordering::Relaxed);
        let group = CommGroup::new(self.inner.topo, self.inner.tuning.tree, id, ranks.to_vec());
        let comm = CommState::new(
            &self.inner.handle,
            &self.inner.rma,
            self.inner.topo,
            &self.inner.tuning,
            group,
        );
        (0..comm.group.len())
            .map(|c| self.handle_for(&comm, c))
            .collect()
    }

    /// MPI-style `comm_split`: rank `r` joins the group of all ranks
    /// with the same `colors[r]`, ordered by `(keys[r], r)`; a negative
    /// color opts the rank out (its slot returns `None`). Both slices
    /// are indexed by world rank and must cover every rank. Returns one
    /// handle per world rank.
    pub fn comm_split(&self, colors: &[i64], keys: &[i64]) -> Vec<Option<SrmComm>> {
        let n = self.inner.topo.nprocs();
        assert_eq!(colors.len(), n, "one color per world rank");
        assert_eq!(keys.len(), n, "one key per world rank");
        let mut out: Vec<Option<SrmComm>> = (0..n).map(|_| None).collect();
        let mut palette: Vec<i64> = colors.iter().copied().filter(|&c| c >= 0).collect();
        palette.sort_unstable();
        palette.dedup();
        for color in palette {
            let mut members: Vec<Rank> = (0..n).filter(|&r| colors[r] == color).collect();
            members.sort_by_key(|&r| (keys[r], r));
            for handle in self.comm_create(&members) {
                let r = handle.rank();
                out[r] = Some(handle);
            }
        }
        out
    }

    /// The topology this world was built for.
    pub fn topology(&self) -> Topology {
        self.inner.topo
    }

    /// The **geometry** tuning every shared buffer was sized with (the
    /// table's envelope when one is loaded, else the base tuning).
    pub fn tuning(&self) -> SrmTuning {
        self.inner.tuning
    }

    /// The decision defaults a call shape compiles under when no table
    /// entry matches (equals [`SrmWorld::tuning`] on default worlds).
    pub fn base_tuning(&self) -> SrmTuning {
        self.inner.base
    }

    /// The loaded per-shape tuning table, if any.
    pub fn tuning_table(&self) -> Option<&Arc<TuneTable>> {
        self.inner.table.as_ref()
    }
}

/// One rank's handle on one communicator (the world communicator from
/// [`SrmWorld::comm`], or a subgroup from [`SrmWorld::comm_create`]).
/// Cheap to clone; clones share the same per-(rank, comm) protocol
/// seat and the rank-wide nonblocking queue. Belongs to exactly one
/// logical process.
pub struct SrmComm {
    pub(crate) world: Arc<WorldInner>,
    pub(crate) comm: Arc<CommState>,
    /// World rank.
    pub(crate) me: Rank,
    /// Comm rank (caller-order index in the group).
    pub(crate) crank: usize,
    /// Group node index of `me`.
    pub(crate) gnode: usize,
    /// Group slot of `me` within its group node (0 = group master).
    pub(crate) gslot: usize,
    pub(crate) rma: Rma,
    pub(crate) seat: Arc<CommSeat>,
    pub(crate) shared: Arc<RankShared>,
}

impl Clone for SrmComm {
    fn clone(&self) -> Self {
        SrmComm {
            world: self.world.clone(),
            comm: self.comm.clone(),
            me: self.me,
            crank: self.crank,
            gnode: self.gnode,
            gslot: self.gslot,
            rma: self.rma.clone(),
            seat: self.seat.clone(),
            shared: self.shared.clone(),
        }
    }
}

impl SrmComm {
    /// This handle's **world** rank.
    pub fn rank(&self) -> Rank {
        self.me
    }

    /// This handle's rank **within the communicator** (caller-order
    /// index; equals [`SrmComm::rank`] on the world communicator).
    /// Collective roots and payload segment layouts use comm ranks.
    pub fn comm_rank(&self) -> usize {
        self.crank
    }

    /// Number of ranks in this communicator.
    pub fn size(&self) -> usize {
        self.comm.group.len()
    }

    /// The communicator's stable id (0 = world).
    pub fn comm_id(&self) -> u64 {
        self.comm.group.id()
    }

    /// The communicator's group (membership, node mapping, embedding).
    pub fn group(&self) -> &CommGroup {
        &self.comm.group
    }

    /// The topology.
    pub fn topology(&self) -> Topology {
        self.world.topo
    }

    /// The **geometry** tuning this world's shared buffers were sized
    /// with. Planners take cell sizes and buffer strides from here;
    /// per-shape *decision* knobs come from
    /// [`SrmComm::effective_tuning`] via the plan builder.
    pub fn tuning(&self) -> SrmTuning {
        self.world.tuning
    }

    /// The effective decision knobs for compiling `shape` on this
    /// communicator: the world's base tuning, overlaid — when a
    /// [`TuneTable`] is loaded and holds a matching `(op, size class,
    /// nodes, ranks)` entry — with that entry, clamped to the buffer
    /// geometry. A pure function of `(shape, communicator)`, so every
    /// rank resolves the same knobs and plans stay consistent.
    pub fn effective_tuning(&self, shape: &PlanShape) -> SrmTuning {
        self.tune_consult(shape).0
    }

    /// [`SrmComm::effective_tuning`] plus the table-consultation
    /// outcome: `Some(true)` table entry hit, `Some(false)` table
    /// loaded but no entry for this shape, `None` not applicable (no
    /// table, or an untunable ablation shape).
    pub(crate) fn tune_consult(&self, shape: &PlanShape) -> (SrmTuning, Option<bool>) {
        let base = self.world.base;
        let Some(table) = self.world.table.as_deref() else {
            return (base, None);
        };
        let Some((op, len)) = TuneOp::of_shape(shape) else {
            return (base, None);
        };
        let nodes = self.comm.group.node_count();
        let ranks = self.comm.group.len();
        match table.lookup(op, len, nodes, ranks) {
            Some(entry) => (entry.apply(&base, &self.world.tuning), Some(true)),
            None => (base, Some(false)),
        }
    }

    /// The tree kind in effect.
    pub fn tree(&self) -> TreeKind {
        self.world.tuning.tree
    }

    /// My world node id.
    pub fn node(&self) -> NodeId {
        self.world.topo.node_of(self.me)
    }

    /// My world slot within the node.
    pub fn slot(&self) -> usize {
        self.world.topo.slot_of(self.me)
    }

    /// Am I my node's **world** master? (Group masters — the tasks that
    /// touch the network for this communicator — are group slot 0,
    /// which coincides with this on the world communicator.)
    pub fn is_master(&self) -> bool {
        self.world.topo.is_master(self.me)
    }

    // --- group-coordinate accessors (the planners' vocabulary) ---

    /// Communicator size (planner shorthand for [`SrmComm::size`]).
    pub(crate) fn csize(&self) -> usize {
        self.comm.group.len()
    }

    /// My comm rank.
    pub(crate) fn crank(&self) -> usize {
        self.crank
    }

    /// Number of group nodes.
    pub(crate) fn cnodes(&self) -> usize {
        self.comm.group.node_count()
    }

    /// My group node index.
    pub(crate) fn cnode(&self) -> usize {
        self.gnode
    }

    /// My group slot within my group node (0 = group master).
    pub(crate) fn cslot(&self) -> usize {
        self.gslot
    }

    /// Members on my group node.
    pub(crate) fn cslots_here(&self) -> usize {
        self.comm.group.slots_on(self.gnode)
    }

    /// Members on group node `g`.
    pub(crate) fn cslots_on(&self, g: usize) -> usize {
        self.comm.group.slots_on(g)
    }

    /// World rank of group node `g`'s master (group slot 0).
    pub(crate) fn cmaster_of(&self, g: usize) -> Rank {
        self.comm.group.master_of(g)
    }

    /// Comm rank of group slot `s` on group node `g`.
    pub(crate) fn crank_at(&self, g: usize, s: usize) -> usize {
        self.comm.group.crank_at(g, s)
    }

    /// (group node, group slot) of comm rank `c`.
    pub(crate) fn ccoord_of(&self, c: usize) -> (usize, usize) {
        self.comm.group.coord_of(c)
    }

    /// Group node of comm rank `c`.
    pub(crate) fn cnode_of(&self, c: usize) -> usize {
        self.comm.group.coord_of(c).0
    }

    /// Does the group span more than one node?
    pub(crate) fn cmulti(&self) -> bool {
        self.comm.group.node_count() > 1
    }

    /// Am I my group node's master?
    pub(crate) fn c_is_master(&self) -> bool {
        self.gslot == 0
    }

    /// Group slot of member world rank `r` (which must be on my node).
    pub(crate) fn cgslot_of(&self, r: Rank) -> usize {
        let c = self
            .comm
            .group
            .comm_rank_of(r)
            .expect("rank is a group member");
        self.comm.group.coord_of(c).1
    }

    /// Do group node `g`'s members hold consecutive comm ranks in slot
    /// order? (Planners stream whole node blocks when true.)
    pub(crate) fn ccontig(&self, g: usize) -> bool {
        self.comm.group.contig(g)
    }

    /// World rank of comm rank `c`.
    pub(crate) fn cworld_of(&self, c: usize) -> Rank {
        self.comm.group.ranks()[c]
    }

    /// My direct-route address-exchange slot for handles shipped by
    /// comm rank `from`.
    pub(crate) fn pair_addr_slot(&self, from: usize) -> &SimVar<Option<ShmBuffer>> {
        &self.comm.pair_addr[self.crank][from]
    }

    /// My group node's shared-memory board.
    pub fn board(&self) -> &NodeBoard {
        &self.comm.boards[self.gnode]
    }

    /// The network-facing state of group node `g`'s master.
    pub fn inter(&self, g: usize) -> &InterState {
        &self.comm.inter[g]
    }

    /// This communicator's pairwise exchange registry (landing rings
    /// and per-pair counter families; see [`crate::pairwise`]).
    pub fn pairwise(&self) -> &PairwiseState {
        &self.comm.pairwise
    }

    /// The RMA endpoint (exposed for tests and extensions).
    pub fn rma(&self) -> &Rma {
        &self.rma
    }

    /// Allocate a registered user buffer of `len` bytes (the form all
    /// collective payloads take; see the crate docs on memory model).
    pub fn alloc_buffer(&self, len: usize) -> ShmBuffer {
        ShmBuffer::new(len)
    }

    /// Tear down this rank's RMA dispatcher. Call exactly once per
    /// world rank, after the rank's last collective operation on *any*
    /// communicator. Every nonblocking collective on every communicator
    /// must have been waited first (the pending queue is rank-wide, so
    /// this asserts that every subcommunicator is drained).
    pub fn shutdown(&self, ctx: &simnet::Ctx) {
        assert!(
            self.shared
                .pending
                .lock()
                .expect("queue poisoned")
                .is_empty(),
            "rank {} shut down with {} outstanding nonblocking collective(s)",
            self.me,
            self.shared.pending.lock().expect("queue poisoned").len()
        );
        self.rma.shutdown(ctx);
    }
}
