//! The integrated shared-memory + RMA collective protocols (paper
//! §2.3–2.4 and Figures 4–5), as **planners**: each protocol compiles
//! its per-rank step schedule into a [`PlanBuilder`]; the
//! [engine](crate::engine) replays it. No collective executes directly
//! from here.
//!
//! Every planner works in **group coordinates**: `node` operands are
//! group-node indices (`0..cnodes()`), roots are communicator ranks,
//! and slot arithmetic uses the group's per-node member counts. On the
//! world communicator these degrade exactly to the world topology, so
//! world plans are unchanged; on a subgroup the same code compiles
//! schedules over the subgroup's own boards, inter-state and flags,
//! which is what lets disjoint communicators run concurrently.
//!
//! Only one task per node — the **master** (group slot 0) — touches the
//! network. Data put by a parent node lands in shared memory (the
//! node's landing buffers or, for large broadcasts, directly in the
//! master's user buffer), where it "is directly available to all the
//! tasks running on that node without the need for copying the data".
//!
//! Flow control is explicit, exactly as the paper describes replacing
//! MPI's eager/rendezvous machinery: two landing buffers per node, a
//! data counter per buffer bumped by the parent's put, and a credit
//! counter per (parent, child) edge restored by the child's zero-byte
//! put when its node has drained a buffer. Counters are waited on with
//! `LAPI_Waitcntr`-style calls so the dispatcher makes progress without
//! interrupts while interrupts are disabled for small operations.
//!
//! The gather/scatter family extends the same machinery: scatter
//! streams per-node blocks through the reduce landing channels (whose
//! credit protocol it reuses unchanged), gather relays segments through
//! the per-slot contribution buffers and puts them straight into the
//! root's user buffer at their final offsets (one address exchange,
//! zero staging at the root), and allgather is literally a gather plan
//! concatenated with a broadcast plan.
//!
//! Because cross-node counters are parity-indexed against the
//! [`SeqBase::Landing`] and [`SeqBase::Reduce`] cumulatives, every
//! plan advances those two bases by the **same amount on every member
//! of the communicator** (for scatter on a group with uneven
//! membership, the maximum piece count over nodes). Skipped uses cost
//! nothing: only broadcast legs drive the landing pair, and they run
//! the same chunk count on every member; the contribution and `xfer`
//! channels keep one flag per buffer side, and a producer's drain
//! guard looks only at its own last use of that side. Intra-node
//! distribution (scatter, reduce_scatter, the pairwise wire) runs on
//! the node's SMP pair, whose base is node-local and advances by the
//! node's own piece count.

use crate::embed::{self, TreeKind};
use crate::plan::{
    BufRef, CopyCost, CtrRef, FlagRef, HandleSrc, Off, PairSel, PlanBuilder, SeqBase, Side, Step,
    Val,
};
use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use simnet::Rank;

pub(crate) fn seq(base: SeqBase, rel: u64) -> Val {
    Val::Seq { base, rel }
}

pub(crate) fn par(base: SeqBase, rel: u64) -> Side {
    Side::Parity { base, rel }
}

pub(crate) fn poff(base: SeqBase, rel: u64, stride: usize) -> Off {
    Off::Parity { base, rel, stride }
}

// The master↔root `xfer` handoff. Its producer alternates between the
// master and the root, but only root-node ranks advance
// [`SeqBase::Xfer`] and every one of them runs every use, so the
// channel is gap-free: each producer waits for the previous use of the
// side to be drained before publishing use `xrel`.

fn plan_xfer_drained(b: &mut PlanBuilder, xrel: u64) {
    b.push(Step::DrainWait {
        flag: FlagRef::XferDone {
            side: par(SeqBase::Xfer, xrel),
        },
        base: SeqBase::Xfer,
        rel: xrel,
        scale: 1,
        label: "xfer side drained",
    });
}

fn plan_xfer_publish(b: &mut PlanBuilder, xrel: u64) {
    b.push(Step::FlagRaise {
        flag: FlagRef::XferReady {
            side: par(SeqBase::Xfer, xrel),
        },
        val: seq(SeqBase::Xfer, xrel + 1),
    });
}

fn plan_xfer_ready_wait(b: &mut PlanBuilder, xrel: u64, label: &'static str) {
    b.push(Step::FlagWaitGe {
        flag: FlagRef::XferReady {
            side: par(SeqBase::Xfer, xrel),
        },
        val: seq(SeqBase::Xfer, xrel + 1),
        label,
    });
}

fn plan_xfer_done(b: &mut PlanBuilder, xrel: u64) {
    b.push(Step::FlagRaise {
        flag: FlagRef::XferDone {
            side: par(SeqBase::Xfer, xrel),
        },
        val: seq(SeqBase::Xfer, xrel + 1),
    });
}

/// The inter-node tree over the communicator's **group-node indices**
/// (`0..cnodes()`), rotated so the root's node is relative vertex 0 —
/// the group analogue of [`Embedding`](crate::embed::Embedding)'s
/// vnode arithmetic. On the world communicator group-node indices are
/// world node ids, so this is exactly the old embedding.
struct GroupTree {
    kind: TreeKind,
    n: usize,
    root_g: usize,
}

impl GroupTree {
    fn new(comm: &SrmComm, root_g: usize) -> Self {
        GroupTree {
            kind: comm.tree(),
            n: comm.cnodes(),
            root_g,
        }
    }

    fn v(&self, g: usize) -> usize {
        (g + self.n - self.root_g) % self.n
    }

    fn unv(&self, v: usize) -> usize {
        (v + self.root_g) % self.n
    }

    /// Parent group node (None for the root's node).
    fn parent(&self, g: usize) -> Option<usize> {
        embed::parent(self.kind, self.v(g), self.n).map(|p| self.unv(p))
    }

    /// Child group nodes in broadcast send order.
    fn children(&self, g: usize) -> Vec<usize> {
        embed::children(self.kind, self.v(g), self.n)
            .into_iter()
            .map(|v| self.unv(v))
            .collect()
    }

    /// Child group nodes in reduce receive order.
    fn children_ascending(&self, g: usize) -> Vec<usize> {
        embed::children_ascending(self.kind, self.v(g), self.n)
            .into_iter()
            .map(|v| self.unv(v))
            .collect()
    }
}

impl SrmComm {
    /// World rank of communicator rank `c`.
    fn cworld(&self, c: usize) -> Rank {
        self.group().ranks()[c]
    }

    // ----------------------------------------------------------------
    // Broadcast
    // ----------------------------------------------------------------

    /// Plan a broadcast: route to pure shared memory, the buffered
    /// small-message protocol, or the zero-copy large-message protocol.
    /// `root` is a communicator rank.
    pub(crate) fn plan_bcast(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        if !self.cmulti() {
            self.plan_smp_bcast(b, len, self.cworld(root));
            return;
        }
        // Decision knobs (switch points) come from the builder's
        // effective per-shape tuning; buffer geometry stays world-wide.
        let t = *b.tuning();
        let tree = GroupTree::new(self, self.cnode_of(root));
        let toggles = self.c_is_master() && len <= t.interrupt_disable_max;
        if toggles {
            b.push(Step::SetInterrupts(false));
        }
        // The small/large protocol split is the rooted row of the
        // segment-routing table: staged through the landing buffers vs
        // one direct put per child after an address exchange.
        match self.segment_route(&t, crate::route::RouteClass::Rooted, len) {
            crate::route::SegmentRoute::Staged => self.plan_bcast_small(b, len, root, &tree),
            crate::route::SegmentRoute::Direct => self.plan_bcast_large(b, len, root, &tree),
        }
        if toggles {
            b.push(Step::SetInterrupts(true));
        }
    }

    /// Forward one landing-buffer chunk to every child node, honouring
    /// the per-edge credits (Figure 4, left). `rel` is the chunk index
    /// against [`SeqBase::Landing`]; `children` are group nodes.
    fn plan_forward_landing_chunk(
        &self,
        b: &mut PlanBuilder,
        children: &[usize],
        rel: u64,
        clen: usize,
    ) {
        let my_node = self.cnode();
        let side = par(SeqBase::Landing, rel);
        for &c in children {
            b.push(Step::CounterWait {
                ctr: CtrRef::BcastFree {
                    node: my_node,
                    child: c,
                    rel,
                },
                n: 1,
            });
            b.push(Step::RmaPut {
                to: self.cmaster_of(c),
                src: BufRef::Landing {
                    node: my_node,
                    side,
                },
                src_off: Off::Lit(0),
                dst: BufRef::Landing { node: c, side },
                dst_off: Off::Lit(0),
                len: clen,
                ctr: Some(CtrRef::LandingData { node: c, rel }),
            });
        }
    }

    /// Small-message broadcast (≤ 64 KB): puts land in the node's two
    /// shared landing buffers; 8–32 KB messages are pipelined in 4 KB
    /// chunks through them (§2.4).
    fn plan_bcast_small(&self, b: &mut PlanBuilder, len: usize, root: usize, tree: &GroupTree) {
        let chunk = b.tuning().small_bcast_chunk(len);
        let chunks = SrmTuning::chunk_count(len, chunk);
        let p = self.cslots_here();
        let my_node = self.cnode();
        let on_root_node = my_node == tree.root_g;
        let children = if self.c_is_master() {
            tree.children(my_node)
        } else {
            Vec::new()
        };
        let rel0 = b.rel(SeqBase::Landing);
        let read_streams = p.saturating_sub(1).max(1);

        for k in 0..chunks {
            let off = k * chunk;
            let clen = chunk.min(len - off);
            let rel = rel0 + k as u64;
            let side = par(SeqBase::Landing, rel);
            if on_root_node && self.crank() == root {
                // Stage the chunk into the landing buffer: it serves
                // both the local distribution and the network puts.
                b.push(Step::Trace("bcast:stage"));
                b.push(Step::PairWaitFree {
                    pair: PairSel::Landing,
                    side,
                });
                b.push(Step::ShmCopy {
                    src: BufRef::User,
                    src_off: Off::Lit(off),
                    dst: BufRef::Landing {
                        node: my_node,
                        side,
                    },
                    dst_off: Off::Lit(0),
                    len: clen,
                    cost: CopyCost::Write(1),
                });
                // Publish locally before the (possibly credit-blocked)
                // network puts: the puts are one-sided and lose nothing,
                // while the local readers can start draining at once.
                b.push(Step::PairPublish {
                    pair: PairSel::Landing,
                    side,
                });
                if self.c_is_master() {
                    self.plan_forward_landing_chunk(b, &children, rel, clen);
                }
            } else if on_root_node && self.c_is_master() {
                // Root is another task on this node: read its published
                // chunk, forward it down the tree, then consume it.
                b.push(Step::PairWaitPublished {
                    pair: PairSel::Landing,
                    side,
                });
                self.plan_forward_landing_chunk(b, &children, rel, clen);
                b.push(Step::ShmCopy {
                    src: BufRef::Landing {
                        node: my_node,
                        side,
                    },
                    src_off: Off::Lit(0),
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(read_streams),
                });
                b.push(Step::PairRelease {
                    pair: PairSel::Landing,
                    side,
                });
            } else if self.c_is_master() {
                // Interior/leaf node master: wait for the parent's put,
                // send the data down the tree first (Figure 4, step 2),
                // then run the local distribution and return the credit.
                b.push(Step::CounterWait {
                    ctr: CtrRef::LandingData { node: my_node, rel },
                    n: 1,
                });
                b.push(Step::Trace("bcast:chunk-in"));
                b.push(Step::PairPublish {
                    pair: PairSel::Landing,
                    side,
                });
                self.plan_forward_landing_chunk(b, &children, rel, clen);
                b.push(Step::ShmCopy {
                    src: BufRef::Landing {
                        node: my_node,
                        side,
                    },
                    src_off: Off::Lit(0),
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(read_streams),
                });
                b.push(Step::PairWaitDrained {
                    pair: PairSel::Landing,
                    side,
                });
                b.push(Step::Trace("bcast:ack"));
                let parent = tree.parent(my_node).expect("non-root node has a parent");
                b.push(Step::CounterPut {
                    to: self.cmaster_of(parent),
                    ctr: CtrRef::BcastFree {
                        node: parent,
                        child: my_node,
                        rel,
                    },
                });
            } else {
                // Plain reader: the put target is shared memory, so the
                // data is consumed with a single copy.
                b.push(Step::PairWaitPublished {
                    pair: PairSel::Landing,
                    side,
                });
                b.push(Step::Trace("bcast:read"));
                b.push(Step::ShmCopy {
                    src: BufRef::Landing {
                        node: my_node,
                        side,
                    },
                    src_off: Off::Lit(0),
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(read_streams),
                });
                b.push(Step::PairRelease {
                    pair: PairSel::Landing,
                    side,
                });
            }
        }
        b.advance(SeqBase::Landing, chunks as u64);
    }

    /// Large-message broadcast (> 64 KB, Figure 4 right): an address
    /// exchange, then pipelined puts straight into the user buffers —
    /// no intermediate buffers whatsoever — overlapped with the
    /// intra-node two-buffer broadcast.
    fn plan_bcast_large(&self, b: &mut PlanBuilder, len: usize, root: usize, tree: &GroupTree) {
        // Effective put size (a whole number of smp_buf cells, so the
        // chunk boundaries stay aligned with the intra-node cell grid).
        let lc = b.tuning().large_chunk;
        let chunks = SrmTuning::chunk_count(len, lc);
        let p = self.cslots_here();
        let my_node = self.cnode();
        let root_node = tree.root_g;
        let master = self.c_is_master();

        // Stage 1: address exchange (leaf→parent user-buffer handles).
        if master && my_node != root_node {
            let parent = tree.parent(my_node).expect("non-root node has a parent");
            b.push(Step::AddrSend {
                to: self.cmaster_of(parent),
                am: self.comm.am_addr_xchg,
                src: HandleSrc::User,
            });
        }
        let children = if master {
            tree.children(my_node)
        } else {
            Vec::new()
        };
        let child_idx: Vec<(usize, usize)> =
            children.iter().map(|&c| (c, b.take_addr(c))).collect();

        let emit_puts_for_chunk = |b: &mut PlanBuilder, k: usize| {
            let coff = k * lc;
            let cl = lc.min(len - coff);
            for &(c, idx) in &child_idx {
                b.push(Step::RmaPut {
                    to: self.cmaster_of(c),
                    src: BufRef::User,
                    src_off: Off::Lit(coff),
                    dst: BufRef::ChildUser { idx },
                    dst_off: Off::Lit(coff),
                    len: cl,
                    ctr: Some(CtrRef::LargeData { node: c }),
                });
            }
        };

        if my_node == root_node {
            if self.crank() == root {
                if master {
                    // Stage 2: pipelined zero-copy puts down the tree.
                    for k in 0..chunks {
                        emit_puts_for_chunk(b, k);
                    }
                }
                // Stage 3: intra-node broadcast on the root node.
                self.plan_smp_bcast(b, len, self.cworld(root));
            } else if master {
                // Master is an ordinary reader locally, but forwards
                // each completed large chunk down the tree as soon as
                // its cells have arrived through shared memory.
                let cells = self.smp_cells(len);
                let rel0 = b.rel(SeqBase::Smp);
                let mut next_chunk = 0usize;
                for j in 0..cells {
                    let (off, clen) = self.smp_cell(len, j);
                    self.plan_smp_cell_read(b, off, clen, rel0 + j as u64);
                    let done = off + clen;
                    while next_chunk < chunks && done >= (next_chunk * lc + lc).min(len) {
                        emit_puts_for_chunk(b, next_chunk);
                        next_chunk += 1;
                    }
                }
                b.advance(SeqBase::Smp, cells as u64);
            } else {
                self.plan_smp_bcast(b, len, self.cworld(root));
            }
        } else if master {
            // Stage 4 driver on a non-root node: as each chunk lands in
            // the user buffer, forward it, then feed the intra-node
            // pipeline cell by cell.
            let cells = self.smp_cells(len);
            let rel0 = b.rel(SeqBase::Smp);
            let mut j = 0usize;
            for k in 0..chunks {
                let coff = k * lc;
                let cl = lc.min(len - coff);
                b.push(Step::CounterWait {
                    ctr: CtrRef::LargeData { node: my_node },
                    n: 1,
                });
                emit_puts_for_chunk(b, k);
                if p > 1 {
                    while j < cells {
                        let (off, clen) = self.smp_cell(len, j);
                        if off + clen > coff + cl {
                            break;
                        }
                        self.plan_smp_cell_write(b, off, clen, rel0 + j as u64);
                        j += 1;
                    }
                }
            }
            if p > 1 {
                b.advance(SeqBase::Smp, cells as u64);
            }
        } else {
            self.plan_smp_bcast(b, len, self.cmaster_of(my_node));
        }
    }

    // ----------------------------------------------------------------
    // Reduce
    // ----------------------------------------------------------------

    /// Plan the pipelined reduce (§2.4): a binomial tree within each
    /// node and between the masters, chunked so that memory copies,
    /// operator execution and network transfers overlap. `root` is a
    /// communicator rank.
    pub(crate) fn plan_reduce(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let t = self.tuning();
        let (root_node, root_gslot) = self.ccoord_of(root);
        let tree = GroupTree::new(self, root_node);
        let toggles =
            self.cmulti() && self.c_is_master() && len <= b.tuning().interrupt_disable_max;
        if toggles {
            b.push(Step::SetInterrupts(false));
        }

        let chunk = t.reduce_chunk;
        let chunks = SrmTuning::chunk_count(len, chunk);
        let my_node = self.cnode();
        let xfer_case = my_node == root_node && root_gslot != 0;
        let rel0 = b.rel(SeqBase::Reduce);
        let xrel0 = b.rel(SeqBase::Xfer);

        for k in 0..chunks {
            let off = k * chunk;
            let clen = chunk.min(len - off);
            let rel = rel0 + k as u64;
            let has_acc = self.plan_smp_reduce_chunk(b, off, clen, rel, 0);

            if self.c_is_master() {
                debug_assert!(has_acc, "master is the intra-node subtree root");
                for c in tree.children_ascending(my_node) {
                    b.push(Step::CounterWait {
                        ctr: CtrRef::ReduceData {
                            node: my_node,
                            src: c,
                            rel,
                        },
                        n: 1,
                    });
                    b.push(Step::LocalReduce {
                        src: BufRef::ReduceLanding {
                            node: my_node,
                            src: c,
                            rel,
                        },
                        src_off: Off::Lit(0),
                        len: clen,
                    });
                    b.push(Step::CounterPut {
                        to: self.cmaster_of(c),
                        ctr: CtrRef::ReduceFree {
                            node: c,
                            dst: my_node,
                            rel,
                        },
                    });
                }
                if my_node != root_node {
                    let parent = tree.parent(my_node).expect("non-root node");
                    b.push(Step::CounterWait {
                        ctr: CtrRef::ReduceFree {
                            node: my_node,
                            dst: parent,
                            rel,
                        },
                        n: 1,
                    });
                    // Stage the combined chunk (the operator's output
                    // stream) and ship it.
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::Contrib { slot: 0 },
                        dst_off: poff(SeqBase::Reduce, rel, chunk),
                        len: clen,
                        cost: CopyCost::Free,
                    });
                    b.push(Step::RmaPut {
                        to: self.cmaster_of(parent),
                        src: BufRef::Contrib { slot: 0 },
                        src_off: poff(SeqBase::Reduce, rel, chunk),
                        dst: BufRef::ReduceLanding {
                            node: parent,
                            src: my_node,
                            rel,
                        },
                        dst_off: Off::Lit(0),
                        len: clen,
                        ctr: Some(CtrRef::ReduceData {
                            node: parent,
                            src: my_node,
                            rel,
                        }),
                    });
                } else if self.crank() == root {
                    // The final operator pass writes directly at the
                    // destination (no intermediate buffer, §4).
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::User,
                        dst_off: Off::Lit(off),
                        len: clen,
                        cost: CopyCost::Free,
                    });
                } else {
                    // Root is a non-master task on this node: hand the
                    // chunk over through the xfer buffer.
                    let xrel = xrel0 + k as u64;
                    plan_xfer_drained(b, xrel);
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::Xfer,
                        dst_off: poff(SeqBase::Xfer, xrel, chunk),
                        len: clen,
                        cost: CopyCost::Free,
                    });
                    plan_xfer_publish(b, xrel);
                }
            } else if xfer_case && self.crank() == root {
                let xrel = xrel0 + k as u64;
                plan_xfer_ready_wait(b, xrel, "xfer chunk ready");
                b.push(Step::ShmCopy {
                    src: BufRef::Xfer,
                    src_off: poff(SeqBase::Xfer, xrel, chunk),
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(1),
                });
                plan_xfer_done(b, xrel);
            }
        }
        b.advance(SeqBase::Reduce, chunks as u64);
        if xfer_case {
            b.advance(SeqBase::Xfer, chunks as u64);
        }
        if toggles {
            b.push(Step::SetInterrupts(true));
        }
    }

    // ----------------------------------------------------------------
    // Allreduce
    // ----------------------------------------------------------------

    /// Plan an allreduce: recursive doubling between nodes up to 16 KB,
    /// the four-stage pipeline above (§2.4, Figure 5); past
    /// [`allreduce_rs_min`](crate::SrmTuning::allreduce_rs_min) (when
    /// the payload splits evenly) the Rabenseifner composition —
    /// reduce-scatter over the pairwise subsystem, then allgather —
    /// which moves each byte over the wire only `2(P-1)/P` times
    /// instead of streaming the full vector through every node.
    pub(crate) fn plan_allreduce(&self, b: &mut PlanBuilder, len: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        // Algorithm choice (Rabenseifner / recursive doubling / the
        // four-stage pipeline) is per-shape tunable; the pairwise and
        // reduce sub-planners below read the same effective tuning off
        // the builder, so one table entry governs the whole call.
        let t = *b.tuning();
        let nprocs = self.csize();
        if self.cmulti()
            && len >= t.allreduce_rs_min
            && len.is_multiple_of(nprocs)
            && len / nprocs > 0
        {
            // Both halves use the same n-segment single-buffer layout:
            // reduce-scatter leaves block `me` reduced in place, the
            // allgather then fills in everyone else's blocks.
            self.plan_reduce_scatter(b, len / nprocs);
            self.plan_allgather(b, len / nprocs);
            return;
        }
        let toggles = self.cmulti() && self.c_is_master() && len <= t.interrupt_disable_max;
        if toggles {
            b.push(Step::SetInterrupts(false));
        }
        if len <= t.allreduce_rd_max {
            self.plan_allreduce_small(b, len);
        } else {
            self.plan_allreduce_large(b, len);
        }
        if toggles {
            b.push(Step::SetInterrupts(true));
        }
    }

    /// Up to 16 KB: one intra-node reduce to the master,
    /// recursive-doubling pairwise exchange between the masters,
    /// intra-node broadcast.
    fn plan_allreduce_small(&self, b: &mut PlanBuilder, len: usize) {
        let chunk = self.tuning().reduce_chunk;
        let rel = b.rel(SeqBase::Reduce);
        let has_acc = self.plan_smp_reduce_chunk(b, 0, len, rel, 0);
        let soff = poff(SeqBase::Reduce, rel, chunk);

        if self.c_is_master() {
            debug_assert!(has_acc, "master is the subtree root");
            let n = self.cnodes();
            if n > 1 {
                let my = self.cnode();
                // Staging a chunk for a put is the output stream of the
                // last operator pass — no charged copy.
                let stage = |b: &mut PlanBuilder| {
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::Contrib { slot: 0 },
                        dst_off: soff,
                        len,
                        cost: CopyCost::Free,
                    });
                };
                let pof2 = 1usize << (usize::BITS - 1 - n.leading_zeros());
                let rem = n - pof2;

                // Fold the extra nodes into their even neighbours.
                let newnode: isize = if my < 2 * rem {
                    if my % 2 == 1 {
                        b.push(Step::CounterWait {
                            ctr: CtrRef::FoldFree { node: my },
                            n: 1,
                        });
                        stage(b);
                        b.push(Step::RmaPut {
                            to: self.cmaster_of(my - 1),
                            src: BufRef::Contrib { slot: 0 },
                            src_off: soff,
                            dst: BufRef::FoldLanding { node: my - 1 },
                            dst_off: Off::Lit(0),
                            len,
                            ctr: Some(CtrRef::FoldData { node: my - 1 }),
                        });
                        -1
                    } else {
                        b.push(Step::CounterWait {
                            ctr: CtrRef::FoldData { node: my },
                            n: 1,
                        });
                        b.push(Step::LocalReduce {
                            src: BufRef::FoldLanding { node: my },
                            src_off: Off::Lit(0),
                            len,
                        });
                        b.push(Step::CounterPut {
                            to: self.cmaster_of(my + 1),
                            ctr: CtrRef::FoldFree { node: my + 1 },
                        });
                        (my / 2) as isize
                    }
                } else {
                    (my - rem) as isize
                };

                if newnode >= 0 {
                    let newnode = newnode as usize;
                    let mut mask = 1usize;
                    let mut round = 0usize;
                    while mask < pof2 {
                        let pn = newnode ^ mask;
                        let partner = if pn < rem { pn * 2 } else { pn + rem };
                        b.push(Step::CounterWait {
                            ctr: CtrRef::RdFree { node: my, round },
                            n: 1,
                        });
                        stage(b);
                        b.push(Step::RmaPut {
                            to: self.cmaster_of(partner),
                            src: BufRef::Contrib { slot: 0 },
                            src_off: soff,
                            dst: BufRef::RdLanding {
                                node: partner,
                                round,
                            },
                            dst_off: Off::Lit(0),
                            len,
                            ctr: Some(CtrRef::RdData {
                                node: partner,
                                round,
                            }),
                        });
                        b.push(Step::CounterWait {
                            ctr: CtrRef::RdData { node: my, round },
                            n: 1,
                        });
                        b.push(Step::LocalReduce {
                            src: BufRef::RdLanding { node: my, round },
                            src_off: Off::Lit(0),
                            len,
                        });
                        b.push(Step::CounterPut {
                            to: self.cmaster_of(partner),
                            ctr: CtrRef::RdFree {
                                node: partner,
                                round,
                            },
                        });
                        mask <<= 1;
                        round += 1;
                    }
                }

                // Unfold: hand the result back to the folded-out nodes.
                if my < 2 * rem {
                    if my.is_multiple_of(2) {
                        stage(b);
                        b.push(Step::RmaPut {
                            to: self.cmaster_of(my + 1),
                            src: BufRef::Contrib { slot: 0 },
                            src_off: soff,
                            dst: BufRef::FoldLanding { node: my + 1 },
                            dst_off: Off::Lit(0),
                            len,
                            ctr: Some(CtrRef::UnfoldData { node: my + 1 }),
                        });
                    } else {
                        b.push(Step::CounterWait {
                            ctr: CtrRef::UnfoldData { node: my },
                            n: 1,
                        });
                        b.push(Step::ShmCopy {
                            src: BufRef::FoldLanding { node: my },
                            src_off: Off::Lit(0),
                            dst: BufRef::Acc,
                            dst_off: Off::Lit(0),
                            len,
                            cost: CopyCost::Read(1),
                        });
                    }
                }
            }
            b.push(Step::ShmCopy {
                src: BufRef::Acc,
                src_off: Off::Lit(0),
                dst: BufRef::User,
                dst_off: Off::Lit(0),
                len,
                cost: CopyCost::Free,
            });
        }
        b.advance(SeqBase::Reduce, 1);
        self.plan_smp_bcast(b, len, self.cmaster_of(self.cnode()));
    }

    /// Above 16 KB: the four-stage pipeline of Figure 5 — per chunk:
    /// intra-node reduce, inter-node reduce toward group node 0,
    /// inter-node broadcast away from group node 0, intra-node
    /// broadcast. One-sided puts let the stages of consecutive chunks
    /// overlap.
    fn plan_allreduce_large(&self, b: &mut PlanBuilder, len: usize) {
        let t = self.tuning();
        let tree = GroupTree::new(self, 0);
        let chunk = t.reduce_chunk;
        let chunks = SrmTuning::chunk_count(len, chunk);
        let p = self.cslots_here();
        let my_node = self.cnode();
        let rel0 = b.rel(SeqBase::Reduce);
        let lrel0 = b.rel(SeqBase::Landing);
        let read_streams = p.saturating_sub(1).max(1);
        let bcast_children = if self.c_is_master() {
            tree.children(my_node)
        } else {
            Vec::new()
        };

        for k in 0..chunks {
            let off = k * chunk;
            let clen = chunk.min(len - off);
            let rel = rel0 + k as u64;
            let lrel = lrel0 + k as u64;
            let lside = par(SeqBase::Landing, lrel);
            let has_acc = self.plan_smp_reduce_chunk(b, off, clen, rel, 0);

            if self.c_is_master() {
                debug_assert!(has_acc, "master is the subtree root");
                // Inter-node reduce leg.
                for c in tree.children_ascending(my_node) {
                    b.push(Step::CounterWait {
                        ctr: CtrRef::ReduceData {
                            node: my_node,
                            src: c,
                            rel,
                        },
                        n: 1,
                    });
                    b.push(Step::LocalReduce {
                        src: BufRef::ReduceLanding {
                            node: my_node,
                            src: c,
                            rel,
                        },
                        src_off: Off::Lit(0),
                        len: clen,
                    });
                    b.push(Step::CounterPut {
                        to: self.cmaster_of(c),
                        ctr: CtrRef::ReduceFree {
                            node: c,
                            dst: my_node,
                            rel,
                        },
                    });
                }
                if my_node != 0 {
                    let parent = tree.parent(my_node).expect("non-zero node");
                    b.push(Step::CounterWait {
                        ctr: CtrRef::ReduceFree {
                            node: my_node,
                            dst: parent,
                            rel,
                        },
                        n: 1,
                    });
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::Contrib { slot: 0 },
                        dst_off: poff(SeqBase::Reduce, rel, chunk),
                        len: clen,
                        cost: CopyCost::Free,
                    });
                    b.push(Step::RmaPut {
                        to: self.cmaster_of(parent),
                        src: BufRef::Contrib { slot: 0 },
                        src_off: poff(SeqBase::Reduce, rel, chunk),
                        dst: BufRef::ReduceLanding {
                            node: parent,
                            src: my_node,
                            rel,
                        },
                        dst_off: Off::Lit(0),
                        len: clen,
                        ctr: Some(CtrRef::ReduceData {
                            node: parent,
                            src: my_node,
                            rel,
                        }),
                    });
                    // Inter-node broadcast leg: wait for the combined
                    // chunk to come back, forward, distribute locally.
                    b.push(Step::CounterWait {
                        ctr: CtrRef::LandingData {
                            node: my_node,
                            rel: lrel,
                        },
                        n: 1,
                    });
                    b.push(Step::PairPublish {
                        pair: PairSel::Landing,
                        side: lside,
                    });
                    self.plan_forward_landing_chunk(b, &bcast_children, lrel, clen);
                    b.push(Step::ShmCopy {
                        src: BufRef::Landing {
                            node: my_node,
                            side: lside,
                        },
                        src_off: Off::Lit(0),
                        dst: BufRef::User,
                        dst_off: Off::Lit(off),
                        len: clen,
                        cost: CopyCost::Read(read_streams),
                    });
                    b.push(Step::PairWaitDrained {
                        pair: PairSel::Landing,
                        side: lside,
                    });
                    b.push(Step::CounterPut {
                        to: self.cmaster_of(parent),
                        ctr: CtrRef::BcastFree {
                            node: parent,
                            child: my_node,
                            rel: lrel,
                        },
                    });
                } else {
                    // Group node 0: the chunk is fully combined; start
                    // the broadcast leg from here.
                    b.push(Step::PairWaitFree {
                        pair: PairSel::Landing,
                        side: lside,
                    });
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::Landing {
                            node: my_node,
                            side: lside,
                        },
                        dst_off: Off::Lit(0),
                        len: clen,
                        cost: CopyCost::Write(1),
                    });
                    b.push(Step::PairPublish {
                        pair: PairSel::Landing,
                        side: lside,
                    });
                    self.plan_forward_landing_chunk(b, &bcast_children, lrel, clen);
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::User,
                        dst_off: Off::Lit(off),
                        len: clen,
                        cost: CopyCost::Free,
                    });
                }
            } else {
                // Non-master: consume the broadcast chunk from the
                // landing buffer.
                b.push(Step::PairWaitPublished {
                    pair: PairSel::Landing,
                    side: lside,
                });
                b.push(Step::ShmCopy {
                    src: BufRef::Landing {
                        node: my_node,
                        side: lside,
                    },
                    src_off: Off::Lit(0),
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(read_streams),
                });
                b.push(Step::PairRelease {
                    pair: PairSel::Landing,
                    side: lside,
                });
            }
        }
        b.advance(SeqBase::Reduce, chunks as u64);
        b.advance(SeqBase::Landing, chunks as u64);
    }

    // ----------------------------------------------------------------
    // Barrier
    // ----------------------------------------------------------------

    /// Plan a communicator barrier (§2.4 and [17]): flat flag check-in
    /// on each node, pairwise-exchange (dissemination) rounds with
    /// zero-byte puts between the masters on cumulative counters, then
    /// the flag reset releases the node.
    pub(crate) fn plan_barrier(&self, b: &mut PlanBuilder) {
        if self.csize() == 1 {
            return;
        }
        let toggles = self.cmulti() && self.c_is_master();
        if toggles {
            b.push(Step::SetInterrupts(false));
        }
        self.plan_smp_barrier_enter(b);
        let n = self.cnodes();
        if self.c_is_master() && n > 1 {
            let my = self.cnode();
            let mut dist = 1usize;
            let mut round = 0usize;
            while dist < n {
                let to = (my + dist) % n;
                b.push(Step::CounterPut {
                    to: self.cmaster_of(to),
                    ctr: CtrRef::BarRound { node: to, round },
                });
                b.push(Step::CounterWaitGe {
                    ctr: CtrRef::BarRound { node: my, round },
                    val: seq(SeqBase::Barrier, 1),
                });
                dist <<= 1;
                round += 1;
            }
        }
        b.advance(SeqBase::Barrier, 1);
        self.plan_smp_barrier_release(b);
        if toggles {
            b.push(Step::SetInterrupts(true));
        }
    }

    // ----------------------------------------------------------------
    // Gather / Scatter / Allgather
    // ----------------------------------------------------------------

    /// Plan a gather: every member's segment `buf[c*len..(c+1)*len]`
    /// (indexed by **communicator rank** `c`) reaches the root's buffer
    /// at the same offsets. `root` is a communicator rank.
    ///
    /// Protocol: non-master tasks relay their segment in reduce-chunk
    /// pieces through their per-slot contribution buffers (the reduce
    /// leaf pattern); each master puts the pieces **straight into the
    /// root's user buffer** at their final offsets — zero staging at
    /// the root — after a one-AM address exchange, bumping the root
    /// node's `large_data` counter per piece. The root consumes local
    /// contributions through shared memory and finally waits for the
    /// full remote piece count. Interrupts stay enabled: the root-node
    /// master may finish its own steps before remote puts arrive.
    pub(crate) fn plan_gather(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let t = self.tuning();
        let chunk = t.reduce_chunk;
        let chunks = SrmTuning::chunk_count(len, chunk);
        let p = self.cslots_here();
        let nodes = self.cnodes();
        let my_node = self.cnode();
        let my = self.cslot();
        let (root_node, root_gslot) = self.ccoord_of(root);
        let multi = self.cmulti();
        // When the root is not its node's master, the *master* is the
        // target of the remote puts, so the master must be the rank
        // that waits for them (it may not leave the call — and later
        // disable interrupts or shut down — while puts are in flight);
        // it then signals the root over the xfer channel.
        let master_waits = multi && root_gslot != 0;
        let rel0 = b.rel(SeqBase::Reduce);
        let xrel0 = b.rel(SeqBase::Xfer);
        let write_streams = p.saturating_sub(1).max(1);
        // Remote pieces the root side absorbs: every member of every
        // non-root node relays `chunks` pieces.
        let remote_pieces = || -> u64 {
            (0..nodes)
                .filter(|&g| g != root_node)
                .map(|g| self.cslots_on(g) * chunks)
                .sum::<usize>() as u64
        };

        // Relay my segment chunk-by-chunk through my contribution
        // buffer (producer half of the reduce-leaf pattern).
        let contribute = |b: &mut PlanBuilder| {
            for k in 0..chunks {
                let koff = k * chunk;
                self.plan_contrib_publish(
                    b,
                    rel0 + k as u64,
                    BufRef::User,
                    Off::Lit(self.crank() * len + koff),
                    chunk.min(len - koff),
                    CopyCost::Write(write_streams),
                );
            }
        };

        if self.crank() == root {
            // Hand my buffer handle to my master so it can forward it
            // to the remote masters.
            if multi && my != 0 {
                b.push(Step::BoardAddrPut);
            }
            if multi && my == 0 {
                for m in 0..nodes {
                    if m != root_node {
                        b.push(Step::AddrSend {
                            to: self.cmaster_of(m),
                            am: self.comm.am_gs_addr,
                            src: HandleSrc::User,
                        });
                    }
                }
            }
            // Consume every other local slot's segment.
            for s in 0..p {
                if s == my {
                    continue;
                }
                let seg = self.crank_at(my_node, s) * len;
                for k in 0..chunks {
                    let rel = rel0 + k as u64;
                    let koff = k * chunk;
                    let clen = chunk.min(len - koff);
                    self.plan_contrib_wait(b, s, rel, "gather contribution ready");
                    b.push(Step::ShmCopy {
                        src: BufRef::Contrib { slot: s },
                        src_off: poff(SeqBase::Reduce, rel, chunk),
                        dst: BufRef::User,
                        dst_off: Off::Lit(seg + koff),
                        len: clen,
                        cost: CopyCost::Read(1),
                    });
                    self.plan_contrib_done(b, s, rel);
                }
            }
            // Wait for every remote piece to land in my buffer.
            if multi {
                if master_waits {
                    plan_xfer_ready_wait(b, xrel0, "gather remote pieces landed");
                    plan_xfer_done(b, xrel0);
                } else {
                    b.push(Step::CounterWait {
                        ctr: CtrRef::LargeData { node: root_node },
                        n: remote_pieces(),
                    });
                }
                b.push(Step::Trace("gather:done"));
            }
        } else if my_node == root_node {
            // Root-node master (when it is not the root) forwards the
            // root's handle before contributing its own segment.
            if multi && my == 0 {
                b.push(Step::BoardAddrTake);
                for m in 0..nodes {
                    if m != root_node {
                        b.push(Step::AddrSend {
                            to: self.cmaster_of(m),
                            am: self.comm.am_gs_addr,
                            src: HandleSrc::RootUser,
                        });
                    }
                }
            }
            contribute(b);
            if master_waits && my == 0 {
                // I am the target of the remote puts: absorb them all,
                // then wake the root through the xfer flags.
                b.push(Step::CounterWait {
                    ctr: CtrRef::LargeData { node: root_node },
                    n: remote_pieces(),
                });
                plan_xfer_drained(b, xrel0);
                plan_xfer_publish(b, xrel0);
            }
        } else if my == 0 {
            // Remote master: learn the root's buffer, put my own
            // segment, then relay every local slot's pieces.
            b.push(Step::GsRootTake);
            for k in 0..chunks {
                let koff = k * chunk;
                let clen = chunk.min(len - koff);
                b.push(Step::RmaPut {
                    to: self.cmaster_of(root_node),
                    src: BufRef::User,
                    src_off: Off::Lit(self.crank() * len + koff),
                    dst: BufRef::RootUser,
                    dst_off: Off::Lit(self.crank() * len + koff),
                    len: clen,
                    ctr: Some(CtrRef::LargeData { node: root_node }),
                });
            }
            for s in 1..p {
                let seg = self.crank_at(my_node, s) * len;
                for k in 0..chunks {
                    let rel = rel0 + k as u64;
                    let koff = k * chunk;
                    let clen = chunk.min(len - koff);
                    self.plan_contrib_wait(b, s, rel, "gather contribution ready");
                    b.push(Step::Trace("gather:relay"));
                    b.push(Step::RmaPut {
                        to: self.cmaster_of(root_node),
                        src: BufRef::Contrib { slot: s },
                        src_off: poff(SeqBase::Reduce, rel, chunk),
                        dst: BufRef::RootUser,
                        dst_off: Off::Lit(seg + koff),
                        len: clen,
                        ctr: Some(CtrRef::LargeData { node: root_node }),
                    });
                    self.plan_contrib_done(b, s, rel);
                }
            }
        } else {
            contribute(b);
        }
        b.advance(SeqBase::Reduce, chunks as u64);
        if master_waits && my_node == root_node {
            b.advance(SeqBase::Xfer, 1);
        }
    }

    /// Piece decomposition of group node `g`'s scatter block as
    /// `(root_off, block_off, plen)` triples: source offset in the
    /// root's user buffer, offset within the node's logical block
    /// (slot `s`'s segment occupies `[s*len, (s+1)*len)`), and piece
    /// length.
    ///
    /// When the node's members hold **consecutive** communicator ranks
    /// the whole block is one contiguous region of the root's buffer
    /// and streams in plain chunks (the world fast path); otherwise
    /// each slot's segment is its own chunk run, because a single RMA
    /// put needs a contiguous source.
    pub(crate) fn scatter_pieces(
        &self,
        g: usize,
        len: usize,
        chunk: usize,
    ) -> Vec<(usize, usize, usize)> {
        let slots = self.cslots_on(g);
        let mut out = Vec::new();
        if self.ccontig(g) {
            let base = self.crank_at(g, 0) * len;
            let block = slots * len;
            for k in 0..SrmTuning::chunk_count(block, chunk) {
                let off = k * chunk;
                out.push((base + off, off, chunk.min(block - off)));
            }
        } else {
            let segc = SrmTuning::chunk_count(len, chunk);
            for s in 0..slots {
                let seg = self.crank_at(g, s) * len;
                for k in 0..segc {
                    let off = k * chunk;
                    out.push((seg + off, s * len + off, chunk.min(len - off)));
                }
            }
        }
        out
    }

    /// Plan a scatter: the root's `buf[..csize*len]` is cut into
    /// per-rank segments; communicator rank `c` receives
    /// `buf[c*len..(c+1)*len]`. `root` is a communicator rank.
    ///
    /// Protocol: the root streams each destination node's block in
    /// pieces (see [`SrmComm::scatter_pieces`]) through the reduce
    /// landing channels (reusing their credit protocol unchanged); the
    /// receiving master relays each piece into the node's SMP pair,
    /// where every slot copies out just the overlap with its own
    /// segment. A root that is not its node's master hands pieces to
    /// the master through the `xfer` buffer, exactly like the reduce
    /// handoff in the other direction.
    pub(crate) fn plan_scatter(&self, b: &mut PlanBuilder, len: usize, root: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        let chunk = self.tuning().reduce_chunk;
        let p = self.cslots_here();
        let nodes = self.cnodes();
        let my_node = self.cnode();
        let my = self.cslot();
        let (root_node, root_gslot) = self.ccoord_of(root);
        let multi = self.cmulti();
        let xfer_relay = multi && root_gslot != 0;
        let rel0 = b.rel(SeqBase::Reduce);
        let srel0 = b.rel(SeqBase::Smp);
        let xrel0 = b.rel(SeqBase::Xfer);
        let read_streams = p.saturating_sub(1).max(1);
        let mine = self.scatter_pieces(my_node, len, chunk);
        // Uniform advance: per-node piece counts differ on uneven
        // groups, but the Reduce cumulative indexes cross-node counters
        // and must advance identically on every member (see the module
        // doc), so all ranks advance by the maximum.
        let max_pieces = (0..nodes)
            .map(|g| self.scatter_pieces(g, len, chunk).len())
            .max()
            .expect("group has at least one node");
        // Xfer pieces the root hands to its master, in stream order.
        let xfer_total: u64 = (0..nodes)
            .filter(|&g| g != root_node)
            .map(|g| self.scatter_pieces(g, len, chunk).len() as u64)
            .sum();

        // Overlap of a piece `(block_off, plen)` with slot `s`'s
        // segment, as `(piece_off, user_off, olen)`.
        let overlap = |boff: usize, plen: usize, s: usize| -> Option<(usize, usize, usize)> {
            let lo = boff.max(s * len);
            let hi = (boff + plen).min((s + 1) * len);
            (lo < hi).then(|| {
                (
                    lo - boff,
                    self.crank_at(my_node, s) * len + (lo - s * len),
                    hi - lo,
                )
            })
        };
        // Reader side of the SMP-pair distribution of my node's block
        // (every non-publishing slot must release every piece).
        let read_block = |b: &mut PlanBuilder| {
            for (j, &(_, boff, plen)) in mine.iter().enumerate() {
                let side = par(SeqBase::Smp, srel0 + j as u64);
                b.push(Step::PairWaitPublished {
                    pair: PairSel::Smp,
                    side,
                });
                if let Some((soff, uoff, olen)) = overlap(boff, plen, my) {
                    b.push(Step::ShmCopy {
                        src: BufRef::Smp { side },
                        src_off: Off::Lit(soff),
                        dst: BufRef::User,
                        dst_off: Off::Lit(uoff),
                        len: olen,
                        cost: CopyCost::Read(read_streams),
                    });
                }
                b.push(Step::PairRelease {
                    pair: PairSel::Smp,
                    side,
                });
            }
        };
        // Writer side: publish piece `j` of my node's block from `src`.
        let write_piece = |b: &mut PlanBuilder, j: usize, src: BufRef, src_off: usize, plen| {
            let side = par(SeqBase::Smp, srel0 + j as u64);
            b.push(Step::PairWaitFree {
                pair: PairSel::Smp,
                side,
            });
            b.push(Step::ShmCopy {
                src,
                src_off: Off::Lit(src_off),
                dst: BufRef::Smp { side },
                dst_off: Off::Lit(0),
                len: plen,
                cost: CopyCost::Write(1),
            });
            b.push(Step::PairPublish {
                pair: PairSel::Smp,
                side,
            });
        };

        if self.crank() == root {
            // Ship every other node's block through the reduce landing
            // channels (directly, or via my master over `xfer`).
            if multi {
                let mut xi = 0u64;
                for c in 0..nodes {
                    if c == root_node {
                        continue;
                    }
                    for (j, &(roff, _, plen)) in
                        self.scatter_pieces(c, len, chunk).iter().enumerate()
                    {
                        let rel = rel0 + j as u64;
                        if root_gslot == 0 {
                            b.push(Step::CounterWait {
                                ctr: CtrRef::ReduceFree {
                                    node: root_node,
                                    dst: c,
                                    rel,
                                },
                                n: 1,
                            });
                            b.push(Step::RmaPut {
                                to: self.cmaster_of(c),
                                src: BufRef::User,
                                src_off: Off::Lit(roff),
                                dst: BufRef::ReduceLanding {
                                    node: c,
                                    src: root_node,
                                    rel,
                                },
                                dst_off: Off::Lit(0),
                                len: plen,
                                ctr: Some(CtrRef::ReduceData {
                                    node: c,
                                    src: root_node,
                                    rel,
                                }),
                            });
                        } else {
                            let xrel = xrel0 + xi;
                            plan_xfer_drained(b, xrel);
                            b.push(Step::ShmCopy {
                                src: BufRef::User,
                                src_off: Off::Lit(roff),
                                dst: BufRef::Xfer,
                                dst_off: poff(SeqBase::Xfer, xrel, chunk),
                                len: plen,
                                cost: CopyCost::Free,
                            });
                            plan_xfer_publish(b, xrel);
                            xi += 1;
                        }
                    }
                }
            }
            // Distribute my own node's block through the SMP pair.
            if p > 1 {
                for (j, &(roff, _, plen)) in mine.iter().enumerate() {
                    write_piece(b, j, BufRef::User, roff, plen);
                }
            }
        } else if my_node == root_node {
            if my == 0 && xfer_relay {
                // Master relays the root's xfer pieces onto the wire.
                let mut xi = 0u64;
                for c in 0..nodes {
                    if c == root_node {
                        continue;
                    }
                    for (j, &(_, _, plen)) in self.scatter_pieces(c, len, chunk).iter().enumerate()
                    {
                        let rel = rel0 + j as u64;
                        let xrel = xrel0 + xi;
                        plan_xfer_ready_wait(b, xrel, "xfer chunk ready");
                        b.push(Step::CounterWait {
                            ctr: CtrRef::ReduceFree {
                                node: root_node,
                                dst: c,
                                rel,
                            },
                            n: 1,
                        });
                        b.push(Step::RmaPut {
                            to: self.cmaster_of(c),
                            src: BufRef::Xfer,
                            src_off: poff(SeqBase::Xfer, xrel, chunk),
                            dst: BufRef::ReduceLanding {
                                node: c,
                                src: root_node,
                                rel,
                            },
                            dst_off: Off::Lit(0),
                            len: plen,
                            ctr: Some(CtrRef::ReduceData {
                                node: c,
                                src: root_node,
                                rel,
                            }),
                        });
                        // The put snapshots the source synchronously, so
                        // the side is reusable as soon as it is issued.
                        plan_xfer_done(b, xrel);
                        xi += 1;
                    }
                }
            }
            read_block(b);
        } else if my == 0 {
            // Destination-node master: land each piece, republish it on
            // the SMP pair, return the credit, take my overlap.
            for (j, &(_, boff, plen)) in mine.iter().enumerate() {
                let rel = rel0 + j as u64;
                let landing = BufRef::ReduceLanding {
                    node: my_node,
                    src: root_node,
                    rel,
                };
                let credit = Step::CounterPut {
                    to: self.cmaster_of(root_node),
                    ctr: CtrRef::ReduceFree {
                        node: root_node,
                        dst: my_node,
                        rel,
                    },
                };
                b.push(Step::CounterWait {
                    ctr: CtrRef::ReduceData {
                        node: my_node,
                        src: root_node,
                        rel,
                    },
                    n: 1,
                });
                b.push(Step::Trace("scatter:chunk-in"));
                if p > 1 {
                    write_piece(b, j, landing, 0, plen);
                    b.push(credit);
                    if let Some((soff, uoff, olen)) = overlap(boff, plen, my) {
                        b.push(Step::ShmCopy {
                            src: BufRef::Smp {
                                side: par(SeqBase::Smp, srel0 + j as u64),
                            },
                            src_off: Off::Lit(soff),
                            dst: BufRef::User,
                            dst_off: Off::Lit(uoff),
                            len: olen,
                            cost: CopyCost::Read(read_streams),
                        });
                    }
                } else {
                    b.push(Step::ShmCopy {
                        src: landing,
                        src_off: Off::Lit(0),
                        dst: BufRef::User,
                        dst_off: Off::Lit(self.crank() * len + boff),
                        len: plen,
                        cost: CopyCost::Read(1),
                    });
                    b.push(credit);
                }
            }
        } else {
            read_block(b);
        }

        b.advance(SeqBase::Reduce, max_pieces as u64);
        if p > 1 {
            b.advance(SeqBase::Smp, mine.len() as u64);
        }
        if xfer_relay && my_node == root_node {
            b.advance(SeqBase::Xfer, xfer_total);
        }
    }

    /// Plan an allgather: a gather to communicator rank 0 concatenated
    /// with a broadcast of the assembled `csize*len` bytes — the
    /// planner composition the schedule IR makes trivial (the
    /// broadcast's relative sequence values land after the gather's
    /// advances).
    pub(crate) fn plan_allgather(&self, b: &mut PlanBuilder, len: usize) {
        if len == 0 || self.csize() == 1 {
            return;
        }
        self.plan_gather(b, len, 0);
        self.plan_bcast(b, self.csize() * len, 0);
    }
}
