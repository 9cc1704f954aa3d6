//! The pairwise RMA exchange subsystem: alltoall, alltoallv and
//! reduce-scatter built on per-node-pair put streams.
//!
//! Total-exchange collectives have no root and no tree: every node pair
//! carries its own data stream concurrently. The machinery the paper's
//! rooted protocols use — one landing channel per node, one counter per
//! collective — cannot express that, so this module adds three pieces:
//!
//! * **An address-exchange registry** ([`PairwiseState`]): at
//!   communicator-creation time every group-node master allocates one
//!   inbound *landing ring* per peer group node and the handles are
//!   exchanged like registered memory, so any master can put into any
//!   peer's ring with no per-call address traffic (contrast the
//!   large-broadcast protocol, which exchanges user-buffer addresses
//!   every call).
//! * **Per-pair counter families** ([`rma::CounterFamily`]): one data
//!   counter and one credit counter per ordered `(src, dst)` group-node
//!   pair, so each of the `n·(n-1)` concurrent streams synchronizes
//!   independently. Disjoint communicators own disjoint families, so
//!   their exchanges never share a counter.
//! * **A segment-interleaved credit scheme**: a source may have at most
//!   [`SrmTuning::pairwise_window`](crate::SrmTuning) puts outstanding
//!   toward one destination (the ring has that many
//!   [`pairwise_chunk`](crate::SrmTuning)-sized slots per source); it
//!   spends a credit per put ([`Step::CreditWait`]) and the destination
//!   returns the credit once it drains the slot. Senders round-robin
//!   across destinations piece by piece instead of finishing one peer
//!   before starting the next, so all streams stay in flight together.
//!
//! ## Two routes
//!
//! The pieces above implement the **staged** route. Above
//! [`SrmTuning::pairwise_direct_min`](crate::SrmTuning) the planner
//! resolves [`SegmentRoute::Direct`] instead (see [`crate::route`]):
//! a per-call address exchange over the per-communicator `pair_addr`
//! slots, then one rendezvous put per remote peer straight into its
//! user buffer (alltoall/alltoallv) or per-call scratch region
//! (reduce-scatter), completion-counted by the `direct`
//! [`rma::CounterFamily`] — skipping the rings, the credits and their
//! two extra copies entirely.
//!
//! ## Group coordinates
//!
//! Everything here is phrased over the communicator's shape: node
//! indices are *group-node* indices (`0..cnodes()`), slot indices are
//! group slots, and user-buffer segments are indexed by communicator
//! rank. When a group node's members hold consecutive communicator
//! ranks its segments form one contiguous block of the send buffer and
//! the stream chunks the whole block (the world fast path); otherwise
//! the stream degrades to per-`(src_slot, dst_slot)` cell runs, because
//! a single put needs a contiguous source. Both endpoints of a stream
//! derive the identical piece sequence from the group shape alone.
//!
//! ## Why literal ring offsets are safe
//!
//! Piece `k` of a stream lands at ring offset `(k % window) · chunk`,
//! a plan-time constant — no sequence base is consumed. Two facts make
//! this sound: the credit window keeps at most `window` *consecutive*
//! pieces of a stream outstanding (consecutive indices map to distinct
//! slots), and every master ends its plan waiting for all credits to
//! return ([`Step::CounterWaitGe`] `== window` per destination), so the
//! rings are fully drained between operations and the next plan can
//! restart indexing at zero.
//!
//! ## Deadlock freedom
//!
//! Every rank walks the same global round sequence; each blocking step
//! of round `k` waits only on events of rounds `< k` (credit of piece
//! `k - window`, contribution drain of the previous piece, SMP-pair
//! release two pieces back) or on same-round predecessors that are
//! unconditionally reachable. Induction over the round order gives
//! progress for any `window ≥ 1`.
//!
//! Non-master slots route their outbound data to the master through the
//! per-slot contribution buffers — the same per-side contributor/consumer
//! flag protocol the reduce tree uses (DESIGN.md §9.3). Because the
//! Reduce sequence base also indexes cross-node buffer parities, its
//! advance is the maximum over the *whole group* and applies on every
//! member, even members whose own node staged less; the unused uses
//! cost nothing, since a slot's drain guard looks only at its own last
//! publish. Inbound pieces are distributed through the node's SMP pair,
//! whose node-local base advances by the node's own piece count, so the
//! landing pair stays reserved for broadcast puts.

use crate::inter::{par, poff};
use crate::plan::{
    BufRef, CopyCost, CtrRef, HandleSrc, Off, PairSel, PlanBuilder, SeqBase, Side, Step, Val,
};
use crate::route::{RouteClass, SegmentRoute};
use crate::tuning::SrmTuning;
use crate::world::SrmComm;
use rma::{CounterFamily, LapiCounter};
use shmem::ShmBuffer;
use simnet::{NodeId, SimHandle};

/// The setup-time registry of the pairwise exchange subsystem: every
/// group node's inbound landing rings plus the two per-communicator
/// per-pair counter families. Built once per communicator (by
/// [`SrmWorld::new`](crate::SrmWorld) for the world, by `comm_create`
/// for subgroups) over the group's node count, exactly like
/// registered-memory handles exchanged at initialization.
pub struct PairwiseState {
    window: usize,
    chunk: usize,
    /// `rings[dst][src]`: the ring at group node `dst` receiving the
    /// stream from group node `src` (`window` slots of `chunk` bytes).
    rings: Vec<Vec<ShmBuffer>>,
    /// Data counters: `pair(src, dst)` lives at `dst` and is bumped by
    /// `src`'s puts (consumed one per piece by the destination master).
    data: CounterFamily,
    /// Credit counters: `pair(src, dst)` lives at `src`, starts at the
    /// window size, is spent by `src` per put and restored by `dst`'s
    /// zero-byte put when the ring slot drains.
    free: CounterFamily,
    /// Direct-route completion counters, one per ordered **comm-rank**
    /// pair: `pair(src, dst)` lives at `dst` and is bumped by each of
    /// `src`'s direct puts into `dst`'s user or scratch buffer. The
    /// receiver's consuming waits drain it back to zero every call.
    direct: CounterFamily,
}

impl PairwiseState {
    pub(crate) fn new(handle: &SimHandle, nodes: usize, ranks: usize, tuning: &SrmTuning) -> Self {
        PairwiseState {
            window: tuning.pairwise_window,
            chunk: tuning.pairwise_chunk,
            rings: (0..nodes)
                .map(|_| {
                    // Slots hold at least 8 bytes: reduce-scatter rounds
                    // its piece size up to the element grid even when
                    // `pairwise_chunk` is configured smaller.
                    (0..nodes)
                        .map(|_| {
                            ShmBuffer::new(tuning.pairwise_window * tuning.pairwise_chunk.max(8))
                        })
                        .collect()
                })
                .collect(),
            data: CounterFamily::new(handle, nodes, 0),
            free: CounterFamily::new(handle, nodes, tuning.pairwise_window as u64),
            direct: CounterFamily::new(handle, ranks, 0),
        }
    }

    /// The landing ring at group node `node` for the stream
    /// `src → node`.
    pub fn ring(&self, node: NodeId, src: NodeId) -> &ShmBuffer {
        &self.rings[node][src]
    }

    /// The data counter of the stream `src → dst` (lives at `dst`).
    pub fn data(&self, src: NodeId, dst: NodeId) -> &LapiCounter {
        self.data.pair(src, dst)
    }

    /// The credit counter of the stream `src → dst` (lives at `src`).
    pub fn free(&self, src: NodeId, dst: NodeId) -> &LapiCounter {
        self.free.pair(src, dst)
    }

    /// The direct-route completion counter of the **comm-rank** stream
    /// `src → dst` (lives at `dst`).
    pub fn direct(&self, src: usize, dst: usize) -> &LapiCounter {
        self.direct.pair(src, dst)
    }

    /// Ring slots per stream (the credit window).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Bytes per ring slot.
    pub fn chunk(&self) -> usize {
        self.chunk
    }
}

/// One wire piece of a node-pair stream, in issue order. Every role
/// (source slot, source master, destination master, destination slots)
/// derives the identical piece sequence from the group shape, which is
/// what lets the four plans meet without any per-call metadata
/// exchange.
struct WirePiece {
    /// Group slot on the source node whose user buffer holds the piece.
    src_slot: usize,
    /// Offset of the piece in that slot's user buffer.
    src_off: usize,
    /// Piece length in bytes (at most `pairwise_chunk`).
    len: usize,
    /// Destination-side scatter: `(dst_slot, piece_off, recv_off,
    /// len)` — the sub-range starting `piece_off` into the piece lands
    /// at `recv_off` of `dst_slot`'s user buffer.
    overlaps: Vec<(usize, usize, usize, usize)>,
}

impl SrmComm {
    /// Pieces of the alltoall stream `s → d` (group nodes): each source
    /// slot's send segments for the destination node's members,
    /// chunked. When `d`'s members hold consecutive communicator ranks
    /// the segments are one contiguous `slots·len` block and a chunk
    /// may span several destination-slot segments (the overlap list
    /// splits it); otherwise every `(src_slot, dst_slot)` cell is its
    /// own chunk run.
    fn alltoall_stream(
        &self,
        len: usize,
        chunk: usize,
        rbase: usize,
        s: NodeId,
        d: NodeId,
    ) -> Vec<WirePiece> {
        let sp = self.cslots_on(s);
        let dp = self.cslots_on(d);
        let mut out = Vec::new();
        if self.ccontig(d) {
            let base = self.crank_at(d, 0) * len;
            let block = dp * len;
            let per = SrmTuning::chunk_count(block, chunk);
            for u in 0..sp {
                let cu = self.crank_at(s, u);
                for kc in 0..per {
                    let koff = kc * chunk;
                    let clen = chunk.min(block - koff);
                    let mut overlaps = Vec::new();
                    for t in 0..dp {
                        let lo = koff.max(t * len);
                        let hi = (koff + clen).min((t + 1) * len);
                        if lo < hi {
                            overlaps.push((
                                t,
                                lo - koff,
                                rbase + cu * len + (lo - t * len),
                                hi - lo,
                            ));
                        }
                    }
                    out.push(WirePiece {
                        src_slot: u,
                        src_off: base + koff,
                        len: clen,
                        overlaps,
                    });
                }
            }
        } else {
            let per = SrmTuning::chunk_count(len, chunk);
            for u in 0..sp {
                let cu = self.crank_at(s, u);
                for t in 0..dp {
                    let ct = self.crank_at(d, t);
                    for kc in 0..per {
                        let koff = kc * chunk;
                        let clen = chunk.min(len - koff);
                        out.push(WirePiece {
                            src_slot: u,
                            src_off: ct * len + koff,
                            len: clen,
                            overlaps: vec![(t, 0, rbase + cu * len + koff, clen)],
                        });
                    }
                }
            }
        }
        out
    }

    /// Pieces of the alltoallv stream `s → d` (group nodes): the ragged
    /// `(src_slot, dst_slot)` cells of the communicator-rank count grid
    /// in a fixed nested order, each chunked. Every piece targets
    /// exactly one destination slot.
    fn alltoallv_stream(
        &self,
        seg: usize,
        counts: &[usize],
        chunk: usize,
        rbase: usize,
        s: NodeId,
        d: NodeId,
    ) -> Vec<WirePiece> {
        let n = self.csize();
        let mut out = Vec::new();
        for u in 0..self.cslots_on(s) {
            let cu = self.crank_at(s, u);
            for t in 0..self.cslots_on(d) {
                let ct = self.crank_at(d, t);
                let cnt = counts[cu * n + ct];
                if cnt == 0 {
                    continue;
                }
                for kc in 0..cnt.div_ceil(chunk) {
                    let koff = kc * chunk;
                    let clen = chunk.min(cnt - koff);
                    out.push(WirePiece {
                        src_slot: u,
                        src_off: ct * seg + koff,
                        len: clen,
                        overlaps: vec![(t, 0, rbase + cu * seg + koff, clen)],
                    });
                }
            }
        }
        out
    }

    /// Emit the inter-node part of a pairwise exchange: the credit-
    /// windowed round-robin over every `(src, dst)` group-node stream
    /// produced by `streams`, with non-master outbound data staged
    /// through the contribution buffers and inbound pieces republished
    /// on the SMP pair. Caller handles the intra-node exchange.
    fn plan_pairwise_wire<F>(&self, b: &mut PlanBuilder, streams: F)
    where
        F: Fn(NodeId, NodeId) -> Vec<WirePiece>,
    {
        let nodes = self.cnodes();
        if nodes <= 1 {
            return;
        }
        // Geometry: the contribution-buffer stride and the ring/credit
        // capacity the world was built with.
        let t = self.tuning();
        let w_geom = t.pairwise_window;
        // Decisions: the effective per-shape put size and window. Both
        // ends of every stream compile from the same shape, so they
        // agree on the ring slot grid `(r % w) * chunk`, which always
        // fits the geometry ring (`chunk ≤ geometry chunk`,
        // `w ≤ w_geom`).
        let eff = *b.tuning();
        let chunk = eff.pairwise_chunk;
        let w = eff.pairwise_window;
        let me = self.cnode();
        let my = self.cslot();
        let p = self.cslots_here();
        let local_multi = p > 1;
        let read_streams = p.saturating_sub(1).max(1);

        // Per-slot staging totals of the whole group: the Reduce base
        // indexes cross-node counters, so its advance must be uniform
        // across every communicator member and every rank advances by
        // the group-wide maximum even when its own node staged less.
        let mut staged: Vec<Vec<u64>> = (0..nodes).map(|g| vec![0u64; self.cslots_on(g)]).collect();
        for (s, stage) in staged.iter_mut().enumerate() {
            for d in (0..nodes).filter(|&d| d != s) {
                for piece in streams(s, d) {
                    if piece.src_slot != 0 {
                        stage[piece.src_slot] += 1;
                    }
                }
            }
        }
        let r_adv = staged.iter().flatten().copied().max().unwrap_or(0);

        let rel0 = b.rel(SeqBase::Reduce);
        let srel0 = b.rel(SeqBase::Smp);

        let out: Vec<(NodeId, Vec<WirePiece>)> = (0..nodes)
            .filter(|&d| d != me)
            .map(|d| (d, streams(me, d)))
            .collect();
        let inb: Vec<(NodeId, Vec<WirePiece>)> = (0..nodes)
            .filter(|&s| s != me)
            .map(|s| (s, streams(s, me)))
            .collect();
        let rounds = out
            .iter()
            .map(|(_, v)| v.len())
            .chain(inb.iter().map(|(_, v)| v.len()))
            .max()
            .unwrap_or(0);

        // With a narrowed effective window the sender must not spend
        // all `w_geom` geometry credits at once: a non-consuming
        // threshold wait (credits ≥ w_geom - w + 1, i.e. at most w - 1
        // already outstanding) before each consuming credit wait keeps
        // at most `w` puts in flight, so ring slot `r % w` is always
        // drained before it is reused.
        let credit_guard = |b: &mut PlanBuilder, d: NodeId| {
            if w < w_geom {
                b.push(Step::CounterWaitGe {
                    ctr: CtrRef::PairwiseFree { node: me, dst: d },
                    val: Val::Lit((w_geom - w + 1) as u64),
                });
            }
        };

        // Cursor into each slot's contribution channel (master:
        // consumption order; slot: its own publication order). The
        // orders agree because both sides walk rounds ascending with
        // destinations ascending inside a round.
        let mut crel = vec![0u64; p];
        let mut si = 0u64;

        for r in 0..rounds {
            // Outbound: one piece toward every destination still active.
            for (d, pieces) in &out {
                let Some(piece) = pieces.get(r) else { continue };
                let ring_off = Off::Lit((r % w) * chunk);
                if my == 0 {
                    if piece.src_slot == 0 {
                        credit_guard(b, *d);
                        b.push(Step::CreditWait {
                            ctr: CtrRef::PairwiseFree { node: me, dst: *d },
                            n: 1,
                        });
                        b.push(Step::RmaPut {
                            to: self.cmaster_of(*d),
                            src: BufRef::User,
                            src_off: Off::Lit(piece.src_off),
                            dst: BufRef::PairwiseRing { node: *d, src: me },
                            dst_off: ring_off,
                            len: piece.len,
                            ctr: Some(CtrRef::PairwiseData { node: *d, src: me }),
                        });
                    } else {
                        let u = piece.src_slot;
                        let rel = rel0 + crel[u];
                        crel[u] += 1;
                        self.plan_contrib_wait(b, u, rel, "pairwise piece staged");
                        credit_guard(b, *d);
                        b.push(Step::CreditWait {
                            ctr: CtrRef::PairwiseFree { node: me, dst: *d },
                            n: 1,
                        });
                        b.push(Step::RmaPut {
                            to: self.cmaster_of(*d),
                            src: BufRef::Contrib { slot: u },
                            src_off: poff(SeqBase::Reduce, rel, t.reduce_chunk),
                            dst: BufRef::PairwiseRing { node: *d, src: me },
                            dst_off: ring_off,
                            len: piece.len,
                            ctr: Some(CtrRef::PairwiseData { node: *d, src: me }),
                        });
                        // The put snapshots the source synchronously,
                        // so the contribution side drains immediately.
                        self.plan_contrib_done(b, u, rel);
                    }
                } else if piece.src_slot == my {
                    let rel = rel0 + crel[my];
                    crel[my] += 1;
                    self.plan_contrib_publish(
                        b,
                        rel,
                        BufRef::User,
                        Off::Lit(piece.src_off),
                        piece.len,
                        CopyCost::Write(1),
                    );
                }
            }
            // Inbound: drain one piece from every source still active.
            for (s, pieces) in &inb {
                let Some(piece) = pieces.get(r) else { continue };
                let ring_off = Off::Lit((r % w) * chunk);
                if my == 0 {
                    b.push(Step::CounterWait {
                        ctr: CtrRef::PairwiseData { node: me, src: *s },
                        n: 1,
                    });
                    if local_multi {
                        let side = par(SeqBase::Smp, srel0 + si);
                        b.push(Step::PairWaitFree {
                            pair: PairSel::Smp,
                            side,
                        });
                        b.push(Step::ShmCopy {
                            src: BufRef::PairwiseRing { node: me, src: *s },
                            src_off: ring_off,
                            dst: BufRef::Smp { side },
                            dst_off: Off::Lit(0),
                            len: piece.len,
                            cost: CopyCost::Write(1),
                        });
                        b.push(Step::PairPublish {
                            pair: PairSel::Smp,
                            side,
                        });
                        // The ring slot is copied out: return the
                        // credit before distributing locally.
                        b.push(Step::CounterPut {
                            to: self.cmaster_of(*s),
                            ctr: CtrRef::PairwiseFree { node: *s, dst: me },
                        });
                        self.plan_piece_overlaps(b, side, &piece.overlaps, read_streams);
                    } else {
                        for &(tslot, po, recv_off, olen) in &piece.overlaps {
                            debug_assert_eq!(tslot, 0);
                            b.push(Step::ShmCopy {
                                src: BufRef::PairwiseRing { node: me, src: *s },
                                src_off: Off::Lit((r % w) * chunk + po),
                                dst: BufRef::User,
                                dst_off: Off::Lit(recv_off),
                                len: olen,
                                cost: CopyCost::Read(1),
                            });
                        }
                        b.push(Step::CounterPut {
                            to: self.cmaster_of(*s),
                            ctr: CtrRef::PairwiseFree { node: *s, dst: me },
                        });
                    }
                } else {
                    let side = par(SeqBase::Smp, srel0 + si);
                    b.push(Step::PairWaitPublished {
                        pair: PairSel::Smp,
                        side,
                    });
                    self.plan_piece_overlaps(b, side, &piece.overlaps, read_streams);
                    b.push(Step::PairRelease {
                        pair: PairSel::Smp,
                        side,
                    });
                }
                if local_multi {
                    si += 1;
                }
            }
        }

        // All credits home (the full geometry complement): the rings
        // are drained, so the next operation may reuse literal ring
        // offsets from slot zero — whatever window it compiles with.
        if my == 0 {
            for (d, pieces) in &out {
                if !pieces.is_empty() {
                    b.push(Step::CounterWaitGe {
                        ctr: CtrRef::PairwiseFree { node: me, dst: *d },
                        val: Val::Lit(w_geom as u64),
                    });
                }
            }
        }

        b.advance(SeqBase::Reduce, r_adv);
        b.advance(SeqBase::Smp, si);
    }

    /// Copy my overlaps of a distributed wire piece out of SMP pair
    /// `side` into my user buffer.
    fn plan_piece_overlaps(
        &self,
        b: &mut PlanBuilder,
        side: Side,
        overlaps: &[(usize, usize, usize, usize)],
        read_streams: usize,
    ) {
        for &(tslot, po, recv_off, olen) in overlaps {
            if tslot == self.cslot() {
                b.push(Step::ShmCopy {
                    src: BufRef::Smp { side },
                    src_off: Off::Lit(po),
                    dst: BufRef::User,
                    dst_off: Off::Lit(recv_off),
                    len: olen,
                    cost: CopyCost::Read(read_streams),
                });
            }
        }
    }

    /// Emit the **direct route** of a pairwise exchange
    /// ([`SegmentRoute::Direct`]): a per-call address exchange followed
    /// by one rendezvous put per remote peer straight into its receive
    /// segment, with a per-pair completion counter instead of ring
    /// credits — the same shape as the zero-copy large-message
    /// broadcast, generalized to `n·(n-1)` concurrent rank streams.
    ///
    /// `xfer(s, d)` describes the comm-rank stream `s → d` as
    /// `(offset in s's user buffer, offset in d's user buffer, bytes)`,
    /// or `None` for an empty stream; both endpoints derive it from the
    /// call shape alone. `local` plans the intra-node leg; it runs
    /// between the outbound address sends and the takes/puts so remote
    /// peers can start putting while this node is busy locally.
    ///
    /// Buffer-reuse safety needs no extra drain steps: a put snapshots
    /// its source synchronously at issue (send side), and the
    /// receiver's consuming [`Step::CounterWait`]s — one per inbound
    /// stream — *are* the drain (receive side). They also leave every
    /// per-pair counter back at zero, and a taken address slot is
    /// provably empty again before the next call's send can land in it
    /// (DESIGN.md §16).
    fn plan_pairwise_direct_wire<L, F>(&self, b: &mut PlanBuilder, local: L, xfer: F)
    where
        L: FnOnce(&mut PlanBuilder),
        F: Fn(usize, usize) -> Option<(usize, usize, usize)>,
    {
        let me = self.crank();
        let mynode = self.cnode();
        let remote: Vec<usize> = (0..self.csize())
            .filter(|&c| self.cnode_of(c) != mynode)
            .collect();
        // Ship my user-buffer handle to every remote peer with data
        // for me. Non-blocking, and ahead of every blocking step of
        // this plan — no rank can stall a peer's rendezvous.
        for &s in &remote {
            if xfer(s, me).is_some() {
                b.push(Step::AddrSend {
                    to: self.cworld_of(s),
                    am: self.comm.am_pair_addr,
                    src: HandleSrc::User,
                });
            }
        }
        local(b);
        // One unchunked put per remote destination, ascending comm
        // rank: take the peer's address, land the whole segment in its
        // receive half, bump its completion counter.
        for &d in &remote {
            let Some((src_off, dst_off, len)) = xfer(me, d) else {
                continue;
            };
            let idx = b.take_pair_addr(d);
            b.push(Step::RmaPut {
                to: self.cworld_of(d),
                src: BufRef::User,
                src_off: Off::Lit(src_off),
                dst: BufRef::ChildUser { idx },
                dst_off: Off::Lit(dst_off),
                len,
                ctr: Some(CtrRef::PairwiseDirect { src: me, dst: d }),
            });
        }
        // Drain: consume one completion per inbound stream. When these
        // return, every expected segment has landed and the counters
        // are at zero for the next call.
        for &s in &remote {
            if xfer(s, me).is_some() {
                b.push(Step::CounterWait {
                    ctr: CtrRef::PairwiseDirect { src: s, dst: me },
                    n: 1,
                });
            }
        }
    }

    /// Intra-node leg of the alltoall: every group slot in turn
    /// publishes its send segments for this node's members through the
    /// SMP broadcast pair; the other slots copy out their segments.
    /// Contiguous-rank nodes publish the whole block per chunk; others
    /// publish per `(publisher, reader)` cell.
    fn plan_local_alltoall(&self, b: &mut PlanBuilder, len: usize) {
        let p = self.cslots_here();
        if p <= 1 {
            return;
        }
        let cs = b.tuning().pairwise_chunk.min(self.tuning().smp_buf);
        let me = self.cnode();
        let my = self.cslot();
        let rbase = self.csize() * len;
        let srel0 = b.rel(SeqBase::Smp);
        let streams = (p - 1).max(1);
        if self.ccontig(me) {
            let base = self.crank_at(me, 0) * len;
            let block = p * len;
            let per = SrmTuning::chunk_count(block, cs);
            for u in 0..p {
                let cu = self.crank_at(me, u);
                for kc in 0..per {
                    let srel = srel0 + (u * per + kc) as u64;
                    let side = par(SeqBase::Smp, srel);
                    let koff = kc * cs;
                    let clen = cs.min(block - koff);
                    if my == u {
                        b.push(Step::PairWaitFree {
                            pair: PairSel::Smp,
                            side,
                        });
                        b.push(Step::ShmCopy {
                            src: BufRef::User,
                            src_off: Off::Lit(base + koff),
                            dst: BufRef::Smp { side },
                            dst_off: Off::Lit(0),
                            len: clen,
                            cost: CopyCost::Write(streams),
                        });
                        b.push(Step::PairPublish {
                            pair: PairSel::Smp,
                            side,
                        });
                    } else {
                        b.push(Step::PairWaitPublished {
                            pair: PairSel::Smp,
                            side,
                        });
                        let lo = koff.max(my * len);
                        let hi = (koff + clen).min((my + 1) * len);
                        if lo < hi {
                            b.push(Step::ShmCopy {
                                src: BufRef::Smp { side },
                                src_off: Off::Lit(lo - koff),
                                dst: BufRef::User,
                                dst_off: Off::Lit(rbase + cu * len + (lo - my * len)),
                                len: hi - lo,
                                cost: CopyCost::Read(streams),
                            });
                        }
                        b.push(Step::PairRelease {
                            pair: PairSel::Smp,
                            side,
                        });
                    }
                }
            }
            b.advance(SeqBase::Smp, (p * per) as u64);
        } else {
            let per = SrmTuning::chunk_count(len, cs);
            let mut si = 0u64;
            for u in 0..p {
                let cu = self.crank_at(me, u);
                for tl in 0..p {
                    if tl == u {
                        continue;
                    }
                    let ctl = self.crank_at(me, tl);
                    for kc in 0..per {
                        let koff = kc * cs;
                        let clen = cs.min(len - koff);
                        let side = par(SeqBase::Smp, srel0 + si);
                        si += 1;
                        if my == u {
                            b.push(Step::PairWaitFree {
                                pair: PairSel::Smp,
                                side,
                            });
                            b.push(Step::ShmCopy {
                                src: BufRef::User,
                                src_off: Off::Lit(ctl * len + koff),
                                dst: BufRef::Smp { side },
                                dst_off: Off::Lit(0),
                                len: clen,
                                cost: CopyCost::Write(1),
                            });
                            b.push(Step::PairPublish {
                                pair: PairSel::Smp,
                                side,
                            });
                        } else {
                            b.push(Step::PairWaitPublished {
                                pair: PairSel::Smp,
                                side,
                            });
                            if my == tl {
                                b.push(Step::ShmCopy {
                                    src: BufRef::Smp { side },
                                    src_off: Off::Lit(0),
                                    dst: BufRef::User,
                                    dst_off: Off::Lit(rbase + cu * len + koff),
                                    len: clen,
                                    cost: CopyCost::Read(1),
                                });
                            }
                            b.push(Step::PairRelease {
                                pair: PairSel::Smp,
                                side,
                            });
                        }
                    }
                }
            }
            b.advance(SeqBase::Smp, si);
        }
    }

    /// Intra-node leg of the alltoallv: ragged `(publisher, reader)`
    /// cells through the SMP pair, one piece at a time. Every
    /// non-publishing slot handshakes every piece (the pair protocol
    /// needs all readers to release) but only the addressee copies.
    fn plan_local_alltoallv(&self, b: &mut PlanBuilder, seg: usize, counts: &[usize]) {
        let p = self.cslots_here();
        if p <= 1 {
            return;
        }
        let cs = b.tuning().pairwise_chunk.min(self.tuning().smp_buf);
        let me = self.cnode();
        let my = self.cslot();
        let n = self.csize();
        let rbase = n * seg;
        let srel0 = b.rel(SeqBase::Smp);
        let mut si = 0u64;
        for u in 0..p {
            let cu = self.crank_at(me, u);
            for tl in 0..p {
                if tl == u {
                    continue;
                }
                let ctl = self.crank_at(me, tl);
                let cnt = counts[cu * n + ctl];
                if cnt == 0 {
                    continue;
                }
                for kc in 0..cnt.div_ceil(cs) {
                    let koff = kc * cs;
                    let clen = cs.min(cnt - koff);
                    let side = par(SeqBase::Smp, srel0 + si);
                    si += 1;
                    if my == u {
                        b.push(Step::PairWaitFree {
                            pair: PairSel::Smp,
                            side,
                        });
                        b.push(Step::ShmCopy {
                            src: BufRef::User,
                            src_off: Off::Lit(ctl * seg + koff),
                            dst: BufRef::Smp { side },
                            dst_off: Off::Lit(0),
                            len: clen,
                            cost: CopyCost::Write(1),
                        });
                        b.push(Step::PairPublish {
                            pair: PairSel::Smp,
                            side,
                        });
                    } else {
                        b.push(Step::PairWaitPublished {
                            pair: PairSel::Smp,
                            side,
                        });
                        if my == tl {
                            b.push(Step::ShmCopy {
                                src: BufRef::Smp { side },
                                src_off: Off::Lit(0),
                                dst: BufRef::User,
                                dst_off: Off::Lit(rbase + cu * seg + koff),
                                len: clen,
                                cost: CopyCost::Read(1),
                            });
                        }
                        b.push(Step::PairRelease {
                            pair: PairSel::Smp,
                            side,
                        });
                    }
                }
            }
        }
        b.advance(SeqBase::Smp, si);
    }

    /// Plan an alltoall of `len`-byte segments: the send half of the
    /// user buffer (`csize·len` bytes, segment `j` for communicator
    /// rank `j`) is exchanged into the receive half (the next
    /// `csize·len` bytes, segment `i` from communicator rank `i`).
    pub(crate) fn plan_alltoall(&self, b: &mut PlanBuilder, len: usize) {
        if len == 0 {
            return;
        }
        let n = self.csize();
        let eff = *b.tuning();
        let chunk = eff.pairwise_chunk;
        let rbase = n * len;
        let me = self.crank();
        // Own segment: already local, one private copy.
        b.push(Step::ShmCopy {
            src: BufRef::User,
            src_off: Off::Lit(me * len),
            dst: BufRef::User,
            dst_off: Off::Lit(rbase + me * len),
            len,
            cost: CopyCost::Read(1),
        });
        if self.cmulti()
            && self.segment_route(&eff, RouteClass::Pairwise, len) == SegmentRoute::Direct
        {
            self.plan_pairwise_direct_wire(
                b,
                |b| self.plan_local_alltoall(b, len),
                |s, d| Some((d * len, rbase + s * len, len)),
            );
        } else {
            self.plan_local_alltoall(b, len);
            self.plan_pairwise_wire(b, |s, d| self.alltoall_stream(len, chunk, rbase, s, d));
        }
    }

    /// Plan an alltoallv on the `seg`-strided grid layout: communicator
    /// rank `i` sends `counts[i·n + j]` bytes from send segment `j` to
    /// communicator rank `j`, receiving into receive segment `i` of the
    /// second half.
    pub(crate) fn plan_alltoallv(&self, b: &mut PlanBuilder, seg: usize, counts: &[usize]) {
        let n = self.csize();
        if seg == 0 {
            return;
        }
        let eff = *b.tuning();
        let chunk = eff.pairwise_chunk;
        let rbase = n * seg;
        let me = self.crank();
        let own = counts[me * n + me];
        if own > 0 {
            b.push(Step::ShmCopy {
                src: BufRef::User,
                src_off: Off::Lit(me * seg),
                dst: BufRef::User,
                dst_off: Off::Lit(rbase + me * seg),
                len: own,
                cost: CopyCost::Read(1),
            });
        }
        if self.cmulti()
            && self.segment_route(&eff, RouteClass::Pairwise, seg) == SegmentRoute::Direct
        {
            self.plan_pairwise_direct_wire(
                b,
                |b| self.plan_local_alltoallv(b, seg, counts),
                |s, d| match counts[s * n + d] {
                    0 => None,
                    cnt => Some((d * seg, rbase + s * seg, cnt)),
                },
            );
        } else {
            self.plan_local_alltoallv(b, seg, counts);
            self.plan_pairwise_wire(b, |s, d| {
                self.alltoallv_stream(seg, counts, chunk, rbase, s, d)
            });
        }
    }

    /// Plan a reduce-scatter of `len`-byte result segments: the user
    /// buffer holds `csize` contribution segments; after the call,
    /// segment `me` holds the element-wise reduction of every member's
    /// segment `me`. Each piece round reduces one piece of every peer
    /// node's block up the SMP tree, streams it into the peer's landing
    /// ring, then folds the arrived peer pieces into the own-block
    /// reduction and scatters the finished piece through the SMP pair.
    /// Node blocks decompose exactly like the scatter protocol's
    /// ([`SrmComm::scatter_pieces`]), so non-contiguous and uneven
    /// groups work and both ends of every stream agree on the piece
    /// sequence.
    pub(crate) fn plan_reduce_scatter(&self, b: &mut PlanBuilder, len: usize) {
        let n = self.csize();
        if len == 0 || n == 1 {
            return;
        }
        let nodes = self.cnodes();
        // Unlike the byte-oriented alltoall streams, reduce pieces are
        // combined elementwise, so every piece boundary must fall on an
        // element boundary: round the configured (effective per-shape)
        // chunk down to the 8-byte grid (a multiple of every supported
        // element size).
        let chunk = (b.tuning().pairwise_chunk & !7).max(8);
        let w = b.tuning().pairwise_window;
        let w_geom = self.tuning().pairwise_window;
        let me = self.cnode();
        let my = self.cslot();
        let p = self.cslots_here();
        let multi = self.cmulti();
        let read_streams = p.saturating_sub(1).max(1);
        let rel0 = b.rel(SeqBase::Reduce);
        let srel0 = b.rel(SeqBase::Smp);
        let mut rel = rel0;

        let pieces: Vec<Vec<(usize, usize, usize)>> = (0..nodes)
            .map(|d| self.scatter_pieces(d, len, chunk))
            .collect();
        let rounds = pieces.iter().map(|v| v.len()).max().unwrap_or(0);

        // Direct route: pieces rendezvous in a per-call scratch region
        // at the destination master instead of staging through the
        // landing rings — the SMP pre-reduction and SMP-pair
        // distribution are unchanged, only the wire differs. The
        // scratch holds one logical block per peer; `region(d, s)` is
        // source `s`'s index among `d`'s peers, ascending.
        let direct = multi
            && self.segment_route(b.tuning(), RouteClass::Pairwise, len) == SegmentRoute::Direct;
        let block_of = |g: usize| self.cslots_on(g) * len;
        let region = |d: usize, s: usize| if s < d { s } else { s - 1 };
        let mut scratch_idx: Vec<Option<usize>> = vec![None; nodes];
        if direct && my == 0 {
            b.push(Step::ScratchAlloc {
                len: (nodes - 1) * block_of(me),
            });
            // Sends strictly before takes: no master can stall a
            // peer's rendezvous setup.
            for s in (0..nodes).filter(|&s| s != me) {
                b.push(Step::AddrSend {
                    to: self.cmaster_of(s),
                    am: self.comm.am_pair_addr,
                    src: HandleSrc::Scratch,
                });
            }
            for d in (0..nodes).filter(|&d| d != me) {
                scratch_idx[d] = Some(b.take_pair_addr(self.crank_at(d, 0)));
            }
        }

        for k in 0..rounds {
            let ring_off = Off::Lit((k % w) * chunk);
            // Peer-node blocks: reduce this piece to the master and
            // stream it out, round-robin over destinations.
            if multi {
                for d in (0..nodes).filter(|&d| d != me) {
                    let Some(&(boff, blk, plen)) = pieces[d].get(k) else {
                        continue;
                    };
                    let is_root = self.plan_smp_reduce_chunk(b, boff, plen, rel, 0);
                    rel += 1;
                    if is_root {
                        if !direct {
                            // Same narrowed-window guard as the wire:
                            // cap outstanding puts at the effective
                            // window even though the geometry credit
                            // pool is larger.
                            if w < w_geom {
                                b.push(Step::CounterWaitGe {
                                    ctr: CtrRef::PairwiseFree { node: me, dst: d },
                                    val: Val::Lit((w_geom - w + 1) as u64),
                                });
                            }
                            b.push(Step::CreditWait {
                                ctr: CtrRef::PairwiseFree { node: me, dst: d },
                                n: 1,
                            });
                        }
                        // Stage the accumulator in the master's own
                        // (otherwise idle) contribution buffer so the
                        // put has an addressable source; the put
                        // snapshots it synchronously.
                        b.push(Step::ShmCopy {
                            src: BufRef::Acc,
                            src_off: Off::Lit(0),
                            dst: BufRef::Contrib { slot: 0 },
                            dst_off: Off::Lit(0),
                            len: plen,
                            cost: CopyCost::Free,
                        });
                        if direct {
                            // Land the piece straight in the peer
                            // master's scratch region — no credits, no
                            // window, one counter bump at the target.
                            b.push(Step::RmaPut {
                                to: self.cmaster_of(d),
                                src: BufRef::Contrib { slot: 0 },
                                src_off: Off::Lit(0),
                                dst: BufRef::ChildUser {
                                    idx: scratch_idx[d].expect("scratch handle taken"),
                                },
                                dst_off: Off::Lit(region(d, me) * block_of(d) + blk),
                                len: plen,
                                ctr: Some(CtrRef::PairwiseDirect {
                                    src: self.crank(),
                                    dst: self.crank_at(d, 0),
                                }),
                            });
                        } else {
                            b.push(Step::RmaPut {
                                to: self.cmaster_of(d),
                                src: BufRef::Contrib { slot: 0 },
                                src_off: Off::Lit(0),
                                dst: BufRef::PairwiseRing { node: d, src: me },
                                dst_off: ring_off,
                                len: plen,
                                ctr: Some(CtrRef::PairwiseData { node: d, src: me }),
                            });
                        }
                    }
                }
            }
            // Own block: reduce the node's contributions, fold in the
            // peers' arrived pieces, distribute the finished piece.
            let Some(&(boff, blk, plen)) = pieces[me].get(k) else {
                continue;
            };
            let is_root = self.plan_smp_reduce_chunk(b, boff, plen, rel, 0);
            rel += 1;
            if is_root {
                if multi {
                    for s in (0..nodes).filter(|&s| s != me) {
                        if direct {
                            // Per-pair in-order delivery: the k-th
                            // completion from `s` implies pieces
                            // `0..=k` have landed, so piece `k`'s
                            // scratch range is readable. These
                            // consuming waits are also the drain — no
                            // credit returns, no end-of-plan flush.
                            b.push(Step::CounterWait {
                                ctr: CtrRef::PairwiseDirect {
                                    src: self.crank_at(s, 0),
                                    dst: self.crank(),
                                },
                                n: 1,
                            });
                            b.push(Step::LocalReduce {
                                src: BufRef::Scratch,
                                src_off: Off::Lit(region(me, s) * block_of(me) + blk),
                                len: plen,
                            });
                        } else {
                            b.push(Step::CounterWait {
                                ctr: CtrRef::PairwiseData { node: me, src: s },
                                n: 1,
                            });
                            b.push(Step::LocalReduce {
                                src: BufRef::PairwiseRing { node: me, src: s },
                                src_off: ring_off,
                                len: plen,
                            });
                            b.push(Step::CounterPut {
                                to: self.cmaster_of(s),
                                ctr: CtrRef::PairwiseFree { node: s, dst: me },
                            });
                        }
                    }
                }
                // The subtree root is group slot 0, whose result
                // segment occupies `[0, len)` of the logical block.
                let lo = blk;
                let hi = (blk + plen).min(len);
                if p > 1 {
                    let side = par(SeqBase::Smp, srel0 + k as u64);
                    b.push(Step::PairWaitFree {
                        pair: PairSel::Smp,
                        side,
                    });
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::Smp { side },
                        dst_off: Off::Lit(0),
                        len: plen,
                        cost: CopyCost::Write(1),
                    });
                    b.push(Step::PairPublish {
                        pair: PairSel::Smp,
                        side,
                    });
                    if lo < hi {
                        b.push(Step::ShmCopy {
                            src: BufRef::Smp { side },
                            src_off: Off::Lit(lo - blk),
                            dst: BufRef::User,
                            dst_off: Off::Lit(self.crank() * len + lo),
                            len: hi - lo,
                            cost: CopyCost::Read(read_streams),
                        });
                    }
                } else {
                    // Single-member node: the accumulator is the result.
                    b.push(Step::ShmCopy {
                        src: BufRef::Acc,
                        src_off: Off::Lit(0),
                        dst: BufRef::User,
                        dst_off: Off::Lit(self.crank() * len + blk),
                        len: plen,
                        cost: CopyCost::Free,
                    });
                }
            } else {
                // Non-root slot: read my result overlap off the pair.
                let side = par(SeqBase::Smp, srel0 + k as u64);
                b.push(Step::PairWaitPublished {
                    pair: PairSel::Smp,
                    side,
                });
                let lo = blk.max(my * len);
                let hi = (blk + plen).min((my + 1) * len);
                if lo < hi {
                    b.push(Step::ShmCopy {
                        src: BufRef::Smp { side },
                        src_off: Off::Lit(lo - blk),
                        dst: BufRef::User,
                        dst_off: Off::Lit(self.crank() * len + (lo - my * len)),
                        len: hi - lo,
                        cost: CopyCost::Read(read_streams),
                    });
                }
                b.push(Step::PairRelease {
                    pair: PairSel::Smp,
                    side,
                });
            }
        }

        if multi && my == 0 && !direct {
            for d in (0..nodes).filter(|&d| d != me) {
                if !pieces[d].is_empty() {
                    b.push(Step::CounterWaitGe {
                        ctr: CtrRef::PairwiseFree { node: me, dst: d },
                        val: Val::Lit(w_geom as u64),
                    });
                }
            }
        }
        // `rel - rel0` is `Σ_d pieces[d].len()` on every member (each
        // walks all destinations plus its own block), so the Reduce
        // advance is uniform by construction.
        b.advance(SeqBase::Reduce, rel - rel0);
        if p > 1 {
            b.advance(SeqBase::Smp, pieces[me].len() as u64);
        }
    }
}
