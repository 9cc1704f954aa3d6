//! Intra-node collective building blocks (paper §2.2), as **planners**:
//! each routine emits its step sequence into a [`PlanBuilder`] instead
//! of executing directly; the [engine](crate::engine) replays the
//! schedule.
//!
//! * **Broadcast** — the flat two-buffer algorithm of Figure 3 that
//!   beat the tree-based variants: the writer alternates between two
//!   shared buffers guarded by per-reader READY flags; all readers copy
//!   concurrently (paying bus contention), which still wins because the
//!   tree's extra store-and-forward hops cost more.
//! * **Reduce** — the binomial-tree algorithm of Figure 2: only the
//!   lowest tree level copies into shared memory; every interior level
//!   is pure operator execution reading the children's shared buffers,
//!   and the subtree root deposits its result directly at the
//!   destination.
//! * **Barrier** — the flat flag algorithm: one cache-line flag per
//!   process, master collects and resets.
//!
//! The broadcast is exposed as *cell* operations: the message is cut on
//! a global grid of `smp_buf`-sized cells, and each cell moves through
//! one side of the two-buffer pair (side = cumulative cell sequence mod
//! 2 — "consecutive broadcast operations alternate between the
//! buffers"). The inter-node planners interleave cell writes with
//! network steps to build their pipelines.

use crate::inter::{par, poff, seq};
use crate::plan::{
    BufRef, CopyCost, FlagRef, Off, PairSel, PlanBuilder, PlanShape, SeqBase, Side, Step, Val,
};
use crate::world::SrmComm;
use shmem::ShmBuffer;
use simnet::{Ctx, Rank};

impl SrmComm {
    /// Writer side of one broadcast cell: claim the parity buffer,
    /// fill it from `user[off..off+clen]`, raise every other task's
    /// READY flag.
    pub(crate) fn plan_smp_cell_write(
        &self,
        b: &mut PlanBuilder,
        off: usize,
        clen: usize,
        rel: u64,
    ) {
        let side = Side::Parity {
            base: SeqBase::Smp,
            rel,
        };
        b.push(Step::PairWaitFree {
            pair: PairSel::Smp,
            side,
        });
        b.push(Step::ShmCopy {
            src: BufRef::User,
            src_off: Off::Lit(off),
            dst: BufRef::Smp { side },
            dst_off: Off::Lit(0),
            len: clen,
            cost: CopyCost::Write(1),
        });
        b.push(Step::PairPublish {
            pair: PairSel::Smp,
            side,
        });
    }

    /// Reader side of one broadcast cell: wait for the READY flag, copy
    /// the cell out (all `p-1` readers drain concurrently and share the
    /// bus), clear the flag.
    pub(crate) fn plan_smp_cell_read(
        &self,
        b: &mut PlanBuilder,
        off: usize,
        clen: usize,
        rel: u64,
    ) {
        let p = self.cslots_here();
        let side = Side::Parity {
            base: SeqBase::Smp,
            rel,
        };
        b.push(Step::PairWaitPublished {
            pair: PairSel::Smp,
            side,
        });
        b.push(Step::Trace("smp:read"));
        b.push(Step::ShmCopy {
            src: BufRef::Smp { side },
            src_off: Off::Lit(0),
            dst: BufRef::User,
            dst_off: Off::Lit(off),
            len: clen,
            cost: CopyCost::Read(p.saturating_sub(1).max(1)),
        });
        b.push(Step::PairRelease {
            pair: PairSel::Smp,
            side,
        });
    }

    /// The global cell grid of a `len`-byte payload: `(offset, length)`
    /// of cell `j`.
    pub(crate) fn smp_cell(&self, len: usize, j: usize) -> (usize, usize) {
        let cell = self.tuning().smp_buf;
        let off = j * cell;
        (off, cell.min(len - off))
    }

    /// Number of cells in a `len`-byte payload.
    pub(crate) fn smp_cells(&self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            len.div_ceil(self.tuning().smp_buf)
        }
    }

    /// Plan the flat double-buffer broadcast within the node: the
    /// writer's `user[..len]` reaches every node task's `user[..len]`.
    pub(crate) fn plan_smp_bcast(&self, b: &mut PlanBuilder, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        if self.cslots_here() == 1 || len == 0 {
            return;
        }
        let cells = self.smp_cells(len);
        let rel0 = b.rel(SeqBase::Smp);
        let am_writer = self.me == writer;
        for j in 0..cells {
            let (off, clen) = self.smp_cell(len, j);
            let rel = rel0 + j as u64;
            if am_writer {
                self.plan_smp_cell_write(b, off, clen, rel);
            } else {
                self.plan_smp_cell_read(b, off, clen, rel);
            }
        }
        b.advance(SeqBase::Smp, cells as u64);
    }

    /// Flat double-buffer broadcast within the node: `writer`'s
    /// `buf[..len]` reaches every node task's `buf[..len]`.
    pub fn smp_bcast(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        self.run_planned(
            ctx,
            self.key(PlanShape::SmpBcast { len, writer }),
            buf,
            None,
        );
    }

    /// First half of the flat barrier: non-masters check in; the master
    /// observes every check-in.
    pub(crate) fn plan_smp_barrier_enter(&self, b: &mut PlanBuilder) {
        let p = self.cslots_here();
        if p == 1 {
            return;
        }
        if self.c_is_master() {
            for s in 1..p {
                b.push(Step::FlagWaitEq {
                    flag: FlagRef::Barrier { slot: s },
                    val: Val::Lit(1),
                    label: "smp barrier check-in",
                });
            }
        } else {
            b.push(Step::FlagRaise {
                flag: FlagRef::Barrier { slot: self.cslot() },
                val: Val::Lit(1),
            });
        }
    }

    /// Second half: the master resets every flag, releasing the
    /// non-masters, which spin on their own flag.
    pub(crate) fn plan_smp_barrier_release(&self, b: &mut PlanBuilder) {
        let p = self.cslots_here();
        if p == 1 {
            return;
        }
        if self.c_is_master() {
            for s in 1..p {
                b.push(Step::FlagRaise {
                    flag: FlagRef::Barrier { slot: s },
                    val: Val::Lit(0),
                });
            }
        } else {
            b.push(Step::FlagWaitEq {
                flag: FlagRef::Barrier { slot: self.cslot() },
                val: Val::Lit(0),
                label: "smp barrier release",
            });
        }
    }

    /// Plan the **tree-based** intra-node broadcast the paper
    /// implemented, measured, and rejected in favour of the flat
    /// two-buffer algorithm (§2.2: "Despite the contention in
    /// simultaneous read access to the shared memory buffer, this
    /// \[flat\] algorithm has achieved a much better performance than
    /// the tree-based algorithms"). Kept for the ablation study: data
    /// store-and-forwards down a binomial tree of per-slot shared
    /// buffers, so every level adds a full copy to the critical path.
    pub(crate) fn plan_smp_bcast_tree(&self, b: &mut PlanBuilder, len: usize, writer: Rank) {
        let p = self.cslots_here();
        if p == 1 || len == 0 {
            return;
        }
        let kind = self.tree();
        let chunk_cap = self.tuning().reduce_chunk;
        let chunks = crate::tuning::SrmTuning::chunk_count(len, chunk_cap);
        let rel0 = b.rel(SeqBase::Tree);
        let wslot = self.cgslot_of(writer);
        let my = self.cslot();
        let vs = (my + p - wslot) % p;
        let parent = crate::embed::parent(kind, vs, p).map(|v| (v + wslot) % p);
        let kids: Vec<usize> = crate::embed::children(kind, vs, p)
            .into_iter()
            .map(|v| (v + wslot) % p)
            .collect();

        for k in 0..chunks {
            let off = k * chunk_cap;
            let clen = chunk_cap.min(len - off);
            let rel = rel0 + k as u64;
            let side_off = Off::Parity {
                base: SeqBase::Tree,
                rel,
                stride: chunk_cap,
            };
            if let Some(pslot) = parent {
                // Copy the chunk out of the parent's shared buffer into
                // the user buffer (one copy per tree level).
                b.push(Step::FlagWaitGe {
                    flag: FlagRef::TreeReady { slot: pslot },
                    val: Val::Seq {
                        base: SeqBase::Tree,
                        rel: rel + 1,
                    },
                    label: "tree parent chunk",
                });
                b.push(Step::ShmCopy {
                    src: BufRef::Contrib { slot: pslot },
                    src_off: side_off,
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(2),
                });
                b.push(Step::FlagAdd {
                    flag: FlagRef::TreeDone { slot: pslot },
                    n: 1,
                });
            }
            if !kids.is_empty() {
                // Stage the chunk for the children (store-and-forward);
                // wait until every child drained the side being reused.
                b.push(Step::DrainWait {
                    flag: FlagRef::TreeDone { slot: my },
                    base: SeqBase::Tree,
                    rel,
                    scale: kids.len() as u64,
                    label: "tree buffer drained",
                });
                b.push(Step::ShmCopy {
                    src: BufRef::User,
                    src_off: Off::Lit(off),
                    dst: BufRef::Contrib { slot: my },
                    dst_off: side_off,
                    len: clen,
                    cost: CopyCost::Write(1),
                });
                b.push(Step::FlagRaise {
                    flag: FlagRef::TreeReady { slot: my },
                    val: Val::Seq {
                        base: SeqBase::Tree,
                        rel: rel + 1,
                    },
                });
            }
        }
        b.advance(SeqBase::Tree, chunks as u64);
    }

    /// Tree-based intra-node broadcast (ablation variant; see
    /// `plan_smp_bcast_tree`).
    pub fn smp_bcast_tree(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        self.run_planned(
            ctx,
            self.key(PlanShape::SmpBcastTree { len, writer }),
            buf,
            None,
        );
    }

    /// Plan the **barrier-synchronized** intra-node broadcast in the
    /// style of Sistare et al. \[11\], which the paper contrasts with
    /// SRM in §4: access to the shared buffer is arbitrated with full
    /// node barriers instead of per-pair flags, making the algorithm
    /// stiffer against late arrivals and adding two barriers per
    /// buffer-full of data. Kept for the ablation study.
    pub(crate) fn plan_smp_bcast_sistare(&self, b: &mut PlanBuilder, len: usize, writer: Rank) {
        let p = self.cslots_here();
        if p == 1 || len == 0 {
            return;
        }
        let chunk = self.tuning().smp_buf;
        let chunks = crate::tuning::SrmTuning::chunk_count(len, chunk);
        let am_writer = self.me == writer;
        for k in 0..chunks {
            let off = k * chunk;
            let clen = chunk.min(len - off);
            // Barrier #1: everyone (including the writer) agrees the
            // single buffer is free.
            self.plan_smp_barrier_enter(b);
            self.plan_smp_barrier_release(b);
            if am_writer {
                b.push(Step::ShmCopy {
                    src: BufRef::User,
                    src_off: Off::Lit(off),
                    dst: BufRef::Smp { side: Side::Lit(0) },
                    dst_off: Off::Lit(0),
                    len: clen,
                    cost: CopyCost::Write(1),
                });
            }
            // Barrier #2: the data is published.
            self.plan_smp_barrier_enter(b);
            self.plan_smp_barrier_release(b);
            if !am_writer {
                b.push(Step::ShmCopy {
                    src: BufRef::Smp { side: Side::Lit(0) },
                    src_off: Off::Lit(0),
                    dst: BufRef::User,
                    dst_off: Off::Lit(off),
                    len: clen,
                    cost: CopyCost::Read(p - 1),
                });
            }
        }
    }

    /// Barrier-synchronized intra-node broadcast (ablation variant; see
    /// `plan_smp_bcast_sistare`).
    pub fn smp_bcast_sistare(&self, ctx: &Ctx, buf: &ShmBuffer, len: usize, writer: Rank) {
        debug_assert!(self.topology().same_node(self.me, writer));
        self.run_planned(
            ctx,
            self.key(PlanShape::SmpBcastSistare { len, writer }),
            buf,
            None,
        );
    }

    /// Plan one chunk of the intra-node reduce tree (Figure 2) for
    /// every task on the node. `rel` is the plan-relative chunk index
    /// against [`SeqBase::Reduce`] (drives buffer parity and the
    /// cumulative flags); `dst_slot` is the slot the subtree is rooted
    /// at. Returns `true` at the subtree root, where the accumulator
    /// holds the combined chunk after the emitted steps run.
    pub(crate) fn plan_smp_reduce_chunk(
        &self,
        b: &mut PlanBuilder,
        off: usize,
        clen: usize,
        rel: u64,
        dst_slot: usize,
    ) -> bool {
        let p = self.cslots_here();
        let kind = self.tree();
        let chunk_cap = self.tuning().reduce_chunk;
        debug_assert!(clen <= chunk_cap);
        let side_off = poff(SeqBase::Reduce, rel, chunk_cap);
        let vs = (self.cslot() + p - dst_slot) % p;
        let kids = crate::embed::children_ascending(kind, vs, p);
        let unv = |v: usize| (v + dst_slot) % p;

        b.push(Step::LoadAcc { off, len: clen });

        if vs != 0 && kids.is_empty() {
            // Lowest level: the one real memory copy of the algorithm.
            // Roughly half the node's tasks copy concurrently.
            self.plan_contrib_publish(
                b,
                rel,
                BufRef::Acc,
                Off::Lit(0),
                clen,
                CopyCost::Write((p / 2).max(1)),
            );
            return false;
        }

        // Interior (or root): fold each child's shared buffer into the
        // running chunk — operator execution only, no data movement.
        for kv in kids {
            let cslot = unv(kv);
            self.plan_contrib_wait(b, cslot, rel, "child contribution ready");
            b.push(Step::LocalReduce {
                src: BufRef::Contrib { slot: cslot },
                src_off: side_off,
                len: clen,
            });
            self.plan_contrib_done(b, cslot, rel);
        }

        if vs != 0 {
            self.plan_contrib_publish(b, rel, BufRef::Acc, Off::Lit(0), clen, CopyCost::Free);
        }
        // At the subtree root the accumulator holds the result; the
        // caller routes it onward (the last operator pass's output
        // stream — no extra copy).
        vs == 0
    }

    /// Producer half of contribution use `rel` (against
    /// [`SeqBase::Reduce`]) on my own slot's channel: wait until my last
    /// use of the side is drained, fill the side from `src`, publish.
    pub(crate) fn plan_contrib_publish(
        &self,
        b: &mut PlanBuilder,
        rel: u64,
        src: BufRef,
        src_off: Off,
        len: usize,
        cost: CopyCost,
    ) {
        let my = self.cslot();
        let side = par(SeqBase::Reduce, rel);
        if !crate::plan::skip_contrib_drain() {
            b.push(Step::ContribDrained { side });
        }
        b.push(Step::ShmCopy {
            src,
            src_off,
            dst: BufRef::Contrib { slot: my },
            dst_off: poff(SeqBase::Reduce, rel, self.tuning().reduce_chunk),
            len,
            cost,
        });
        b.push(Step::FlagRaise {
            flag: FlagRef::ContribReady { slot: my, side },
            val: seq(SeqBase::Reduce, rel + 1),
        });
    }

    /// Consumer: wait until `slot` has published contribution use `rel`.
    pub(crate) fn plan_contrib_wait(
        &self,
        b: &mut PlanBuilder,
        slot: usize,
        rel: u64,
        label: &'static str,
    ) {
        b.push(Step::FlagWaitGe {
            flag: FlagRef::ContribReady {
                slot,
                side: par(SeqBase::Reduce, rel),
            },
            val: seq(SeqBase::Reduce, rel + 1),
            label,
        });
    }

    /// Consumer: mark `slot`'s contribution use `rel` drained.
    pub(crate) fn plan_contrib_done(&self, b: &mut PlanBuilder, slot: usize, rel: u64) {
        b.push(Step::FlagRaise {
            flag: FlagRef::ContribDone {
                slot,
                side: par(SeqBase::Reduce, rel),
            },
            val: seq(SeqBase::Reduce, rel + 1),
        });
    }
}
