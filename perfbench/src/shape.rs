//! Run one shape under one implementation: build the simulation, drive
//! every rank through a closed loop (warm-up call, barrier, timed
//! calls), check every call's output, and collect per-call samples on
//! both clocks plus the counters over the timed region.

use crate::clock::{host_ns, Host, Stamp};
use crate::payload::{self as pl, key};
use crate::spans::{Span, Spans};
use crate::workload::{Op, Shape};
use collops::{DType, NonblockingCollectives, ReduceOp};
use mpi_coll::MpiColl;
use msg::{MsgWorld, Vendor};
use shmem::ShmBuffer;
use simnet::{Ctx, MachineConfig, MetricsSnapshot, Sim, SimTime, Topology, Trace};
use srm::{SrmTuning, SrmWorld};
use std::sync::{Arc, Mutex};

/// The two implementations every shape is run under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Imp {
    /// The paper's SRM collectives.
    Srm,
    /// The IBM-MPI-like baseline over `msg` point-to-point.
    Mpi,
}

impl Imp {
    /// Short name for reports.
    pub fn tag(self) -> &'static str {
        match self {
            Imp::Srm => "srm",
            Imp::Mpi => "mpi",
        }
    }
}

/// Compute slices (each followed by `test` polls) in one overlap
/// iteration, and the virtual length of one slice.
const NB_SLICES: usize = 8;
const NB_SLICE: SimTime = SimTime::from_us(10);

/// Seeded inputs of one collective in a shape.
pub struct Part {
    op: Op,
    len: usize,
    root: usize,
    /// Per-rank base block (`len` bytes; a rank's segment or block `j`
    /// is its base shifted by `j`).
    base: Vec<Vec<u8>>,
    /// Reference sum of the bases (reductions only).
    sum: Vec<u8>,
    /// Alltoallv count matrix, row-major by sender.
    counts: Vec<usize>,
}

/// Seeded inputs of a whole shape, shared by both implementations.
pub struct Inputs {
    parts: Vec<Part>,
    nprocs: usize,
}

impl Inputs {
    /// Draw the inputs of `shape` (the `idx`-th shape of its workload)
    /// from `seed`.
    pub fn new(shape: &Shape, idx: usize, seed: u64) -> Inputs {
        let n = shape.nprocs();
        let parts = match shape.op {
            Op::NbIter => vec![
                (Op::Bcast, 64 << 10),
                (Op::Allreduce, 4 << 10),
                (Op::Allreduce, 4 << 10),
            ],
            op => vec![(op, shape.len)],
        };
        let parts = parts
            .into_iter()
            .enumerate()
            .map(|(pi, (op, len))| {
                let k = |r: u64| key(seed, &[idx as u64, pi as u64, r]);
                let reduces = matches!(op, Op::Reduce | Op::Allreduce | Op::ReduceScatter);
                let base: Vec<Vec<u8>> = (0..n as u64)
                    .map(|r| {
                        if reduces {
                            pl::f64s(k(r), len)
                        } else {
                            pl::bytes(k(r), len)
                        }
                    })
                    .collect();
                let sum = if reduces {
                    pl::reference_sum(&base)
                } else {
                    Vec::new()
                };
                let mut s = k(u64::MAX);
                let root = (pl::splitmix(&mut s) % n as u64) as usize;
                let counts = if op == Op::Alltoallv {
                    (0..n * n)
                        .map(|_| (pl::splitmix(&mut s) % (len as u64 + 1)) as usize)
                        .collect()
                } else {
                    Vec::new()
                };
                Part {
                    op,
                    len,
                    root,
                    base,
                    sum,
                    counts,
                }
            })
            .collect();
        Inputs { parts, nprocs: n }
    }
}

impl Part {
    fn buf_len(&self, n: usize) -> usize {
        match self.op {
            Op::Alltoall | Op::Alltoallv => 2 * n * self.len,
            Op::ReduceScatter => n * self.len,
            _ => self.len.max(8),
        }
    }

    /// Write rank `me`'s input of call `c` into `buf`.
    fn prepare(&self, buf: &ShmBuffer, me: usize, n: usize, c: u64) {
        let (len, base) = (self.len, &self.base[me]);
        buf.with_mut(|d| match self.op {
            Op::Bcast if me == self.root => pl::shift_bytes(&mut d[..len], base, c),
            Op::Reduce | Op::Allreduce => pl::shift_f64(&mut d[..len], base, c as f64),
            Op::Alltoall | Op::Alltoallv => {
                for j in 0..n {
                    pl::shift_bytes(&mut d[j * len..(j + 1) * len], base, j as u64 + c);
                }
            }
            Op::ReduceScatter => {
                for j in 0..n {
                    pl::shift_f64(&mut d[j * len..(j + 1) * len], base, (j as u64 + c) as f64);
                }
            }
            _ => {}
        })
    }

    /// Start (or, when `nb` is false, run) the collective.
    fn invoke<C: NonblockingCollectives>(
        &self,
        ctx: &Ctx,
        coll: &C,
        buf: &ShmBuffer,
        nb: bool,
    ) -> Option<collops::CollRequest> {
        let (len, f, s) = (self.len, DType::F64, ReduceOp::Sum);
        match (self.op, nb) {
            (Op::Bcast, false) => coll.broadcast(ctx, buf, len, self.root),
            (Op::Bcast, true) => return Some(coll.ibroadcast(ctx, buf, len, self.root)),
            (Op::Reduce, _) => coll.reduce(ctx, buf, len, f, s, self.root),
            (Op::Allreduce, false) => coll.allreduce(ctx, buf, len, f, s),
            (Op::Allreduce, true) => return Some(coll.iallreduce(ctx, buf, len, f, s)),
            (Op::Barrier, _) => coll.barrier(ctx),
            (Op::Alltoall, _) => coll.alltoall(ctx, buf, len),
            (Op::Alltoallv, _) => coll.alltoallv(ctx, buf, len, &self.counts),
            (Op::ReduceScatter, _) => coll.reduce_scatter(ctx, buf, len, f, s),
            (Op::NbIter, _) => unreachable!("an overlap iteration is a sequence of parts"),
        }
        None
    }

    /// Is rank `me`'s output of call `c` the sequential reference?
    /// (A barrier is checked on the virtual clock, after the run.)
    fn check(&self, buf: &ShmBuffer, me: usize, n: usize, c: u64) -> bool {
        let len = self.len;
        let shift = (n as u64 * c) as f64;
        buf.with(|d| match self.op {
            Op::Bcast => pl::eq_shifted_bytes(&d[..len], &self.base[self.root], c),
            Op::Reduce if me != self.root => true,
            Op::Reduce | Op::Allreduce => pl::eq_shifted_f64(&d[..len], &self.sum, shift),
            Op::Alltoall | Op::Alltoallv => (0..n).all(|s| {
                let cnt = if self.op == Op::Alltoall {
                    len
                } else {
                    self.counts[s * n + me]
                };
                let at = (n + s) * len;
                pl::eq_shifted_bytes(&d[at..at + cnt], &self.base[s][..cnt], me as u64 + c)
            }),
            Op::ReduceScatter => {
                let shift = (n as u64 * (me as u64 + c)) as f64;
                pl::eq_shifted_f64(&d[me * len..(me + 1) * len], &self.sum, shift)
            }
            Op::Barrier | Op::NbIter => true,
        })
    }
}

/// One rank's record of one call.
#[derive(Clone, Copy, Debug)]
pub struct CallRec {
    /// Rank.
    pub rank: usize,
    /// Call number: 0 is the warm-up, timed calls are `1..=iters`.
    pub call: u64,
    /// Host wall clock at entry and exit ([`host_ns`]).
    pub host: (u64, u64),
    /// Virtual clock at entry and exit.
    pub virt: (SimTime, SimTime),
    /// Output matched the reference.
    pub ok: bool,
}

/// One call across ranks on the host clocks: the first rank's entry and
/// the last rank's exit.
#[derive(Clone, Copy, Default)]
struct Window {
    entered: usize,
    left: usize,
    first_in: Stamp,
    last_out: Stamp,
}

#[derive(Default)]
struct Rec {
    calls: Vec<CallRec>,
    windows: Vec<Window>,
    /// Counters at the first entry into call 1 and the last exit from
    /// the last call.
    start: Option<MetricsSnapshot>,
    end: Option<MetricsSnapshot>,
    outstanding: u64,
}

/// The per-call summary across ranks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CallSummary {
    /// Last rank's start to last rank's finish (virtual).
    pub virt: SimTime,
    /// Max minus min rank finish (virtual).
    pub skew: SimTime,
    /// First rank's entry to last rank's exit, in host wall ms.
    pub wall_ms: f64,
    /// The same window in process CPU ms.
    pub cpu_ms: f64,
}

/// Everything measured about one shape under one implementation.
pub struct ShapeRun {
    /// World construction (`SrmWorld::new` / `MsgWorld::new`), wall s.
    pub world_new_s: f64,
    /// `Sim::new`, world construction, `spawn`, and up to the last
    /// rank's return from the warm-up call.
    pub setup: Host,
    /// The whole `Sim::run`.
    pub sim_run: Host,
    /// `Sim::new` to the end of `Sim::run`.
    pub total: Host,
    /// First rank entering the first timed call to the last rank
    /// leaving the last one.
    pub timed: Host,
    /// The warm-up call (it compiles SRM's plan).
    pub warm: Option<CallSummary>,
    /// Timed calls, in order.
    pub calls: Vec<CallSummary>,
    /// Counters over the timed region.
    pub region: MetricsSnapshot,
    /// Counters over the whole run.
    pub counters: MetricsSnapshot,
    /// Calls attempted (warm-up included) and calls with a wrong result
    /// on any rank, a deadlock or a panic.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Rank-iterations whose blocking allreduce was issued while the
    /// `ibroadcast` was still outstanding (overlap iterations only).
    pub outstanding: u64,
    /// `route:staged`, `route:direct` and `tuned:*` trace labels
    /// (traced runs only).
    pub labels: [u64; 3],
}

enum World {
    Srm(SrmWorld),
    Mpi(MsgWorld),
}

/// Run `shape` under `imp` with `inputs`. With `spans`, record the
/// benchmark-side spans of the run under `parent` and attach a trace to
/// count the program's own labels.
pub fn run(
    shape: &Shape,
    imp: Imp,
    inputs: &Arc<Inputs>,
    spans: Option<(&Spans, u64)>,
) -> ShapeRun {
    let topo = Topology::new(shape.nodes, shape.tasks_per_node);
    let n = topo.nprocs();
    let iters = shape.iters as u64;
    let rec = Arc::new(Mutex::new(Rec {
        windows: vec![Window::default(); shape.iters + 1],
        ..Rec::default()
    }));

    let t0 = Stamp::now();
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let trace = spans.map(|_| {
        let t = Trace::new();
        sim.attach_trace(t.clone());
        t
    });
    let w0 = host_ns();
    let world = match imp {
        Imp::Srm => World::Srm(SrmWorld::new(&mut sim, topo, SrmTuning::default())),
        Imp::Mpi => World::Mpi(MsgWorld::new(&mut sim, topo, Vendor::IbmMpi)),
    };
    let w1 = host_ns();
    for rank in 0..n {
        let (rec, inputs) = (rec.clone(), inputs.clone());
        match &world {
            World::Srm(w) => {
                let comm = w.comm(rank);
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    rank_main(&ctx, &comm, rank, &inputs, iters, &rec);
                    comm.shutdown(&ctx);
                });
            }
            World::Mpi(w) => {
                let coll = MpiColl::new(w.endpoint(rank));
                sim.spawn(format!("rank{rank}"), move |ctx| {
                    rank_main(&ctx, &coll, rank, &inputs, iters, &rec);
                });
            }
        }
    }
    let r0 = Stamp::now();
    let outcome = sim.run();
    let r1 = Stamp::now();
    drop(world);

    let rec = std::mem::take(&mut *rec.lock().expect("record lock"));
    let attempted = iters + 1;
    let mut run = ShapeRun {
        world_new_s: (w1 - w0) as f64 / 1e9,
        setup: Host::default(),
        sim_run: r0.to(r1),
        total: t0.to(Stamp::now()),
        timed: Host::default(),
        warm: None,
        calls: Vec::new(),
        region: MetricsSnapshot::default(),
        counters: MetricsSnapshot::default(),
        attempted,
        failed: attempted,
        outstanding: rec.outstanding,
        labels: [0; 3],
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{} under {}: {e}", shape.name, imp.tag());
            return run;
        }
    };
    let (Some(start), Some(end)) = (rec.start, rec.end) else {
        return run;
    };
    let win = &rec.windows;
    run.setup = t0.to(win[0].last_out);
    run.timed = win[1].first_in.to(win[shape.iters].last_out);
    run.region = end.since(&start);
    run.counters = report.metrics;
    run.failed = 0;
    for (c, w) in win.iter().enumerate() {
        let recs: Vec<&CallRec> = rec.calls.iter().filter(|r| r.call == c as u64).collect();
        let last_start = recs
            .iter()
            .map(|r| r.virt.0)
            .max()
            .expect("every rank records");
        let last_end = recs
            .iter()
            .map(|r| r.virt.1)
            .max()
            .expect("every rank records");
        let first_end = recs
            .iter()
            .map(|r| r.virt.1)
            .min()
            .expect("every rank records");
        let barrier_ok = shape.op != Op::Barrier || first_end >= last_start;
        if recs.len() != n || !barrier_ok || recs.iter().any(|r| !r.ok) {
            run.failed += 1;
        }
        let host = w.first_in.to(w.last_out);
        let summary = CallSummary {
            virt: last_end - last_start,
            skew: last_end - first_end,
            wall_ms: host.wall_s * 1e3,
            cpu_ms: host.cpu_s * 1e3,
        };
        if c == 0 {
            run.warm = Some(summary);
        } else {
            run.calls.push(summary);
        }
    }
    if let (Some(t), Some((spans, parent))) = (trace, spans) {
        for e in t.events() {
            let slot = match e.label {
                "route:staged" => 0,
                "route:direct" => 1,
                l if l.starts_with("tuned:") => 2,
                _ => continue,
            };
            run.labels[slot] += 1;
        }
        spans.push(Span::host("world_new", parent, w0, w1));
        let sim_id = spans.push(
            Span::host("sim_run", parent, r0.wall, r1.wall).virt(SimTime::ZERO, report.end_time),
        );
        for r in &rec.calls {
            let name = if r.call == 0 { "warmup" } else { "call" };
            spans.push(
                Span::host(name, sim_id, r.host.0, r.host.1)
                    .virt(r.virt.0, r.virt.1)
                    .lane(r.rank + 1)
                    .call(parent, r.call),
            );
        }
    }
    run
}

/// One rank's closed loop: warm-up call, barrier, timed calls. Each
/// call starts only after the previous one returned and was checked.
fn rank_main<C: NonblockingCollectives>(
    ctx: &Ctx,
    coll: &C,
    me: usize,
    inputs: &Inputs,
    iters: u64,
    rec: &Mutex<Rec>,
) {
    let n = inputs.nprocs;
    let bufs: Vec<ShmBuffer> = inputs
        .parts
        .iter()
        .map(|p| {
            let b = ShmBuffer::new(p.buf_len(n));
            // Non-roots of a broadcast start from their own bytes, so a
            // broadcast that delivers nothing is caught.
            b.with_mut(|d| d[..p.base[me].len()].copy_from_slice(&p.base[me]));
            b
        })
        .collect();
    let lock = || rec.lock().expect("record lock");

    for c in 0..=iters {
        for (p, b) in inputs.parts.iter().zip(&bufs) {
            p.prepare(b, me, n, c);
        }
        // The kernel runs one rank at a time, so the first rank to get
        // here is the call's first entry on the host clocks.
        {
            let mut r = lock();
            if r.windows[c as usize].entered == 0 {
                r.windows[c as usize].first_in = Stamp::now();
                if c == 1 {
                    r.start = Some(ctx.metrics_snapshot());
                }
            }
            r.windows[c as usize].entered += 1;
        }
        let (h0, v0) = (host_ns(), ctx.now());
        let outstanding = if inputs.parts.len() == 1 {
            inputs.parts[0].invoke(ctx, coll, &bufs[0], false);
            false
        } else {
            overlap_iteration(ctx, coll, &inputs.parts, &bufs)
        };
        let (h1, v1) = (host_ns(), ctx.now());
        {
            let mut r = lock();
            let w = &mut r.windows[c as usize];
            w.left += 1;
            if w.left == n {
                w.last_out = Stamp::now();
                if c == iters {
                    r.end = Some(ctx.metrics_snapshot());
                }
            }
        }
        let ok = inputs
            .parts
            .iter()
            .zip(&bufs)
            .all(|(p, b)| p.check(b, me, n, c));
        let mut r = lock();
        r.calls.push(CallRec {
            rank: me,
            call: c,
            host: (h0, h1),
            virt: (v0, v1),
            ok,
        });
        r.outstanding += (c > 0 && outstanding) as u64;
        drop(r);
        if c == 0 {
            coll.barrier(ctx);
        }
    }
}

/// The `nb_overlap` iteration; returns whether the blocking allreduce
/// was issued while the broadcast request was still outstanding.
fn overlap_iteration<C: NonblockingCollectives>(
    ctx: &Ctx,
    coll: &C,
    parts: &[Part],
    bufs: &[ShmBuffer],
) -> bool {
    let bcast = parts[0]
        .invoke(ctx, coll, &bufs[0], true)
        .expect("nonblocking");
    let ared = parts[1]
        .invoke(ctx, coll, &bufs[1], true)
        .expect("nonblocking");
    let mut outstanding = true;
    for _ in 0..NB_SLICES {
        ctx.advance(NB_SLICE);
        outstanding = !coll.test(ctx, &bcast);
        coll.test(ctx, &ared);
    }
    parts[2].invoke(ctx, coll, &bufs[2], false);
    coll.wait(ctx, ared);
    coll.wait(ctx, bcast);
    outstanding
}
