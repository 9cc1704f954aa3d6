//! The four workloads: which shapes each runs, and how many timed calls.
//!
//! Every shape runs on `MachineConfig::ibm_sp_colony()` under SRM and
//! under the IBM-MPI-like baseline. The timed-call counts are fixed, so
//! virtual metrics and counters do not depend on host speed; the run
//! length (`--seconds`) only decides how many rounds of the whole
//! workload are repeated for the host metrics.

/// A collective program the benchmark times as one call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Broadcast of `len` bytes from a seeded root.
    Bcast,
    /// Sum-reduce of `len` bytes of `f64`s to a seeded root.
    Reduce,
    /// Sum-allreduce of `len` bytes of `f64`s.
    Allreduce,
    /// Barrier.
    Barrier,
    /// Alltoall, `len` bytes per pair.
    Alltoall,
    /// Alltoallv, slots of `len` bytes with seeded counts in `0..=len`.
    Alltoallv,
    /// Sum-reduce-scatter, a `len`-byte block per rank.
    ReduceScatter,
    /// One overlap iteration: `ibroadcast` 64 KB and `iallreduce` 4 KB
    /// under sliced compute with `test` polls, a blocking allreduce 4 KB
    /// while the requests may still be outstanding, then `wait` both.
    NbIter,
}

impl Op {
    fn tag(self) -> &'static str {
        match self {
            Op::Bcast => "bcast",
            Op::Reduce => "reduce",
            Op::Allreduce => "allreduce",
            Op::Barrier => "barrier",
            Op::Alltoall => "alltoall",
            Op::Alltoallv => "alltoallv",
            Op::ReduceScatter => "reduce_scatter",
            Op::NbIter => "nb_iter",
        }
    }
}

/// One measured configuration.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Metric-safe name, e.g. `reduce.1MB.P64`.
    pub name: String,
    /// SMP nodes.
    pub nodes: usize,
    /// Tasks per node.
    pub tasks_per_node: usize,
    /// The timed program.
    pub op: Op,
    /// Payload parameter in bytes (see [`Op`]).
    pub len: usize,
    /// Timed calls after the warm-up call and barrier.
    pub iters: usize,
}

impl Shape {
    fn new(nodes: usize, tasks_per_node: usize, op: Op, len: usize, iters: usize) -> Shape {
        let p = nodes * tasks_per_node;
        let name = match op {
            Op::Barrier | Op::NbIter => format!("{}.P{p}", op.tag()),
            _ => format!("{}.{}.P{p}", op.tag(), size_tag(len)),
        };
        Shape {
            name,
            nodes,
            tasks_per_node,
            op,
            len,
            iters,
        }
    }

    /// Ranks in the shape.
    pub fn nprocs(&self) -> usize {
        self.nodes * self.tasks_per_node
    }
}

fn size_tag(len: usize) -> String {
    match len {
        l if l >= 1 << 20 && l % (1 << 20) == 0 => format!("{}MB", l >> 20),
        l if l >= 1 << 10 && l % (1 << 10) == 0 => format!("{}KB", l >> 10),
        l => format!("{l}B"),
    }
}

/// A named set of shapes.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The shapes, run in this order in every round.
    pub shapes: Vec<Shape>,
}

/// Workload names, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = [
    "rooted_paper",
    "pairwise_route",
    "kernel_scale",
    "nb_overlap",
];

const KB: usize = 1 << 10;
const MB: usize = 1 << 20;

/// The workload called `name`.
pub fn workload(name: &str) -> Option<Workload> {
    let shapes = match name {
        // The paper's Figs 6-12 at 4x16.
        "rooted_paper" => {
            let mut v = Vec::new();
            for op in [Op::Bcast, Op::Reduce, Op::Allreduce] {
                for (len, iters) in [(8, 16), (4 * KB, 12), (64 * KB, 4), (MB, 1)] {
                    v.push(Shape::new(4, 16, op, len, iters));
                }
            }
            v.push(Shape::new(4, 16, Op::Barrier, 0, 16));
            v
        }
        // Both sides of the 64 KB staged/direct route switch at 4x4.
        "pairwise_route" => {
            let mut v = Vec::new();
            for (len, iters) in [(16 * KB, 6), (256 * KB, 2)] {
                for op in [Op::Alltoall, Op::Alltoallv, Op::ReduceScatter] {
                    v.push(Shape::new(4, 4, op, len, iters));
                }
            }
            v
        }
        // Tiny payloads at P = 256 and 512: host time is kernel handoffs.
        "kernel_scale" => {
            let mut v = Vec::new();
            for (nodes, iters) in [(16, 8), (32, 4)] {
                v.push(Shape::new(nodes, 16, Op::Barrier, 0, iters));
                v.push(Shape::new(nodes, 16, Op::Bcast, 8, iters));
                v.push(Shape::new(nodes, 16, Op::Allreduce, 8, iters));
            }
            v
        }
        // The nonblocking executor at 2x16.
        "nb_overlap" => vec![Shape::new(2, 16, Op::NbIter, 0, 8)],
        _ => return None,
    };
    Some(Workload {
        name: NAMES.iter().find(|n| **n == name).expect("listed name"),
        shapes,
    })
}
