//! Extra figure: the pairwise RMA exchange family — alltoall and
//! reduce-scatter over the credit-windowed landing rings — against
//! both MPI baselines, plus the Rabenseifner allreduce switch built
//! on it. (alltoallv rides the same rings; its ragged harness counts
//! make it a per-piece-overhead microbenchmark rather than a
//! bandwidth sweep, so the figure sticks to the uniform ops.)
//!
//! `len` is the per-pair segment, so an alltoall point moves
//! `nprocs² × len` bytes in total; the grid is filtered so each rank's
//! working set stays within the figures' 8 MB ceiling. The paper did
//! not measure these operations; this sweep documents that its setup-
//! time address exchange and counter flow control extend to fully
//! personalized traffic patterns.

use simnet::MachineConfig;
use srm::SrmTuning;
use srm_bench::{
    fast_mode, iters_for, pair_size_grid, print_comparison_panel, print_ratio_panels, proc_grid,
    run_sweep,
};
use srm_cluster::{measure, HarnessOpts, Impl, Op};

/// Rabenseifner vs pipeline allreduce: same machine, same topology,
/// only the `allreduce_rs_min` switch differs.
fn rabenseifner_panel() {
    let machine = MachineConfig::ibm_sp_colony();
    let sizes: Vec<usize> = if fast_mode() {
        vec![256 << 10, 2 << 20]
    } else {
        vec![128 << 10, 256 << 10, 1 << 20, 2 << 20, 8 << 20]
    };
    println!("\nAllreduce: four-stage pipeline vs reduce-scatter+allgather");
    println!("{}", "-".repeat(66));
    println!(
        "{:>8} {:>10} {:>14} {:>14} {:>8}",
        "nodes", "bytes", "pipeline (us)", "rs+ag (us)", "rs/pipe"
    );
    for topo in proc_grid() {
        if topo.nodes() < 2 {
            continue;
        }
        for &len in &sizes {
            if len % topo.nprocs() != 0 {
                continue;
            }
            let run = |rs_min: usize| {
                measure(
                    Impl::Srm,
                    machine.clone(),
                    topo,
                    Op::Allreduce,
                    len,
                    HarnessOpts {
                        iters: iters_for(len),
                        srm: SrmTuning {
                            allreduce_rs_min: rs_min,
                            ..SrmTuning::default()
                        },
                    },
                )
                .per_call
                .as_us()
            };
            let pipe = run(usize::MAX);
            let rs = run(1);
            println!(
                "{:>8} {:>10} {:>14.1} {:>14.1} {:>7.0}%",
                topo.nodes(),
                len,
                pipe,
                rs,
                100.0 * rs / pipe
            );
        }
    }
}

fn main() {
    for op in [Op::Alltoall, Op::ReduceScatter] {
        let s = run_sweep(op, pair_size_grid, true);
        let title = format!("Extra figure: {} (per-pair segment bytes)", op.name());
        // The absolute panel shows the largest process count, where the
        // working-set cap admits only segments up to 512 KB / nprocs.
        print_comparison_panel(&title, &s, (512 << 10) / 256);
        print_ratio_panels(&title, &s);
    }
    rabenseifner_panel();
}
