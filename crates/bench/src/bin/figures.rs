//! The paper's evaluation in one run: the broadcast, reduce, allreduce
//! and barrier sweeps are each measured once, then every panel that
//! reads them is printed, in order:
//!
//! * Figures 6–8 — SRM broadcast / reduce / allreduce (sum of doubles):
//!   absolute time vs size (8 B – 8 MB) per processor count, and SRM vs
//!   IBM MPI vs MPICH up to 64 KB at the largest count;
//! * Figures 9–11 — `T_SRM/T_MPI × 100 %` vs size against both MPIs,
//!   from the same three sweeps (lower is better);
//! * Figure 12 — barrier time vs processor count;
//! * the headline bands of the abstract / §3: broadcast outperforms IBM
//!   MPI by 27–84 %, reduce by 24–79 %, allreduce by 30–73 %, and the
//!   barrier by 73 % on 256 processors.
//!
//! `SRM_BENCH_FAST=1` selects the coarse grid.

use srm_bench::{
    improvement_band, print_absolute_panel, print_comparison_panel, print_ratio_panels, run_sweep,
    size_grid, sweep_barrier, Point, Sweep,
};
use srm_cluster::{Impl, Op};

/// The rooted sweeps: operation, figure numbers (absolute, ratio), the
/// paper's improvement band over IBM MPI.
const ROOTED: [(Op, u32, u32, &str); 3] = [
    (Op::Bcast, 6, 9, "27%-84%"),
    (Op::Reduce, 7, 10, "24%-79%"),
    (Op::Allreduce, 8, 11, "30%-73%"),
];

fn main() {
    let mut sweeps = Vec::new();
    for (op, fig, _, _) in ROOTED {
        let name = op.name();
        let s = run_sweep(op, |_| size_grid(), false);
        print_absolute_panel(
            &format!("Figure {fig} (left): SRM {name}, time vs message size"),
            &s,
        );
        print_comparison_panel(
            &format!("Figure {fig} (right): {name} comparison"),
            &s,
            64 << 10,
        );
        sweeps.push(s);
    }
    for ((op, _, fig, _), s) in ROOTED.iter().zip(&sweeps) {
        print_ratio_panels(&format!("Figure {fig}: {}", op.name()), s);
    }
    let barrier = sweep_barrier();
    print_barrier(&barrier);
    print_headline(&sweeps, &barrier);
}

/// The barrier's time at `nprocs` for `imp`.
fn barrier_us(pts: &[Point], imp: Impl, nprocs: usize) -> f64 {
    pts.iter()
        .find(|p| p.imp == imp && p.nprocs == nprocs)
        .map(|p| p.us)
        .unwrap_or(f64::NAN)
}

/// Figure 12: barrier time vs processor count, all implementations.
fn print_barrier(pts: &[Point]) {
    println!("\nFigure 12: barrier time vs number of processors");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12}",
        "procs", "SRM (us)", "MPI (us)", "MPICH (us)", "SRM/MPI"
    );
    let mut procs: Vec<usize> = pts.iter().map(|p| p.nprocs).collect();
    procs.sort_unstable();
    procs.dedup();
    for n in procs {
        let (s, m, c) = (
            barrier_us(pts, Impl::Srm, n),
            barrier_us(pts, Impl::IbmMpi, n),
            barrier_us(pts, Impl::Mpich, n),
        );
        println!(
            "{n:>8} {s:>10.1} {m:>10.1} {c:>10.1} {:>11.0}%",
            100.0 * s / m
        );
    }
}

/// The abstract's claim bands, recomputed from the sweeps.
fn print_headline(sweeps: &[Sweep], barrier: &[Point]) {
    println!("Headline reproduction (improvement = 100% - T_SRM/T_MPI x 100%)\n");
    for ((op, _, _, paper), s) in ROOTED.iter().zip(sweeps) {
        for base in [Impl::IbmMpi, Impl::Mpich] {
            let (lo, hi) = improvement_band(s, base);
            let note = if base == Impl::IbmMpi {
                format!("(paper vs IBM: {paper})")
            } else {
                "(paper: similar or better margins)".to_string()
            };
            println!(
                "{:9} vs {:8}: improvement {:>5.0}%..{:>4.0}% {}",
                op.name(),
                base.name(),
                lo,
                hi,
                note
            );
        }
    }
    let max_p = barrier.iter().map(|p| p.nprocs).max().unwrap();
    let impr = 100.0
        - 100.0 * barrier_us(barrier, Impl::Srm, max_p) / barrier_us(barrier, Impl::IbmMpi, max_p);
    println!("barrier   vs IBM MPI at P={max_p}: improvement {impr:.0}% (paper: 73% on 256 procs)");
}
