//! Ablation A2 (paper §2.2): intra-node broadcast algorithm. The paper
//! implemented tree-based broadcasts, then found the flat two-buffer
//! algorithm faster despite read contention. This binary measures all
//! three in-tree variants on one 16-way node.

use srm::SrmComm;
use srm_bench::time_smp_bcast;

fn main() {
    println!("Ablation A2: intra-node broadcast algorithm, 16-way node\n");
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "bytes", "flat (us)", "tree (us)", "sistare (us)"
    );
    for len in [64usize, 1024, 16 << 10, 256 << 10, 1 << 20] {
        let iters = if len >= 256 << 10 { 3 } else { 8 };
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>14.1}",
            len,
            time_smp_bcast(SrmComm::smp_bcast, len, iters, None).as_us(),
            time_smp_bcast(SrmComm::smp_bcast_tree, len, iters, None).as_us(),
            time_smp_bcast(SrmComm::smp_bcast_sistare, len, iters, None).as_us(),
        );
    }
    println!("\npaper's finding: flat wins despite contention; barrier-synchronized [11] is slowest for small messages");
}
