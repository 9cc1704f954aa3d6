//! Ablation A5 (paper §4): sensitivity to late arrivals. The paper
//! argues SRM's per-pair flags beat the barrier-synchronized buffer
//! arbitration of Sistare et al. \[11\] because a full barrier makes the
//! whole node wait for the slowest task *twice per buffer*. Here one
//! task arrives late and we watch how much of the delay each algorithm
//! absorbs.

use simnet::SimTime;
use srm::SrmComm;
use srm_bench::time_smp_bcast;

fn main() {
    println!("Ablation A5: straggler tolerance, 8 KB broadcast on a 16-way node\n");
    println!(
        "{:>12} {:>16} {:>20}",
        "skew (us)", "SRM flags (us)", "barrier-sync (us)"
    );
    for skew in [0u64, 10, 50, 200] {
        // The straggler is late at every call (a daemon hit it).
        let run = |bcast| time_smp_bcast(bcast, 8 << 10, 6, Some(SimTime::from_us(skew))).as_us();
        println!(
            "{:>12} {:>16.1} {:>20.1}",
            skew,
            run(SrmComm::smp_bcast),
            run(SrmComm::smp_bcast_sistare)
        );
    }
    println!("\npaper §4: flag-based coordination is 'less susceptible to the processor late arrivals and delays'");
}
