//! Kernel handoff probe: `p` logical processes pass one token around a
//! ring through the public `Sim`/`SimVar` API, with no protocol work in
//! between, so the host cost of a pass is the kernel's own cost of one
//! handoff (the `pick_next` scan over all LPs, the waiter scan of the
//! store, and the condvar turn passing) at that `p`.

use simnet::{MachineConfig, Sim, SimVar};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Host nanoseconds per token pass in a ring of `p` LPs, timed over
/// `laps` laps after one untimed lap (which absorbs thread start-up).
pub fn handoff_ns(p: usize, laps: u64) -> f64 {
    assert!(p >= 2 && laps >= 1);
    let mut sim = Sim::new(MachineConfig::ibm_sp_colony());
    let h = sim.handle();
    // One mailbox per LP, so each pass wakes exactly one waiter. The
    // token is the running pass count.
    let boxes: Vec<SimVar<u64>> = (0..p).map(|_| h.var(0)).collect();
    let span = Arc::new(Mutex::new((None::<Instant>, None::<Instant>)));
    let total = (laps + 1) * p as u64;
    for i in 0..p {
        let mine = boxes[i].clone();
        let next = boxes[(i + 1) % p].clone();
        let span = span.clone();
        sim.spawn(format!("ring{i}"), move |ctx| {
            let mut pass = i as u64;
            while pass < total {
                if pass > 0 {
                    mine.wait(&ctx, "token", |v| *v == pass);
                }
                if pass == p as u64 {
                    span.lock().expect("span lock").0 = Some(Instant::now());
                }
                next.store(&ctx, pass + 1);
                pass += p as u64;
            }
            if i == p - 1 {
                span.lock().expect("span lock").1 = Some(Instant::now());
            }
        });
    }
    sim.run().expect("token ring completes");
    let (Some(a), Some(b)) = *span.lock().expect("span lock") else {
        unreachable!("both ends of the timed laps are recorded")
    };
    (b - a).as_nanos() as f64 / (laps * p as u64) as f64
}
