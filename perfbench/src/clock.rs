//! The two host clocks: wall time and process CPU time.

use std::sync::OnceLock;
use std::time::Instant;

/// Host wall nanoseconds since the first call in this process.
pub fn host_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU nanoseconds used by every thread of this process so far (exited
/// threads included). Unlike wall time, it does not grow while the
/// process waits for a CPU.
pub fn cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and
    // CLOCK_PROCESS_CPUTIME_ID is always a valid clock id on Linux.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A reading of both host clocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stamp {
    /// [`host_ns`].
    pub wall: u64,
    /// [`cpu_ns`].
    pub cpu: u64,
}

impl Stamp {
    /// Read both clocks.
    pub fn now() -> Stamp {
        Stamp {
            wall: host_ns(),
            cpu: cpu_ns(),
        }
    }

    /// Seconds from `self` to `later` on both clocks.
    pub fn to(self, later: Stamp) -> Host {
        let secs = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e9;
        Host {
            wall_s: secs(self.wall, later.wall),
            cpu_s: secs(self.cpu, later.cpu),
        }
    }
}

/// A host duration on both clocks.
#[derive(Clone, Copy, Debug, Default)]
pub struct Host {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

/// Restrict this thread, and every thread it spawns later, to the first
/// CPU it may run on; returns that CPU. The simulator runs one logical
/// process at a time, so this costs no parallelism; it turns every
/// kernel handoff into a same-CPU switch, which keeps host times from
/// tracking a neighbour's load on the other CPUs of a small VM.
pub fn pin_to_one_cpu() -> Option<usize> {
    const BYTES: usize = 128; // a cpu_set_t of 1024 CPUs
    let mut mask = [0u8; BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, BYTES, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..BYTES * 8).find(|&i| mask[i / 8] >> (i % 8) & 1 == 1)?;
    let mut one = [0u8; BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, BYTES, one.as_ptr()) } == 0).then_some(cpu)
}

/// CPU seconds [`reference_cpu_s`] takes on the VM the baseline was
/// measured on; host metrics are scaled to that machine speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.034;

/// A fixed job that uses none of the simulator's code: a two-thread
/// condvar ping-pong (the kernel handoff pattern), a memory copy and some
/// integer arithmetic. Returns its process CPU seconds. Timed beside the
/// simulator in the same run, it measures how fast the machine is at
/// that moment, so host metrics can be scaled to a fixed machine speed.
pub fn reference_cpu_s() -> f64 {
    use std::sync::{Arc, Condvar, Mutex};
    let t0 = Stamp::now();
    let turn = Arc::new((Mutex::new(0u64), Condvar::new()));
    const TRIPS: u64 = 2_000;
    let other = turn.clone();
    let peer = std::thread::spawn(move || {
        let (m, cv) = &*other;
        for i in 0..TRIPS {
            let mut g = cv
                .wait_while(m.lock().expect("reference lock poisoned"), |t| {
                    *t != 2 * i + 1
                })
                .expect("reference lock poisoned");
            *g += 1;
            cv.notify_one();
        }
    });
    let (m, cv) = &*turn;
    for i in 0..TRIPS {
        let mut g = m.lock().expect("reference lock poisoned");
        *g += 1;
        cv.notify_one();
        drop(
            cv.wait_while(g, |t| *t != 2 * i + 2)
                .expect("reference lock poisoned"),
        );
    }
    peer.join().expect("reference peer panicked");
    let src = vec![1u8; 8 << 20];
    let mut dst = vec![0u8; 8 << 20];
    let mut x = 0u64;
    for r in 0..4u8 {
        dst.copy_from_slice(&src);
        dst[r as usize] = r;
        x = x.wrapping_add(std::hint::black_box(&dst)[r as usize * 4096] as u64);
    }
    let mut s = x;
    for _ in 0..2_000_000 {
        s = crate::payload::splitmix(&mut s);
    }
    std::hint::black_box(s);
    t0.to(Stamp::now()).cpu_s
}
