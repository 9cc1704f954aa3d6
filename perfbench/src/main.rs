//! The repository benchmark: runs one workload (or `all`) of SRM and
//! IBM-MPI collectives on the simulated IBM SP, checks every call's
//! output, and prints the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`), ending with one JSON line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload rooted_paper --seed 1 --seconds 12 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and every metric.

mod clock;
mod metrics;
mod payload;
mod probe;
mod shape;
mod spans;
mod stats;
mod workload;

use shape::{Imp, Inputs, ShapeRun};
use spans::Spans;
use std::sync::Arc;
use std::time::Instant;
use workload::{Workload, NAMES};

const USAGE: &str = "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
       perfbench --list-metrics
workloads: rooted_paper pairwise_route kernel_scale nb_overlap";

/// Command-line options.
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = a.next() {
        if flag == "--list-metrics" {
            return Ok(None);
        }
        let v = a.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = Some(v.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(v.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && workload::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.0),
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// One pass over every shape of a workload under SRM; the first round
/// also runs the IBM-MPI baseline.
pub struct Round {
    /// Spans and trace labels were recorded.
    pub traced: bool,
    /// Per shape, under SRM.
    pub srm: Vec<ShapeRun>,
    /// Per shape, under IBM MPI (first round only, else empty).
    pub mpi: Vec<ShapeRun>,
}

impl Round {
    /// Host time of the round's SRM runs, `Sim::new` to end of run.
    pub fn srm_host(&self) -> clock::Host {
        let mut h = clock::Host::default();
        for r in &self.srm {
            h.wall_s += r.total.wall_s;
            h.cpu_s += r.total.cpu_s;
        }
        h
    }
}

fn run_round(wl: &Workload, seed: u64, spans: Option<&Spans>, n: usize) -> Round {
    let root = spans.map_or(0, |s| s.open(format!("{} round {n}", wl.name), 0));
    let imps: &[Imp] = if n == 0 {
        &[Imp::Srm, Imp::Mpi]
    } else {
        &[Imp::Srm]
    };
    let mut round = Round {
        traced: spans.is_some(),
        srm: Vec::new(),
        mpi: Vec::new(),
    };
    for (i, shape) in wl.shapes.iter().enumerate() {
        let inputs = Arc::new(Inputs::new(shape, i, seed));
        for &imp in imps {
            let parent = spans.map(|s| (s, s.open(format!("{} {}", shape.name, imp.tag()), root)));
            let run = shape::run(shape, imp, &inputs, parent);
            if let Some((s, id)) = parent {
                s.close(id);
            }
            match imp {
                Imp::Srm => round.srm.push(run),
                Imp::Mpi => round.mpi.push(run),
            }
        }
    }
    if let Some(s) = spans {
        s.close(root);
    }
    round
}

/// Run `wl` for about `args.seconds`: whole rounds, alternating
/// untraced and traced ones when tracing. Returns whether every call
/// was correct and every round reproduced the first one's virtual
/// results.
fn run_workload(wl: &Workload, args: &Args) -> bool {
    let spans = Spans::default();
    let handoff_ns = args.trace.then(|| {
        let p = wl.shapes.iter().map(|s| s.nprocs()).max().expect("shapes");
        let laps = (65_536 / p as u64).max(4);
        let v: Vec<f64> = (0..3).map(|_| probe::handoff_ns(p, laps)).collect();
        stats::median(&v)
    });
    // The first reference run pays for cold caches and page faults.
    clock::reference_cpu_s();
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut references = Vec::new();
    let min_rounds = if args.trace { 2 } else { 1 };
    loop {
        let start = t0.elapsed().as_secs_f64();
        let reference = clock::reference_cpu_s();
        let traced = args.trace && rounds.len() % 2 == 1;
        rounds.push(run_round(
            wl,
            args.seed,
            traced.then_some(&spans),
            rounds.len(),
        ));
        references.push(reference);
        let end = t0.elapsed().as_secs_f64();
        // Stop when another round like the last one would overrun.
        if rounds.len() >= min_rounds && 2.0 * end - start > args.seconds {
            break;
        }
    }
    let report = metrics::Report::new(wl, &rounds, stats::median(&references), handoff_ns);
    let mut ok = report.print(wl, args);

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}.seed{}", wl.name, args.seed);
    let mut files = vec![(
        out.join(format!("{stem}.virtual.txt")),
        report.virtual_signature.clone(),
    )];
    if args.trace {
        files.push((
            out.join(format!("{stem}.trace.json")),
            spans.to_chrome_json(),
        ));
    }
    for (path, body) in files {
        match std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&path, body)) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("cannot write {}: {e}", path.display());
                ok = false;
            }
        }
    }
    println!("{}", report.json(args.trace));
    ok
}

fn main() {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            for (name, unit, better) in metrics::per_layer_names() {
                println!("{name} {unit} {better}");
            }
            return;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Before any thread exists, so that every logical process inherits it.
    match clock::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}"),
        None => eprintln!("could not pin to one CPU; host times will be noisier"),
    }
    let names: Vec<&str> = if args.workload == "all" {
        NAMES.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut ok = true;
    for name in names {
        let wl = workload::workload(name).expect("validated name");
        ok &= run_workload(&wl, &args);
    }
    if !ok {
        std::process::exit(1);
    }
}
