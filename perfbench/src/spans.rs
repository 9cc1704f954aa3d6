//! Benchmark-side spans, kept in memory and written at exit as Chrome
//! trace-event JSON (the `traceEvents` array of complete `"X"` events),
//! which Perfetto and `chrome://tracing` open.
//!
//! The span tree is workload -> shape -> `world_new` / `sim_run` ->
//! per-rank `call`. Timestamps are host time; each span also carries its
//! virtual start and end in `args`, and every rank's span of one call
//! carries the same `call_id`.

use crate::clock::host_ns;
use simnet::SimTime;
use std::fmt::Write as _;
use std::sync::Mutex;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    name: String,
    parent: u64,
    host: (u64, u64),
    virt: Option<(SimTime, SimTime)>,
    lane: usize,
    call: Option<(u64, u64)>,
}

impl Span {
    /// A span over host interval `[h0, h1]` (ns from [`host_ns`]).
    pub fn host(name: impl Into<String>, parent: u64, h0: u64, h1: u64) -> Span {
        Span {
            name: name.into(),
            parent,
            host: (h0, h1),
            virt: None,
            lane: 0,
            call: None,
        }
    }

    /// Attach the virtual interval.
    pub fn virt(mut self, v0: SimTime, v1: SimTime) -> Span {
        self.virt = Some((v0, v1));
        self
    }

    /// Draw on lane `lane` (rank + 1; lane 0 holds the rounds and shapes).
    pub fn lane(mut self, lane: usize) -> Span {
        self.lane = lane;
        self
    }

    /// Mark as call `call` of the shape span `shape`; all ranks of one
    /// call share the id `"<shape>.<call>"`.
    pub fn call(mut self, shape: u64, call: u64) -> Span {
        self.call = Some((shape, call));
        self
    }
}

/// The in-memory span store. Ids are 1-based; 0 is "no parent".
#[derive(Default)]
pub struct Spans {
    spans: Mutex<Vec<Span>>,
}

impl Spans {
    /// Record `span`; returns its id.
    pub fn push(&self, span: Span) -> u64 {
        let mut v = self.spans.lock().expect("span lock");
        v.push(span);
        v.len() as u64
    }

    /// Reserve an id for a span whose end is not known yet.
    pub fn open(&self, name: impl Into<String>, parent: u64) -> u64 {
        let now = host_ns();
        self.push(Span::host(name, parent, now, now))
    }

    /// Set the end of an opened span to now.
    pub fn close(&self, id: u64) {
        self.spans.lock().expect("span lock")[id as usize - 1]
            .host
            .1 = host_ns();
    }

    /// Render as Chrome trace-event JSON.
    pub fn to_chrome_json(&self) -> String {
        let v = self.spans.lock().expect("span lock");
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in v.iter().enumerate() {
            let mut args = format!("\"id\":{},\"parent\":{}", i + 1, s.parent);
            if let Some((v0, v1)) = s.virt {
                let _ = write!(
                    args,
                    ",\"virt_start_us\":{},\"virt_end_us\":{}",
                    v0.as_us(),
                    v1.as_us()
                );
            }
            if let Some((shape, call)) = s.call {
                let _ = write!(args, ",\"call_id\":\"{shape}.{call}\"");
            }
            let _ = writeln!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                if i == 0 { "" } else { "," },
                escape(&s.name),
                s.lane,
                s.host.0 as f64 / 1e3,
                s.host.1.saturating_sub(s.host.0) as f64 / 1e3,
            );
        }
        let _ = write!(
            out,
            ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{{\"name\":\"rounds\"}}}}\n]}}\n"
        );
        out
    }
}

fn escape(s: &str) -> String {
    let mut o = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrome_json_nests_and_escapes() {
        let s = Spans::default();
        let w = s.open("wl \"x\"", 0);
        let c = s.push(
            Span::host("call", w, 10, 2_010)
                .virt(SimTime::ZERO, SimTime::from_us(3))
                .lane(2)
                .call(w, 1),
        );
        s.close(w);
        assert_eq!((w, c), (1, 2));
        let j = s.to_chrome_json();
        assert!(j.contains("wl \\\"x\\\""));
        assert!(j.contains("\"tid\":2,\"ts\":0.010,\"dur\":2.000"));
        assert!(j.contains("\"call_id\":\"1.1\""));
        assert!(j.contains("\"virt_end_us\":3"));
    }
}
