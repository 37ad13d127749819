//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the driving thread only, around calls into the
//! runtime's and the suite's public functions, into a buffer allocated
//! before the traced pass starts; a full buffer drops further spans and
//! counts them. The buffer is written once, at the end, as Chrome
//! trace-event JSON (loads in Perfetto and `chrome://tracing`).

use std::io::Write;
use std::time::Instant;

/// Counter deltas attached to a span, measured at its boundaries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub executed: u64,
    pub stolen: u64,
    pub cont_suspends: u64,
    pub allocs: u64,
    /// Work units reported by the call (Floorplan: nodes visited).
    pub work: u64,
}

/// One closed span. `parent` is the index of the enclosing span plus one
/// (`0`: none); `id` groups the spans of one request (a region).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u32,
    pub lane: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
    pub counts: Counts,
}

/// A span recorder; [`Tracer::off`] records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A recorder that ignores every span.
    pub fn off() -> Self {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recorder with room for `capacity` spans, allocated now.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            on: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Nanoseconds since the recorder was created.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a closed span from `start` to `end`; returns its parent
    /// handle for child spans (`0` when nothing was recorded).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u32,
        lane: u32,
        start: Instant,
        end: Instant,
        counts: Counts,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            id,
            parent,
            lane,
            start_ns,
            dur_ns: self.ns(end).saturating_sub(start_ns),
            counts,
        });
        self.spans.len() as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as Chrome trace-event JSON, with `meta` (a JSON
    /// object) as the trace's `otherData`.
    pub fn write_chrome(&self, path: &std::path::Path, meta: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"otherData\":{meta},\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent
            )?;
            let c = &s.counts;
            for (key, v) in [
                ("executed", c.executed),
                ("stolen", c.stolen),
                ("cont_suspends", c.cont_suspends),
                ("allocs", c.allocs),
                ("work", c.work),
            ] {
                if v > 0 {
                    write!(out, ",\"{key}\":{v}")?;
                }
            }
            out.write_all(b"}}")?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children's intervals cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent > 0 {
            children[s.parent as usize - 1].push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(hi));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: "t",
            id: 0,
            parent,
            lane: 0,
            start_ns,
            dur_ns,
            counts: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 0, 100),
            // Overlapping children count once; one sticks out past the end.
            span(1, 10, 20),
            span(1, 20, 30),
            span(1, 90, 30),
            // A grandchild is charged to its own parent only.
            span(2, 12, 5),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 30, 30, 5]);
    }

    #[test]
    fn self_time_of_a_leaf_is_its_duration() {
        assert_eq!(self_times(&[span(0, 5, 7)]), vec![7]);
    }

    #[test]
    fn off_tracer_records_nothing_and_full_buffer_drops() {
        let t0 = Instant::now();
        let mut off = Tracer::off();
        assert_eq!(off.record("x", 0, 0, 0, t0, t0, Counts::default()), 0);
        assert!(off.spans().is_empty());
        let mut one = Tracer::with_capacity(1);
        assert_eq!(one.record("x", 0, 0, 0, t0, t0, Counts::default()), 1);
        assert_eq!(one.record("y", 0, 0, 0, t0, t0, Counts::default()), 0);
        assert_eq!((one.spans().len(), one.dropped()), (1, 1));
    }
}
