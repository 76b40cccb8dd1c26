//! Spans recorded from the benchmark's own code, around each call into
//! a layer, in the style of Dapper (Sigelman et al., 2010).
//!
//! A span has a name, a start, a duration, the span that caused it and a
//! key: the correlation id for request-scoped spans, the wire role for
//! `net.roundtrip`, 0 otherwise. Spans stay in memory during the run and
//! are written out as one tab-separated file when it ends.

use drams_faas::transport::{Transport, TransportError, WireFrame, WireRole};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// "No parent": a top-level span.
const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and operation, e.g. `chain.mine`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the causing span, or `u32::MAX` for a top-level span.
    pub parent: u32,
    /// Correlation id, wire role or 0 (see the module docs).
    pub key: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    parent: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            parent: ROOT,
        }
    }
}

impl Tracer {
    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, key: u64) -> (u32, Instant) {
        let start = Instant::now();
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.nanos(start),
            dur_ns: 0,
            parent: self.parent,
            key,
        });
        let outer = self.parent;
        self.parent = index;
        (outer, start)
    }

    /// Closes the span [`Tracer::open`] returned `opened` for.
    pub fn close(&mut self, opened: (u32, Instant)) {
        let (outer, start) = opened;
        let index = self.parent as usize;
        self.spans[index].dur_ns = start.elapsed().as_nanos() as u64;
        self.parent = outer;
    }

    /// Records a leaf span that started at `start` and ends now.
    pub fn leaf(&mut self, name: &'static str, key: u64, start: Instant) {
        let dur_ns = start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: self.nanos(start),
            dur_ns,
            parent: self.parent,
            key,
        });
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-call durations (seconds) of every span called `name`, in
    /// call order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 * 1e-9)
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns dur_ns parent key` (parent `-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index\tname\tstart_ns\tdur_ns\tparent\tkey")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.dur_ns, s.key
            )?;
        }
        out.flush()
    }
}

/// The span key of a wire role: the role's tag in the high half, its
/// slot or LI index in the low half.
pub fn role_key(role: WireRole) -> u64 {
    (u64::from(role.tag()) << 32) | u64::from(role.param())
}

/// A [`Transport`] decorator that records a `net.roundtrip` span around
/// every round trip of the wrapped transport.
pub struct TimedTransport<T> {
    /// The wrapped transport.
    pub inner: T,
    /// The recorded spans.
    pub tracer: Tracer,
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn is_wire(&self) -> bool {
        self.inner.is_wire()
    }

    fn roundtrip(&mut self, frame: WireFrame) -> Result<WireFrame, TransportError> {
        let key = role_key(frame.role);
        let start = Instant::now();
        let echo = self.inner.roundtrip(frame);
        self.tracer.leaf("net.roundtrip", key, start);
        echo
    }

    fn restart(&mut self, role: WireRole) -> Result<(), TransportError> {
        self.inner.restart(role)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Sum of `xs`.
pub fn total(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |sum, x| sum + x)
}

/// Nearest-rank percentile of `xs` (`p` in 0..=100); 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Cost growth over a run: the mean per-call cost over the last tenth
/// of calls divided by the mean over the first tenth (at least one call
/// each). 1 means flat cost; 0 when there are fewer than two calls.
pub fn growth(per_call: &[f64]) -> f64 {
    if per_call.len() < 2 {
        return 0.0;
    }
    let tenth = per_call.len().div_ceil(10);
    let mean = |xs: &[f64]| total(xs) / xs.len() as f64;
    let first = mean(&per_call[..tenth]);
    let last = mean(&per_call[per_call.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::default();
        let outer = t.open("runtime.pep", 0);
        t.leaf("probe.observe", 7, Instant::now());
        t.close(outer);
        t.leaf("chain.mine", 0, Instant::now());
        let spans = t.spans();
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].key, 7);
        assert_eq!(spans[2].parent, ROOT);
    }

    #[test]
    fn statistics() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 50.0), 2.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0, 4.0], 99.0), 4.0);
        let flat = vec![1.0; 20];
        assert_eq!(growth(&flat), 1.0);
        let rising: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(growth(&rising), 10.0);
        assert_eq!(growth(&[5.0]), 0.0);
    }
}
