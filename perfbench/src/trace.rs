//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a start, an end, a parent and
//! the run id. Spans are kept in memory and written out when the run
//! ends. A disabled tracer records nothing, so the untraced run that
//! produces the end-to-end metrics pays one branch per call.

use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run_id: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run_id,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished call, as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Time `f` and record it as a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.record(name, t0, t1);
        (out, (t1 - t0).as_secs_f64())
    }

    /// Open a parent span; spans recorded until [`Tracer::close`] are its
    /// children.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end = self.ns(Instant::now());
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of each span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start - covered) as f64 * 1e-9
            })
            .collect()
    }

    /// Summed self time of every span named `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_times()
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// Durations of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Write the spans as JSON lines: one object per span with its id,
    /// parent id, name, run id and start/end in microseconds.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                self.run_id,
                i,
                parent,
                s.name,
                s.start as f64 * 1e-3,
                s.end as f64 * 1e-3
            )?;
        }
        out.flush()
    }
}

/// Host seconds one [`Tracer::record`] costs when tracing is on, measured
/// over `n` records into a scratch tracer.
pub fn record_cost_secs(n: usize) -> f64 {
    let mut scratch = Tracer::new(true, 0);
    let t = Instant::now();
    let t0 = Instant::now();
    for _ in 0..n {
        let now = Instant::now();
        scratch.record("trace.calibrate", t0, now);
    }
    let per = t.elapsed().as_secs_f64() / n.max(1) as f64;
    std::hint::black_box(scratch.spans.len());
    per
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true, 1);
        tr.spans = vec![
            Span {
                name: "core.parent",
                start: 0,
                end: 1_000,
                parent: None,
            },
            Span {
                name: "mpisim.run",
                start: 100,
                end: 400,
                parent: Some(0),
            },
            Span {
                name: "ipm.profile",
                start: 300,
                end: 600,
                parent: Some(0),
            },
        ];
        let st = tr.self_times();
        assert!((st[0] - 500e-9).abs() < 1e-15, "{st:?}");
        assert!((st[1] - 300e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false, 1);
        tr.open("core.x");
        let (v, secs) = tr.time("core.y", || 7);
        tr.close();
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
