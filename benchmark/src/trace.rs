//! In-memory spans recorded by the harness around each public call into the
//! program, written out once when the run ends.
//!
//! A span has a name (its layer boundary), a start and an end, the span that
//! caused it and the identifier of the operation it belongs to. A span's
//! **self time** is its duration minus the part its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span; [`NO_SPAN`] for "no parent" and for every
/// span of a disabled tracer.
pub type SpanId = u32;

/// The parent of root spans, and the id a disabled tracer hands out.
pub const NO_SPAN: SpanId = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into the tracer's name table.
    pub name: u16,
    /// The span that caused this one, or [`NO_SPAN`].
    pub parent: SpanId,
    /// Operation identifier shared by the spans of one request (0 = none).
    pub op: u64,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while still open).
    pub end_ns: u64,
}

/// Aggregate of every span sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    /// The span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times (duration minus children), ns.
    pub self_ns: u64,
}

/// The span recorder. A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Counter series recorded at the same boundaries as the spans: a name
    /// and an already rendered JSON value each.
    series: Vec<(&'static str, String)>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every call.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            series: Vec::new(),
        }
    }

    /// Attaches a counter series (rendered JSON) to the trace; ignored by a
    /// disabled tracer.
    pub fn attach(&mut self, name: &'static str, json: String) {
        if self.enabled {
            self.series.push((name, json));
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_index(&mut self, name: &'static str) -> u16 {
        // A handful of names: a linear scan beats hashing.
        if let Some(index) = self.names.iter().position(|n| *n == name) {
            return index as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = self.now_ns();
        self.begin_at(name, parent, op, start_ns)
    }

    fn begin_at(&mut self, name: &'static str, parent: SpanId, op: u64, start_ns: u64) -> SpanId {
        let name = self.name_index(name);
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span now. Closing [`NO_SPAN`] is a no-op.
    pub fn end(&mut self, id: SpanId) {
        if id == NO_SPAN || !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Records an already-timed span (start and end as [`Instant`]s).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let id = self.begin_at(name, parent, op, start_ns);
        self.spans[id as usize].end_ns = end_ns.max(start_ns);
        id
    }

    /// Durations (µs) of every span recorded under `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        let Some(index) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name as usize == index)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1_000.0)
            .collect()
    }

    /// Per-name totals and self times, in first-recorded order.
    pub fn summarise(&self) -> Vec<NameSummary> {
        let self_ns = self_times(&self.spans);
        let mut out: Vec<NameSummary> = self
            .names
            .iter()
            .map(|name| NameSummary {
                name,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            })
            .collect();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let summary = &mut out[span.name as usize];
            summary.count += 1;
            summary.total_ns += span.end_ns - span.start_ns;
            summary.self_ns += own;
        }
        out
    }

    /// Renders the trace as one JSON document: `header` (an already
    /// rendered JSON object, the provenance), the attached counter series,
    /// the name table, the per-name summary and the spans as
    /// `[name, start_ns, end_ns, parent, op]` rows (`parent` −1 for roots).
    pub fn to_json(&self, header: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        out.push_str("{\n\"provenance\": ");
        out.push_str(header);
        for (name, json) in &self.series {
            let _ = write!(out, ",\n\"{name}\": {json}");
        }
        out.push_str(",\n\"span_columns\": [\"name\", \"start_ns\", \"end_ns\", \"parent\", \"op\"],\n\"names\": [");
        for (i, name) in self.names.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\"", if i == 0 { "" } else { ", " });
        }
        out.push_str("],\n\"summary\": [");
        for (i, s) in self.summarise().iter().enumerate() {
            let _ = write!(
                out,
                "{}\n  {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.count,
                s.total_ns,
                s.self_ns
            );
        }
        out.push_str("\n],\n\"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "{}\n[{},{},{},{},{}]",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.op
            );
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// direct children cover (each child clipped to the parent, overlapping
/// children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_SPAN {
            let parent = &spans[span.parent as usize];
            let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
            let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
            if end > start {
                children[span.parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(NO_SPAN, 0, 100), // root
            span(0, 10, 30),       // child a
            span(0, 20, 50),       // child b overlaps a: union covers 10..50
            span(0, 90, 140),      // child c sticks out: clipped to 90..100
            span(1, 12, 18),       // grandchild: only its parent's concern
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 6, 30, 50, 6]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.begin("run", NO_SPAN, 0);
        assert_eq!(id, NO_SPAN);
        tracer.end(id);
        tracer.record("op", id, 1, Instant::now(), Instant::now());
        tracer.attach("series", "[1]".to_string());
        assert!(tracer.summarise().is_empty());
        assert!(!tracer.to_json("{}").contains("series"));
    }

    #[test]
    fn summary_groups_by_name_and_json_lists_every_span() {
        let mut tracer = Tracer::new(true);
        let run = tracer.begin("run", NO_SPAN, 0);
        let t0 = Instant::now();
        let op = tracer.record("op", run, 7, t0, t0 + std::time::Duration::from_micros(5));
        tracer.record("op", run, 8, t0, t0 + std::time::Duration::from_micros(7));
        tracer.end(run);
        assert_ne!(op, NO_SPAN);
        let summary = tracer.summarise();
        assert_eq!(summary.len(), 2);
        assert_eq!((summary[1].name, summary[1].count), ("op", 2));
        assert_eq!(summary[1].total_ns, 12_000);
        assert_eq!(tracer.durations_us("op"), vec![5.0, 7.0]);
        tracer.attach("per_second", "[3, 4]".to_string());
        let json = tracer.to_json("{}");
        assert!(json.contains("\"per_second\": [3, 4]"));
        assert_eq!(json.matches("\n[").count(), 3);
        assert!(json.contains("\"names\": [\"run\", \"op\"]"));
    }
}
