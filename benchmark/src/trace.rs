//! In-memory spans recorded by the benchmark around its own calls into each layer, written
//! out once the traced run is over. A span's self time is its duration minus the part its
//! direct children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The round this span belongs to — the identifier spans of one round share.
    pub round: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    round: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the round identifier stamped on spans opened from now on.
    pub fn set_round(&mut self, round: u32) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`, child of whatever span is open.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            round: self.round,
        });
        self.stack.push(id);
        let value = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now();
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: duration minus the durations of its direct children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Per round, the summed self time of the spans called `name` (rounds without such a
    /// span are absent).
    pub fn self_ns_per_round(&self, name: &str) -> Vec<u64> {
        let own = self.self_times();
        let mut rounds: Vec<(u32, u64)> = Vec::new();
        for (span, &ns) in self.spans.iter().zip(&own) {
            if span.name != name {
                continue;
            }
            match rounds.last_mut() {
                Some((round, total)) if *round == span.round => *total += ns,
                _ => rounds.push((span.round, ns)),
            }
        }
        rounds.into_iter().map(|(_, ns)| ns).collect()
    }

    /// Durations of the spans called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, round}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            // Span names are identifiers chosen in this crate: nothing to escape.
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}{}",
                span.name, span.start_ns, span.end_ns, parent, span.round, comma
            )
            .expect("writing to a String");
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = vec![
            Span {
                name: "round",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                round: 0,
            },
            Span {
                name: "fill",
                start_ns: 10,
                end_ns: 50,
                parent: Some(0),
                round: 0,
            },
            Span {
                name: "lookup",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                round: 0,
            },
            Span {
                name: "fill",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                round: 0,
            },
            Span {
                name: "fill",
                start_ns: 100,
                end_ns: 105,
                parent: None,
                round: 1,
            },
        ];
        let tracer = Tracer {
            spans,
            ..Tracer::default()
        };
        assert_eq!(tracer.self_times(), vec![30, 30, 10, 30, 5]);
        assert_eq!(tracer.self_ns_per_round("fill"), vec![60, 5]);
        assert_eq!(tracer.durations("fill"), vec![40, 30, 5]);
        // Self times of a tree sum to its root's duration.
        let round0: u64 = tracer.self_times()[..4].iter().sum();
        assert_eq!(round0, 100);
    }

    #[test]
    fn scopes_nest_and_serialise() {
        let mut tracer = Tracer::default();
        tracer.set_round(3);
        let value = tracer.scope("outer", |t| t.scope("inner", |_| 7));
        assert_eq!(value, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = tracer.to_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"round\":3"));
        assert!(json.trim_end().ends_with(']'));
    }
}
