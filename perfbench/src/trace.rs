//! Spans recorded around the benchmark's calls into each layer.

use std::time::Instant;

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    pub seconds: f64,
}

/// Spans of one pipeline pass, kept in memory. A disabled recorder runs
/// the closures and records nothing.
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Run `f` and, when recording, time it under `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        self.spans.push(Span {
            name,
            seconds: t.elapsed().as_secs_f64(),
        });
        out
    }

    /// Total seconds recorded under `name`, if any span has it.
    pub fn total(&self, name: &str) -> Option<f64> {
        let mut hit = None;
        for s in self.spans.iter().filter(|s| s.name == name) {
            *hit.get_or_insert(0.0) += s.seconds;
        }
        hit
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Median over passes of the per-pass total of `name`, across the passes
/// that recorded it.
pub fn median_span(passes: &[Spans], name: &str) -> Option<f64> {
    let v: Vec<f64> = passes.iter().filter_map(|p| p.total(name)).collect();
    (!v.is_empty()).then(|| median(&v))
}
