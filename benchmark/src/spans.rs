//! Outside-in span tracer. The benchmark records a span around each
//! call it makes into a crate's public API; nothing inside the crates
//! is instrumented (in-program spans are ROADMAP item 5). Spans stay in
//! memory and are written out when the traced run ends.
//!
//! A span's *self time* is its duration minus its direct children's.
//! Self times partition the root spans, so their sum over all spans
//! equals the total root duration; comparing that with the separately
//! measured wall time of the traced region shows how much ran outside
//! any span.

use serde::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// The crate a span's callee belongs to. `Bench` is the benchmark's own
/// code: stage frames, input generation and output checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Bench,
    Flash,
    Ecc,
    Ftl,
    Core,
    Workload,
    Difs,
    Fleet,
    Exec,
    Obs,
    Health,
    Telemetry,
    Sustain,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Flash => "flash",
            Layer::Ecc => "ecc",
            Layer::Ftl => "ftl",
            Layer::Core => "core",
            Layer::Workload => "workload",
            Layer::Difs => "difs",
            Layer::Fleet => "fleet",
            Layer::Exec => "exec",
            Layer::Obs => "obs",
            Layer::Health => "health",
            Layer::Telemetry => "telemetry",
            Layer::Sustain => "sustain",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// At most this many spans are written out in full; the per-name
/// aggregates always cover every span recorded.
const MAX_DUMPED_SPANS: usize = 5_000;

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing: each call site costs one branch.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, layer: Layer) -> SpanId {
        if !self.enabled {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        SpanId(id)
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Span around one call that itself opens no spans.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let r = f();
        self.end(id);
        r
    }

    #[cfg(test)]
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Summed duration in seconds of every span called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Σ self time over all spans, seconds (= Σ root durations).
    pub fn covered_s(&self) -> f64 {
        self.self_times().iter().sum::<u64>() as f64 / 1e9
    }

    /// Self seconds per layer.
    pub fn self_by_layer(&self) -> BTreeMap<Layer, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// The trace as JSON: every span (up to [`MAX_DUMPED_SPANS`], in
    /// start order) with `name`, `layer`, `workload`, `start_ns`,
    /// `end_ns`, `parent`, plus per-name aggregates over all of them.
    pub fn to_json(&self, workload: &str) -> Value {
        let own = self.self_times();
        let mut by_name: BTreeMap<(&str, &str), (u64, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let e = by_name.entry((s.layer.name(), s.name)).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += own;
        }
        let spans = self
            .spans
            .iter()
            .take(MAX_DUMPED_SPANS)
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("layer".into(), Value::Str(s.layer.name().into())),
                    ("workload".into(), Value::Str(workload.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        if s.parent == NO_PARENT {
                            Value::Null
                        } else {
                            Value::U64(u64::from(s.parent))
                        },
                    ),
                ])
            })
            .collect();
        let by_name = by_name
            .into_iter()
            .map(|((layer, name), (count, total, own))| {
                Value::Object(vec![
                    ("layer".into(), Value::Str(layer.into())),
                    ("name".into(), Value::Str(name.into())),
                    ("count".into(), Value::U64(count)),
                    ("total_ns".into(), Value::U64(total)),
                    ("self_ns".into(), Value::U64(own)),
                ])
            })
            .collect();
        let by_layer = self
            .self_by_layer()
            .into_iter()
            .map(|(layer, s)| (layer.name().to_string(), Value::F64(s)))
            .collect();
        Value::Object(vec![
            ("recorded".into(), Value::U64(self.spans.len() as u64)),
            (
                "dumped".into(),
                Value::U64(self.spans.len().min(MAX_DUMPED_SPANS) as u64),
            ),
            ("self_s_by_layer".into(), Value::Object(by_layer)),
            ("by_name".into(), Value::Array(by_name)),
            ("spans".into(), Value::Array(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::on();
        let root = tr.begin("stage", Layer::Bench);
        tr.call("inner", Layer::Ftl, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.end(root);
        let by = tr.self_by_layer();
        assert!(by[&Layer::Ftl] >= 0.005);
        let total = tr.durations_ns("stage")[0] / 1e9;
        assert!((tr.covered_s() - total).abs() < 1e-9);
        assert!(by[&Layer::Bench] < total - 0.004);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.begin("x", Layer::Bench);
        tr.end(id);
        assert_eq!(tr.span_count(), 0);
    }
}
