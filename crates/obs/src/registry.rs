//! Named-instrument registry.
//!
//! An owner (a replica, a network runtime) registers counters, gauges, and
//! histograms once at construction, keeps the returned copyable handles, and
//! updates through them on the hot path — an update is one `Vec` index plus
//! an add. `snapshot_json` renders all instruments in a stable form:
//! instruments are sorted by name, histogram sections report count / min /
//! max / mean / p50 / p95 / p99 / p99.9 (values in the unit recorded,
//! nanoseconds by convention).

use crate::hist::Histogram;
use crate::json::ObjectWriter;

/// Handle to a registered monotonic counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge (set-to-value semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// A set of named instruments owned by one component.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, u64)>,
    hists: Vec<(&'static str, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers (or looks up) the counter `name`.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or looks up) the gauge `name`.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| *n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name, 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or looks up) the histogram `name` at default resolution.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| *n == name) {
            return HistId(i);
        }
        self.hists.push((name, Histogram::new()));
        HistId(self.hists.len() - 1)
    }

    /// Increments a counter by 1.
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0].1 += 1;
    }

    /// Increments a counter by `n`.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Sets a gauge to `v`.
    pub fn set_gauge(&mut self, id: GaugeId, v: u64) {
        self.gauges[id.0].1 = v;
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0].1
    }

    /// Read-only counter lookup by name (harness-side aggregation over
    /// registries it did not build).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Records a sample into a histogram.
    pub fn record(&mut self, id: HistId, v: u64) {
        self.hists[id.0].1.record(v);
    }

    /// Read access to a histogram.
    pub fn hist(&self, id: HistId) -> &Histogram {
        &self.hists[id.0].1
    }

    /// Renders every instrument as one stable JSON object:
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}` with
    /// names sorted within each section.
    pub fn snapshot_json(&self) -> String {
        let mut counters: Vec<_> = self.counters.clone();
        counters.sort_by_key(|(n, _)| *n);
        let mut cw = ObjectWriter::new();
        for (n, v) in &counters {
            cw.field_u64(n, *v);
        }

        let mut gauges: Vec<_> = self.gauges.clone();
        gauges.sort_by_key(|(n, _)| *n);
        let mut gw = ObjectWriter::new();
        for (n, v) in &gauges {
            gw.field_u64(n, *v);
        }

        let mut hists: Vec<_> = self.hists.iter().map(|(n, h)| (*n, h)).collect();
        hists.sort_by_key(|(n, _)| *n);
        let mut hw = ObjectWriter::new();
        for (n, h) in &hists {
            hw.field_raw(n, &histogram_json(h));
        }

        let mut w = ObjectWriter::new();
        w.field_raw("counters", &cw.finish())
            .field_raw("gauges", &gw.finish())
            .field_raw("histograms", &hw.finish());
        w.finish()
    }
}

/// Standard JSON summary of one histogram (count / min / max / mean /
/// p50 / p95 / p99 / p99.9).
pub fn histogram_json(h: &Histogram) -> String {
    let mut w = ObjectWriter::new();
    w.field_u64("count", h.count())
        .field_u64("min", h.min())
        .field_u64("max", h.max())
        .field_f64("mean", h.mean())
        .field_u64("p50", h.value_at_quantile(0.50))
        .field_u64("p95", h.value_at_quantile(0.95))
        .field_u64("p99", h.value_at_quantile(0.99))
        .field_u64("p999", h.value_at_quantile(0.999));
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_update_and_snapshot_is_sorted() {
        let mut r = Registry::new();
        let b = r.counter("b.count");
        let a = r.counter("a.count");
        let g = r.gauge("occupancy");
        let h = r.histogram("lat");
        r.inc(b);
        r.add(a, 5);
        r.set_gauge(g, 9);
        r.record(h, 1000);
        assert_eq!(r.counter_value(a), 5);
        assert_eq!(r.gauge_value(g), 9);
        assert_eq!(r.hist(h).count(), 1);
        let json = r.snapshot_json();
        let a_pos = json.find("a.count").unwrap();
        let b_pos = json.find("b.count").unwrap();
        assert!(a_pos < b_pos, "counters must be name-sorted: {json}");
        assert!(json.contains(r#""occupancy":9"#));
        assert!(json.contains(r#""p99":1000"#));
    }

    #[test]
    fn reregistering_a_name_returns_the_same_handle() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a);
        r.inc(b);
        assert_eq!(r.counter_value(a), 2);
    }
}
