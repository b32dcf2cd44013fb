//! Server observability built on `ctjam-telemetry`.
//!
//! One [`ServeMetrics`] lives behind a mutex in the server's shared
//! state, and every tenant carries its own [`TenantMetrics`] (requests,
//! responses, load-shed and reload accounting, a latency histogram)
//! behind another. A connection thread publishes its counts once per
//! read and a batch worker once per flush, so neither takes a lock per
//! request. Each request's latency is recorded once, in its tenant's
//! histogram. The server's snapshot
//! ([`crate::server::PolicyServer::metrics_json`]) turns everything —
//! counters plus the batch-size / queue-depth / latency histograms with
//! their p50/p95/p99 summaries — into one `JsonValue` for export: the
//! global `latency_us` is the merge of the tenants' histograms, and the
//! tenants nest under a `"tenants"` object keyed by tenant id. Global
//! counters aggregate across tenants, so a single-tenant deployment
//! reads exactly like it did pre-tenancy.

use ctjam_telemetry::export::histogram_json;
use ctjam_telemetry::stats::{Counter, Histogram};
use ctjam_telemetry::JsonValue;
use std::ops::Deref;

/// The server's metrics as one JSON object: `global` (a
/// [`ServeMetrics::to_json`]) with its `latency_us` replaced by the
/// merge of every tenant's, and each tenant's
/// [`TenantMetrics::to_json`] under `"tenants" → "<id>"`. The server
/// records a request's latency only in its tenant's histogram; the
/// merge is exact and order-invariant, so count, mean, bins and
/// percentiles equal recording every latency globally as well. Each
/// tenant is dropped once read, so a tenant yielded behind its lock
/// guard stays locked for its own entry only.
pub(crate) fn snapshot<M: Deref<Target = TenantMetrics>>(
    mut global: JsonValue,
    tenants: impl IntoIterator<Item = (u32, M)>,
) -> JsonValue {
    let mut latency = ServeMetrics::latency_histogram();
    let mut tenant_json = JsonValue::object();
    for (id, t) in tenants {
        latency.merge(&t.latency_us);
        tenant_json.set(&id.to_string(), t.to_json());
    }
    global
        .set("latency_us", histogram_json(&latency))
        .set("tenants", tenant_json);
    global
}

/// Counters and distributions describing one server's lifetime.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    /// Connections accepted.
    pub connections: Counter,
    /// Connections turned away at the open-connection cap.
    pub connections_refused: Counter,
    /// Observe requests read off the wire.
    pub requests: Counter,
    /// Greedy actions served.
    pub responses: Counter,
    /// Pings answered.
    pub pings: Counter,
    /// Observe requests refused with `ServerBusy`.
    pub busy_rejections: Counter,
    /// Observe requests shed by the queue-delay SLO (`Overloaded`).
    pub slo_rejections: Counter,
    /// Observe requests addressed to a tenant id with no model.
    pub unknown_tenant: Counter,
    /// Observe requests refused for a wrong observation width.
    pub bad_observations: Counter,
    /// Connections dropped for protocol violations.
    pub wire_errors: Counter,
    /// Checkpoint hot-reloads applied.
    pub reloads_ok: Counter,
    /// Checkpoint hot-reloads rejected (corrupt or incompatible).
    pub reloads_rejected: Counter,
    /// Batches flushed by the batch workers.
    pub batches: Counter,
    /// Observe requests answered from a worker's decision memo.
    pub memo_hits: Counter,
    /// Observe requests the memo missed, answered by a forward.
    pub memo_misses: Counter,
    /// Requests per flushed batch (mean = batch occupancy).
    pub batch_size: Histogram,
    /// Queue depth observed after each flush.
    pub queue_depth: Histogram,
    /// Enqueue→reply latency per request, microseconds. The server
    /// records each latency in its tenant's histogram only and leaves
    /// this one empty: its snapshot
    /// ([`crate::server::PolicyServer::metrics_json`]) reports the merge
    /// of the tenants' histograms under this key.
    pub latency_us: Histogram,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Zeroed metrics. Histogram ranges cover a loopback deployment:
    /// batches up to 256 requests, queue depths to 1024, latencies to
    /// 50 ms at 50 µs resolution (percentile error is one bin width).
    pub fn new() -> Self {
        ServeMetrics {
            connections: Counter::new("connections"),
            connections_refused: Counter::new("connections_refused"),
            requests: Counter::new("requests"),
            responses: Counter::new("responses"),
            pings: Counter::new("pings"),
            busy_rejections: Counter::new("busy_rejections"),
            slo_rejections: Counter::new("slo_rejections"),
            unknown_tenant: Counter::new("unknown_tenant"),
            bad_observations: Counter::new("bad_observations"),
            wire_errors: Counter::new("wire_errors"),
            reloads_ok: Counter::new("reloads_ok"),
            reloads_rejected: Counter::new("reloads_rejected"),
            batches: Counter::new("batches"),
            memo_hits: Counter::new("memo_hits"),
            memo_misses: Counter::new("memo_misses"),
            batch_size: Histogram::new("batch_size", 0.0, 256.0, 256),
            queue_depth: Histogram::new("queue_depth", 0.0, 1024.0, 128),
            latency_us: ServeMetrics::latency_histogram(),
        }
    }

    /// An empty latency histogram: to 50 ms at 50 µs resolution, the
    /// global and every tenant's alike, so they merge.
    fn latency_histogram() -> Histogram {
        Histogram::new("latency_us", 0.0, 50_000.0, 1000)
    }

    /// Mean requests per flushed batch (NaN before the first flush).
    pub fn mean_batch_occupancy(&self) -> f64 {
        self.batch_size.mean()
    }

    /// Everything as one JSON object: a `counters` map plus one
    /// histogram object (buckets and p50/p95/p99) per distribution.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for c in [
            &self.connections,
            &self.connections_refused,
            &self.requests,
            &self.responses,
            &self.pings,
            &self.busy_rejections,
            &self.slo_rejections,
            &self.unknown_tenant,
            &self.bad_observations,
            &self.wire_errors,
            &self.reloads_ok,
            &self.reloads_rejected,
            &self.batches,
            &self.memo_hits,
            &self.memo_misses,
        ] {
            counters.set(c.name, c.value);
        }
        let mut obj = JsonValue::object();
        obj.set("counters", counters)
            .set("batch_size", histogram_json(&self.batch_size))
            .set("queue_depth", histogram_json(&self.queue_depth))
            .set("latency_us", histogram_json(&self.latency_us))
            .set("mean_batch_occupancy", self.mean_batch_occupancy());
        obj
    }
}

/// Per-tenant observability: one of these lives inside every tenant
/// entry, updated by connection threads (admission) and batch workers
/// (service). The server's snapshot nests [`TenantMetrics::to_json`]
/// under `"tenants" → "<id>"` and merges the latency histograms into
/// the global one.
#[derive(Debug, Clone)]
pub struct TenantMetrics {
    /// Observe requests addressed to this tenant.
    pub requests: Counter,
    /// Greedy actions served for this tenant.
    pub responses: Counter,
    /// Requests shed by the queue-delay SLO.
    pub slo_rejections: Counter,
    /// Requests refused for a wrong observation width.
    pub bad_observations: Counter,
    /// Checkpoint hot-reloads applied to this tenant.
    pub reloads_ok: Counter,
    /// Checkpoint hot-reloads rejected for this tenant.
    pub reloads_rejected: Counter,
    /// Requests answered from a worker's decision memo.
    pub memo_hits: Counter,
    /// Requests the memo missed, answered by a forward.
    pub memo_misses: Counter,
    /// Enqueue→reply latency per request, microseconds.
    pub latency_us: Histogram,
}

impl Default for TenantMetrics {
    fn default() -> Self {
        TenantMetrics::new()
    }
}

impl TenantMetrics {
    /// Zeroed per-tenant metrics (latency range as [`ServeMetrics`]).
    pub fn new() -> Self {
        TenantMetrics {
            requests: Counter::new("requests"),
            responses: Counter::new("responses"),
            slo_rejections: Counter::new("slo_rejections"),
            bad_observations: Counter::new("bad_observations"),
            reloads_ok: Counter::new("reloads_ok"),
            reloads_rejected: Counter::new("reloads_rejected"),
            memo_hits: Counter::new("memo_hits"),
            memo_misses: Counter::new("memo_misses"),
            latency_us: ServeMetrics::latency_histogram(),
        }
    }

    /// The tenant's counters and latency histogram as one JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for c in [
            &self.requests,
            &self.responses,
            &self.slo_rejections,
            &self.bad_observations,
            &self.reloads_ok,
            &self.reloads_rejected,
            &self.memo_hits,
            &self.memo_misses,
        ] {
            counters.set(c.name, c.value);
        }
        let mut obj = JsonValue::object();
        obj.set("counters", counters)
            .set("latency_us", histogram_json(&self.latency_us));
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_snapshot_carries_counters_and_latency() {
        let mut t = TenantMetrics::new();
        t.requests.add(5);
        t.responses.add(4);
        t.slo_rejections.incr();
        t.memo_hits.add(3);
        t.memo_misses.incr();
        t.latency_us.record(120.0);
        let json = t.to_json();
        let counters = json.get("counters").expect("counters");
        assert_eq!(counters.get("requests"), Some(&JsonValue::Num(5.0)));
        assert_eq!(counters.get("slo_rejections"), Some(&JsonValue::Num(1.0)));
        assert_eq!(counters.get("memo_hits"), Some(&JsonValue::Num(3.0)));
        assert_eq!(counters.get("memo_misses"), Some(&JsonValue::Num(1.0)));
        assert!(json.get("latency_us").and_then(|l| l.get("p99")).is_some());
    }

    #[test]
    fn the_snapshot_latency_is_the_merge_of_the_tenants() {
        // The server records each latency once, in its tenant's
        // histogram. The snapshot's global histogram must read exactly
        // as if every latency had also been recorded globally.
        let (mut a, mut b) = (TenantMetrics::new(), TenantMetrics::new());
        let mut recorded_twice = ServeMetrics::new();
        for (i, us) in [120.0, 80.5, 4_000.25, 60_000.0, 3.0, 0.1, 49_999.9]
            .into_iter()
            .enumerate()
        {
            let tenant = if i % 3 == 0 { &mut a } else { &mut b };
            tenant.latency_us.record(us);
            recorded_twice.latency_us.record(us);
        }
        let mut global = ServeMetrics::new();
        global.responses.add(7);
        let expected = histogram_json(&recorded_twice.latency_us);
        for json in [
            snapshot(global.to_json(), [(0, &a), (7, &b)]),
            snapshot(global.to_json(), [(7, &b), (0, &a)]),
        ] {
            assert_eq!(json.get("latency_us"), Some(&expected));
            let counters = json.get("counters").expect("counters");
            assert_eq!(counters.get("responses"), Some(&JsonValue::Num(7.0)));
            let tenant = json.get("tenants").and_then(|t| t.get("7"));
            assert_eq!(tenant, Some(&b.to_json()));
        }
    }

    #[test]
    fn snapshot_carries_counters_and_percentiles() {
        let mut m = ServeMetrics::new();
        m.requests.add(10);
        m.responses.add(9);
        m.busy_rejections.incr();
        m.memo_hits.add(7);
        m.memo_misses.add(2);
        for size in [4.0, 8.0, 8.0] {
            m.batch_size.record(size);
            m.batches.incr();
        }
        for us in [100.0, 120.0, 5_000.0] {
            m.latency_us.record(us);
        }
        let json = m.to_json();
        let counters = json.get("counters").expect("counters");
        assert_eq!(counters.get("requests"), Some(&JsonValue::Num(10.0)));
        assert_eq!(counters.get("busy_rejections"), Some(&JsonValue::Num(1.0)));
        assert_eq!(counters.get("memo_hits"), Some(&JsonValue::Num(7.0)));
        assert_eq!(counters.get("memo_misses"), Some(&JsonValue::Num(2.0)));
        let latency = json.get("latency_us").expect("latency_us");
        assert!(latency.get("p50").is_some());
        assert!(latency.get("p99").is_some());
        let occupancy = m.mean_batch_occupancy();
        assert!((occupancy - 20.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            json.get("mean_batch_occupancy"),
            Some(&JsonValue::Num(occupancy))
        );
    }
}
