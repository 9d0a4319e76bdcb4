//! Per-tenant accounting and scheduling identity.
//!
//! A **tenant** is the unit of QoS isolation: every connection runs under
//! one (declared by [`crate::proto::Request::Hello`], or the default tenant
//! for clients that never send it), and every request is accounted to its
//! connection's tenant — ops, bytes in/out, errors, and end-to-end latency
//! under `svc.tenant.<name>.*` in the shared metrics registry. The tenant's
//! weight drives the worker pool's weighted-fair scheduler, and its numeric
//! id tags deferred dedup work so the DWQ can drain fairly too.

use denova_telemetry::{Counter, Histogram, MetricsRegistry};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Name of the tenant connections run under until they say otherwise.
pub const DEFAULT_TENANT: &str = "default";

/// Named tenants one registry interns at most. Each holds five metrics for
/// the server's lifetime, so the cap bounds memory and metric cardinality
/// whatever names clients send in their hellos.
pub const MAX_NAMED_TENANTS: usize = 64;

/// The one tenant every name past [`MAX_NAMED_TENANTS`] is accounted to.
pub const OVERFLOW_TENANT: &str = "other";

/// One tenant: interned name, scheduling weight, and its accounting handles.
pub struct Tenant {
    name: Arc<str>,
    id: u32,
    weight: AtomicU32,
    ops: Counter,
    errors: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    request_ns: Histogram,
}

impl Tenant {
    fn new(metrics: &MetricsRegistry, name: &str, id: u32, weight: u32) -> Tenant {
        Tenant {
            name: name.into(),
            id,
            weight: AtomicU32::new(weight.max(1)),
            ops: metrics.counter(&format!("svc.tenant.{name}.ops")),
            errors: metrics.counter(&format!("svc.tenant.{name}.errors")),
            bytes_in: metrics.counter(&format!("svc.tenant.{name}.bytes_in")),
            bytes_out: metrics.counter(&format!("svc.tenant.{name}.bytes_out")),
            request_ns: metrics.histogram(&format!("svc.tenant.{name}.request.ns")),
        }
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Small dense id, unique within one registry (default tenant is 0).
    /// Used as the DWQ's DRAM-only fairness tag.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Scheduling weight (≥ 1): how many jobs the fair scheduler pops from
    /// this tenant's lane per round-robin visit.
    pub fn weight(&self) -> u32 {
        self.weight.load(Ordering::Relaxed).max(1)
    }

    /// Change the scheduling weight (clamped to ≥ 1). Takes effect on the
    /// scheduler's next visit — no queued work moves.
    pub fn set_weight(&self, weight: u32) {
        self.weight.store(weight.max(1), Ordering::Relaxed);
    }

    /// Account one finished request.
    pub fn record(&self, bytes_in: u64, bytes_out: u64, elapsed_ns: u64, ok: bool) {
        self.ops.inc();
        if !ok {
            self.errors.inc();
        }
        self.bytes_in.add(bytes_in);
        self.bytes_out.add(bytes_out);
        self.request_ns.record(elapsed_ns);
    }
}

/// Interns tenants by name so the whole server shares one [`Tenant`] (and
/// one set of metric handles) per name.
pub struct TenantRegistry {
    metrics: MetricsRegistry,
    inner: RwLock<HashMap<Arc<str>, Arc<Tenant>>>,
    default: Arc<Tenant>,
}

impl TenantRegistry {
    /// Create a registry with the default tenant (id 0, weight 1) in place.
    pub fn new(metrics: &MetricsRegistry) -> TenantRegistry {
        let default = Arc::new(Tenant::new(metrics, DEFAULT_TENANT, 0, 1));
        let mut map = HashMap::new();
        map.insert(default.name.clone(), default.clone());
        TenantRegistry {
            metrics: metrics.clone(),
            inner: RwLock::new(map),
            default,
        }
    }

    /// The tenant connections run under until they send a hello.
    pub fn default_tenant(&self) -> &Arc<Tenant> {
        &self.default
    }

    /// Intern `name` (empty string means the default tenant).
    pub fn get(&self, name: &str) -> Arc<Tenant> {
        self.get_with_weight(name, 0)
    }

    /// Intern `name`, setting its weight when `weight > 0` (0 keeps the
    /// current weight — new tenants then start at 1). Once
    /// [`MAX_NAMED_TENANTS`] names are interned, a new name gets the shared
    /// [`OVERFLOW_TENANT`], whose weight it cannot set.
    pub fn get_with_weight(&self, name: &str, weight: u32) -> Arc<Tenant> {
        if name.is_empty() || name == DEFAULT_TENANT {
            if weight > 0 {
                self.default.set_weight(weight);
            }
            return self.default.clone();
        }
        if let Some(t) = self.inner.read().get(name) {
            if weight > 0 {
                t.set_weight(weight);
            }
            return t.clone();
        }
        let mut map = self.inner.write();
        if let Some(t) = map.get(name) {
            if weight > 0 {
                t.set_weight(weight);
            }
            return t.clone();
        }
        let named = map.len() - 1 - usize::from(map.contains_key(OVERFLOW_TENANT));
        let (name, weight) = if named >= MAX_NAMED_TENANTS && name != OVERFLOW_TENANT {
            if let Some(t) = map.get(OVERFLOW_TENANT) {
                return t.clone();
            }
            (OVERFLOW_TENANT, 0)
        } else {
            (name, weight)
        };
        let id = map.len() as u32;
        let t = Arc::new(Tenant::new(&self.metrics, name, id, weight.max(1)));
        map.insert(t.name.clone(), t.clone());
        t
    }

    /// Every interned tenant, default first, then by id.
    pub fn all(&self) -> Vec<Arc<Tenant>> {
        let mut v: Vec<_> = self.inner.read().values().cloned().collect();
        v.sort_by_key(|t| t.id());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_one_tenant_per_name() {
        let metrics = MetricsRegistry::new();
        let reg = TenantRegistry::new(&metrics);
        let a1 = reg.get("acme");
        let a2 = reg.get("acme");
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_ne!(a1.id(), reg.default_tenant().id());
        assert!(Arc::ptr_eq(&reg.get(""), reg.default_tenant()));
        assert!(Arc::ptr_eq(&reg.get("default"), reg.default_tenant()));
    }

    #[test]
    fn weights_update_and_clamp() {
        let metrics = MetricsRegistry::new();
        let reg = TenantRegistry::new(&metrics);
        let t = reg.get_with_weight("big", 4);
        assert_eq!(t.weight(), 4);
        // weight 0 keeps the current value
        assert_eq!(reg.get_with_weight("big", 0).weight(), 4);
        t.set_weight(0);
        assert_eq!(t.weight(), 1);
    }

    #[test]
    fn accounting_lands_in_the_registry() {
        let metrics = MetricsRegistry::new();
        let reg = TenantRegistry::new(&metrics);
        let t = reg.get("acme");
        t.record(100, 8, 5_000, true);
        t.record(50, 0, 7_000, false);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("svc.tenant.acme.ops"), Some(2));
        assert_eq!(snap.counter("svc.tenant.acme.errors"), Some(1));
        assert_eq!(snap.counter("svc.tenant.acme.bytes_in"), Some(150));
        assert_eq!(snap.counter("svc.tenant.acme.bytes_out"), Some(8));
        let h = snap.histogram("svc.tenant.acme.request.ns").unwrap();
        assert_eq!(h.count, 2);
    }

    #[test]
    fn named_tenants_are_capped_and_overflow_shares_one_tenant() {
        let metrics = MetricsRegistry::new();
        let reg = TenantRegistry::new(&metrics);
        for i in 0..10_000 {
            reg.get_with_weight(&format!("t{i}"), 3);
        }
        // The default tenant, the cap's worth of names, and the overflow.
        assert_eq!(reg.all().len(), MAX_NAMED_TENANTS + 2);
        let snap = metrics.snapshot();
        let tenant_metrics = snap
            .counters
            .iter()
            .map(|(n, _)| n)
            .chain(snap.histograms.iter().map(|(n, _)| n))
            .filter(|n| n.starts_with("svc.tenant."))
            .count();
        assert_eq!(tenant_metrics, (MAX_NAMED_TENANTS + 2) * 5);
        assert_eq!(reg.get("t0").name(), "t0");
        let late = reg.get("t9999");
        assert_eq!(late.name(), OVERFLOW_TENANT);
        assert!(Arc::ptr_eq(&late, &reg.get("t5000")));
        assert_eq!(
            late.weight(),
            1,
            "an overflowing name set the shared weight"
        );
        assert!(Arc::ptr_eq(&late, &reg.get(OVERFLOW_TENANT)));
    }
}
