//! The multi-tenant scenario: one *tenant* is an independent interpreter
//! stack (one `Hummingbird` per subject app) attached to a process-wide
//! [`SharedCache`]. N tenants model N app instances of the same deployment
//! running on N threads: the first instance to call a method pays the
//! static check and publishes the derivation; every other instance adopts
//! it after structural validation, without running `check_sig`.
//!
//! Used by the multi-tenant, snapshot and fleet warm-boot tests.

use crate::apps::all_apps;
use crate::{build_app_shared, build_app_with, run_workload};
use hummingbird::{CacheSnapshot, FleetSyncReport, Hummingbird, Mode, SharedCache};
use std::path::Path;
use std::sync::Arc;

/// What one tenant's six apps did, summed over their engine statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct TenantRun {
    pub tenant: usize,
    /// Static checks this tenant actually ran (misses in both tiers).
    pub checks_performed: u64,
    /// First calls answered by adopting another tenant's derivation.
    pub shared_hits: u64,
    /// Steady-state hot-tier hits.
    pub cache_hits: u64,
    /// Calls intercepted by the engine hook.
    pub intercepted_calls: u64,
}

impl TenantRun {
    /// Fraction of this tenant's first-call checks satisfied by the shared
    /// tier instead of running the checker. 1.0 for a fully warm tenant.
    pub fn warm_hit_rate(&self) -> f64 {
        let first_calls = self.shared_hits + self.checks_performed;
        if first_calls == 0 {
            return 0.0;
        }
        self.shared_hits as f64 / first_calls as f64
    }

    /// Folds one app's engine statistics into this tenant's totals.
    fn absorb(&mut self, hb: &Hummingbird) {
        let s = hb.stats();
        self.checks_performed += s.checks_performed;
        self.shared_hits += s.shared_hits;
        self.cache_hits += s.cache_hits;
        self.intercepted_calls += s.intercepted_calls;
    }
}

/// Boots all six subject apps as one tenant against `shared` and serves
/// `iters` workload iterations per app. Aggregates engine statistics
/// across the apps.
pub fn run_tenant(tenant: usize, shared: &Arc<SharedCache>, iters: usize) -> TenantRun {
    let mut out = TenantRun {
        tenant,
        ..TenantRun::default()
    };
    let specs = all_apps();
    let mut apps: Vec<_> = specs
        .iter()
        .map(|spec| build_app_shared(spec, Mode::Full, Some(shared.clone())))
        .collect();
    for (spec, hb) in specs.iter().zip(apps.iter_mut()) {
        run_workload(spec, hb, iters);
    }
    for hb in &apps {
        out.absorb(hb);
    }
    out
}

/// Boots all six subject apps as one *fleet-attached* tenant: the apps
/// share one per-tenant tier warmed over the `hb-fleetd` socket at
/// `socket` before any code loads, and locally derived entries are
/// published back with a final [`hummingbird::Hummingbird::fleet_sync`].
/// Only the first app carries the fleet session — all six share its
/// tier, so one boot fetch warms the whole tenant and one sync drains
/// every app's publications.
///
/// Returns the run together with the final sync report, or `None` when
/// the daemon was unreachable (the tenant still runs, degraded to local
/// checking — that degradation is the soundness story, not an error).
pub fn run_tenant_fleet(
    tenant: usize,
    socket: &Path,
    iters: usize,
) -> (TenantRun, Option<FleetSyncReport>) {
    let mut out = TenantRun {
        tenant,
        ..TenantRun::default()
    };
    let shared = Arc::new(SharedCache::new());
    let specs = all_apps();
    let mut apps: Vec<Hummingbird> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut builder = Hummingbird::builder()
                .mode(Mode::Full)
                .shared_cache(shared.clone());
            if i == 0 {
                builder = builder.fleet_socket(socket);
            }
            build_app_with(spec, builder)
        })
        .collect();
    for (spec, hb) in specs.iter().zip(apps.iter_mut()) {
        run_workload(spec, hb, iters);
    }
    let report = apps[0].fleet_sync().ok();
    for hb in &apps {
        out.absorb(hb);
    }
    (out, report)
}

/// Boots one tenant against a tier rebuilt from `snapshot` — the
/// fresh-process warm boot. The tenant's [`TenantRun::warm_hit_rate`]
/// reports how many of its first calls were resolved by adoption from
/// the snapshot instead of running `check_sig`.
///
/// # Panics
///
/// Panics if the snapshot fails to load (malformed artifact — a harness
/// defect, not a runtime condition).
pub fn run_tenant_from_snapshot(
    tenant: usize,
    snapshot: &CacheSnapshot,
    iters: usize,
) -> TenantRun {
    let shared = Arc::new(SharedCache::new());
    shared
        .load_snapshot(snapshot)
        .expect("fleet snapshot must load");
    run_tenant(tenant, &shared, iters)
}
