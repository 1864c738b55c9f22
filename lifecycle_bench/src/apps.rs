//! Tenants of the six subject apps: boot (plain or with per-step spans),
//! request scripts, and the state digest that compares a `Mode::Full`
//! app with its `Mode::Original` reference.

use crate::stat::ns;
use crate::Tally;
use hb_apps::AppSpec;
use hummingbird::{EngineStats, ExecTier, Hummingbird, HummingbirdBuilder, Mode};
use std::time::Instant;

/// Nanoseconds spent in each step of booting apps, summed over the apps
/// of a tenant. The steps mirror `hb_apps::build_app_with`.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootSpans {
    /// `HummingbirdBuilder::build` (interpreter, RDL, engine, core library).
    pub build: f64,
    /// `hb_rails::install_rails`.
    pub rails: f64,
    /// App source files.
    pub sources: f64,
    /// App annotation files.
    pub annotations: f64,
    /// Schema and workload-driver files.
    pub driver: f64,
    /// The app's seed expression.
    pub seed: f64,
    /// The whole boot, spans and the gaps between them.
    pub total: f64,
}

impl BootSpans {
    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("build", self.build),
            ("rails", self.rails),
            ("load_sources", self.sources),
            ("load_annotations", self.annotations),
            ("load_driver", self.driver),
            ("seed", self.seed),
        ]
    }

    /// Boot time the spans do not cover.
    pub fn residual(&self) -> f64 {
        self.total - self.named().iter().map(|(_, v)| v).sum::<f64>()
    }
}

pub fn builder(mode: Mode, tier: ExecTier) -> HummingbirdBuilder {
    Hummingbird::builder().mode(mode).exec_tier(tier)
}

/// A booted tenant: boot and first-request nanoseconds, and its apps as
/// `(spec index, system)` in boot order.
pub struct Tenant {
    pub boot: f64,
    pub first: f64,
    pub apps: Vec<(usize, Hummingbird)>,
}

impl Tenant {
    pub fn total(&self) -> f64 {
        self.boot + self.first
    }

    /// Engine statistics of every app, summed field by field where the
    /// benchmark reads them.
    pub fn stats(&self) -> EngineStats {
        let mut sum = EngineStats::default();
        for (_, hb) in &self.apps {
            let s = hb.stats();
            sum.check_ns += s.check_ns;
            sum.checks_performed += s.checks_performed;
            sum.checks_failed += s.checks_failed;
            sum.shared_hits += s.shared_hits;
            sum.shared_adopt_ns += s.shared_adopt_ns;
        }
        sum
    }
}

/// Boots the apps of `specs` in `order` as one tenant — the app at
/// position `n` of the order from `make(n)` — then serves one request
/// script iteration per app. `spans` selects the traced boot; otherwise
/// each app boots through `hb_apps::build_app_with`.
pub fn tenant(
    specs: &[AppSpec],
    order: &[usize],
    make: impl Fn(usize) -> HummingbirdBuilder,
    mut spans: Option<&mut BootSpans>,
    tally: &mut Tally,
) -> Tenant {
    let t0 = Instant::now();
    let mut apps: Vec<(usize, Hummingbird)> = Vec::with_capacity(order.len());
    for (n, &i) in order.iter().enumerate() {
        let hb = match spans.as_deref_mut() {
            Some(spans) => boot_app_traced(&specs[i], make(n), spans),
            None => hb_apps::build_app_with(&specs[i], make(n)),
        };
        apps.push((i, hb));
    }
    let boot = ns(t0.elapsed());
    let t1 = Instant::now();
    let served: Vec<Result<(), String>> = apps
        .iter_mut()
        .map(|(i, hb)| serve(&specs[*i], hb, 1))
        .collect();
    let first = ns(t1.elapsed());
    for r in served {
        tally.record(r);
    }
    Tenant { boot, first, apps }
}

/// State digests of every app of a tenant, in boot order, with each
/// app's diagnostics check folded in (a blamed app yields an error). The
/// tenant is dropped here, so the next boot starts from the same heap.
pub fn digests(specs: &[AppSpec], t: Tenant) -> Vec<(usize, Result<String, String>)> {
    t.apps
        .into_iter()
        .map(|(i, mut hb)| {
            let d =
                no_diagnostics(specs[i].name, &hb).and_then(|()| state_digest(&specs[i], &mut hb));
            (i, d)
        })
        .collect()
}

/// Checks a Full tenant's digests against its Original reference booted
/// in the same order.
pub fn compare(
    specs: &[AppSpec],
    full: Vec<(usize, Result<String, String>)>,
    orig: Vec<(usize, Result<String, String>)>,
    tally: &mut Tally,
) {
    for ((i, f), (j, o)) in full.into_iter().zip(orig) {
        let name = specs[i].name;
        tally.record(match (f, o) {
            (Err(e), _) | (_, Err(e)) => Err(e),
            _ if i != j => Err(format!("{name}: tenants booted in different orders")),
            (Ok(f), Ok(o)) if f == o => Ok(()),
            _ => Err(format!("{name}: Full state differs from Original")),
        });
    }
}

fn load(hb: &mut Hummingbird, spec: &AppSpec, files: &[(&str, &str)]) {
    for (name, src) in files {
        hb.load_file(name, src)
            .unwrap_or_else(|e| panic!("{}: {name} failed to load: {e}", spec.name));
    }
}

/// `hb_apps::build_app_with`, step by step, adding each step's time to
/// `spans`. Used by the traced run; the untraced run calls the library
/// function itself, and the report checks the two agree.
pub fn boot_app_traced(
    spec: &AppSpec,
    builder: HummingbirdBuilder,
    spans: &mut BootSpans,
) -> Hummingbird {
    let t0 = Instant::now();
    let mode = builder.configured_mode();
    let mut hb = builder.build();
    let t1 = Instant::now();
    spans.build += ns(t1 - t0);
    if spec.rails {
        hb_rails::install_rails(&mut hb, mode != Mode::Original)
            .unwrap_or_else(|e| panic!("{}: rails install failed: {e}", spec.name));
        spans.rails += ns(t1.elapsed());
    }
    if spec.needs_datafile {
        hb_apps::datafile::install_datafile(&mut hb.interp);
    }
    let t = Instant::now();
    load(&mut hb, spec, spec.schema);
    spans.driver += ns(t.elapsed());
    let t = Instant::now();
    load(&mut hb, spec, spec.sources);
    spans.sources += ns(t.elapsed());
    if mode != Mode::Original {
        let t = Instant::now();
        load(&mut hb, spec, spec.annotations);
        spans.annotations += ns(t.elapsed());
    }
    let t = Instant::now();
    load(&mut hb, spec, spec.driver);
    spans.driver += ns(t.elapsed());
    if !spec.seed.is_empty() {
        let t = Instant::now();
        hb.eval(spec.seed)
            .unwrap_or_else(|e| panic!("{}: seed failed: {e}", spec.name));
        spans.seed += ns(t.elapsed());
    }
    spans.total += ns(t0.elapsed());
    hb
}

/// Runs `iters` iterations of the app's request script.
pub fn serve(spec: &AppSpec, hb: &mut Hummingbird, iters: usize) -> Result<(), String> {
    hb.eval(&(spec.workload_call)(iters))
        .map(|_| ())
        .map_err(|e| format!("{}: request script failed: {e}", spec.name))
}

/// Re-runs the app's seed expression: resets the hb-rails tables that
/// the request scripts grow, so repeated rounds do the same work.
pub fn reseed(spec: &AppSpec, hb: &mut Hummingbird) -> Result<(), String> {
    if spec.seed.is_empty() {
        return Ok(());
    }
    hb.eval(spec.seed)
        .map(|_| ())
        .map_err(|e| format!("{}: reseed failed: {e}", spec.name))
}

/// An expression over the app's own API whose value reflects its state;
/// apps without hb-rails tables keep no state between requests.
fn probe_expr(spec: &AppSpec) -> &'static str {
    match spec.name {
        "Rolify" => {
            "u = RoleUser.new\nrolify_roles.each { |r| u.add_role(r) }\n\
             [u.role_list, u.role_count, u.has_role?(\"chair\")]"
        }
        "CCT" => "ApplicationRunner.new.run(cct_build_transactions(12))",
        "Countries" => {
            "idx = CountryIndex.new\n\
             [idx.total_population, idx.currencies, idx.names_in(\"Europe\"), idx.german_names]"
        }
        _ => "nil",
    }
}

/// Table names an app's schema files create.
fn tables(spec: &AppSpec) -> Vec<String> {
    let mut out = Vec::new();
    for (_, src) in spec.schema {
        for piece in src.split("create_table(\"").skip(1) {
            if let Some(end) = piece.find('"') {
                out.push(piece[..end].to_string());
            }
        }
    }
    out
}

/// A rendering of the app's observable state: every hb-rails table row
/// (columns sorted) and the value of the app's probe expression.
pub fn state_digest(spec: &AppSpec, hb: &mut Hummingbird) -> Result<String, String> {
    let mut out = String::new();
    if spec.rails {
        let handle = hb_rails::db_handle(&hb.interp);
        let db = handle.db.borrow();
        for table in tables(spec) {
            out.push_str(&table);
            out.push(':');
            for row in db.all(&table) {
                let mut cols: Vec<_> = row.iter().collect();
                cols.sort_by(|a, b| a.0.cmp(b.0));
                for (k, v) in cols {
                    out.push_str(&format!("{k}={} ", hb.interp.inspect(v)));
                }
                out.push(';');
            }
        }
    }
    let v = hb
        .eval(probe_expr(spec))
        .map_err(|e| format!("{}: state probe failed: {e}", spec.name))?;
    out.push_str(&hb.interp.inspect(&v));
    Ok(out)
}

/// Zero blame diagnostics, or an error naming them.
pub fn no_diagnostics(name: &str, hb: &Hummingbird) -> Result<(), String> {
    let d = hb.diagnostics();
    if d.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{name}: {} diagnostics, first: {}",
            d.len(),
            d[0].render(hb.source_map())
        ))
    }
}
