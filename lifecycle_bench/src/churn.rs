//! `redeploy_churn`: the derivation cache's reads beside its writes,
//! through an in-process `hb-fleetd`.
//!
//! * Read path: a warm tenant of the six apps boots over the socket and
//!   must adopt every derivation without running `check_sig`; paired with
//!   an Original tenant.
//! * Write path: a long-lived fleet-attached Talks tenant cycles the
//!   Table 2 updates v1…v6→v0 by `reload_file`, replays the update
//!   request script, and runs `fleet_sync`; paired with an Original
//!   Talks tenant doing the same reloads and replays.

use crate::apps::{self, Tenant};
use crate::stat::{calibrate, ns, Rng};
use crate::Tally;
use hb_apps::talks_history::{run_update_experiment, update_versions};
use hb_apps::AppSpec;
use hb_fleetd::{DaemonConfig, FleetDaemon, FleetServer};
use hummingbird::{CacheSnapshot, ExecTier, FleetClient, Hummingbird, Mode, SharedCache};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Table 2 for v1…v6 as the paper's fleet-free experiment gives it:
/// (ΔMeth, Deps, Chk'd).
pub const TABLE2: [(usize, u64, usize); 6] = [
    (1, 1, 2),
    (2, 1, 4),
    (0, 0, 0),
    (1, 0, 2),
    (1, 0, 1),
    (4, 2, 5),
];

const FORMATTER: &str = "talks/updates/formatter.rb";
const FORMATTER_ANNOTATIONS: &str =
    include_str!("../../crates/hb-apps/apps/talks/updates/annotations.rb");

/// The request script replayed after every update (the one the Table 2
/// experiment replays).
const UPDATE_REQUESTS: &str = r#"
fmt = TalkFormatter.new
list = TalkList.find(1)
talk = Talk.find(1)
fmt.head(talk)
fmt.row(talk)
fmt.page(list)
fmt.footer
fmt.banner(list) if TalkFormatter.method_defined?(:banner)
fmt.sidebar(list) if TalkFormatter.method_defined?(:sidebar)
talks_requests
"#;

/// The reload sequence of one churn cycle: indices into
/// `update_versions()`, v1…v6 then back to v0.
const CYCLE: [usize; 7] = [1, 2, 3, 4, 5, 6, 0];

/// A fleet daemon served on a Unix socket under the run directory.
/// Dropping it stops and joins the server and removes the socket.
pub struct Fleet {
    pub socket: PathBuf,
    _server: FleetServer,
}

impl Fleet {
    pub fn start(dir: &Path, tag: &str) -> Fleet {
        let socket = dir.join(format!("fleet-{}-{tag}.sock", std::process::id()));
        let (daemon, warning) = FleetDaemon::new(DaemonConfig::default());
        assert!(warning.is_none(), "fleet daemon: {warning:?}");
        let server = FleetServer::bind(daemon, &socket)
            .unwrap_or_else(|e| panic!("bind {}: {e}", socket.display()));
        Fleet {
            socket,
            _server: server,
        }
    }

    pub fn client(&self) -> Result<FleetClient, String> {
        FleetClient::connect(&self.socket).map_err(|e| format!("fleet connect: {e}"))
    }

    /// Nanoseconds to connect a new client and complete one ping.
    pub fn connect_ns(&self, tally: &mut Tally) -> f64 {
        let t = Instant::now();
        let r = self
            .client()
            .and_then(|mut c| c.ping().map_err(|e| format!("fleet ping: {e}")));
        let d = ns(t.elapsed());
        tally.record(r);
        d
    }

    /// Fetch, delta, publish and eviction work the daemon has served.
    pub fn requests(&self, tally: &mut Tally) -> u64 {
        match self
            .client()
            .and_then(|mut c| c.daemon_stats().map_err(|e| e.to_string()))
        {
            Ok(s) => s.fetches + s.deltas + s.publishes + s.evictions,
            Err(e) => {
                tally.record(Err(format!("daemon stats: {e}")));
                0
            }
        }
    }
}

/// A tenant of the six apps sharing one tier; the app booted first
/// carries the fleet session.
pub fn fleet_tenant(
    specs: &[AppSpec],
    order: &[usize],
    socket: &Path,
    tally: &mut Tally,
) -> Tenant {
    let shared = Arc::new(SharedCache::new());
    let make = |n: usize| {
        let b = apps::builder(Mode::Full, ExecTier::TreeWalk).shared_cache(shared.clone());
        if n == 0 {
            b.fleet_socket(socket)
        } else {
            b
        }
    };
    apps::tenant(specs, order, make, None, tally)
}

/// Read-path output check: the tenant stayed attached, adopted every
/// first call from the fleet and ran no `check_sig`.
fn check_warm(t: &Tenant) -> Result<(), String> {
    if !t.apps[0].1.fleet_attached() {
        return Err(format!(
            "warm boot detached: {:?}",
            t.apps[0].1.fleet_error()
        ));
    }
    let s = t.stats();
    if s.checks_performed == 0 && s.checks_failed == 0 && s.shared_hits > 0 {
        Ok(())
    } else {
        let checked: Vec<String> = t
            .apps
            .iter()
            .flat_map(|(_, hb)| hb.engine.take_check_log())
            .map(|c| c.key.to_string())
            .collect();
        Err(format!(
            "warm boot ran {} checks ({} failed) beside {} adoptions: {}",
            s.checks_performed,
            s.checks_failed,
            s.shared_hits,
            checked.join(", ")
        ))
    }
}

/// Counts of one write-path step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepCounts {
    pub changed: u64,
    pub deps: u64,
    pub checks: u64,
    pub published: u64,
    pub fetched: u64,
}

impl StepCounts {
    fn add(&mut self, o: &StepCounts) {
        self.changed += o.changed;
        self.deps += o.deps;
        self.checks += o.checks;
        self.published += o.published;
        self.fetched += o.fetched;
    }
}

/// Nanoseconds of one write-path step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    pub reload_file: f64,
    pub replay: f64,
    pub sync: f64,
    pub orig_reload: f64,
}

/// A Talks tenant running the update experiment's file.
pub struct Writer {
    spec: AppSpec,
    hb: Hummingbird,
}

impl Writer {
    /// Boots Talks, loads v0 of the formatter (and, when checked, its
    /// annotations), and replays the requests once.
    pub fn boot(mode: Mode, socket: Option<&Path>, tally: &mut Tally) -> Writer {
        let spec = hb_apps::talks();
        let mut b = apps::builder(mode, ExecTier::TreeWalk);
        if let Some(s) = socket {
            b = b.fleet_socket(s);
        }
        let mut hb = hb_apps::build_app_with(&spec, b);
        tally.record(
            hb.load_file(FORMATTER, update_versions()[0].1)
                .map(|_| ())
                .map_err(|e| format!("formatter v0: {e}")),
        );
        if mode != Mode::Original {
            tally.record(
                hb.load_file("talks/updates/annotations.rb", FORMATTER_ANNOTATIONS)
                    .map(|_| ())
                    .map_err(|e| format!("formatter annotations: {e}")),
            );
        }
        let mut w = Writer { spec, hb };
        tally.record(w.replay());
        if socket.is_some() {
            tally.record(w.hb.fleet_sync().map(|_| ()).map_err(|e| e.to_string()));
        }
        w.hb.engine.take_check_log();
        w
    }

    fn replay(&mut self) -> Result<(), String> {
        self.hb
            .eval(UPDATE_REQUESTS)
            .map(|_| ())
            .map_err(|e| format!("update requests: {e}"))
    }

    /// Reseeds (untimed), reloads version `v` and replays the requests;
    /// a fleet-attached writer then syncs. Returns the reload and replay
    /// times, the sync time, and the step's counts.
    fn step(&mut self, v: usize, tally: &mut Tally) -> (f64, f64, f64, StepCounts) {
        tally.record(apps::reseed(&self.spec, &mut self.hb));
        self.hb.engine.take_check_log();
        let src = update_versions()[v].1;
        let t0 = Instant::now();
        let report = self.hb.reload_file(FORMATTER, src);
        let t1 = Instant::now();
        let replay = self.replay();
        let t2 = Instant::now();
        let mut counts = StepCounts::default();
        let mut sync = 0.0;
        if self.hb.fleet_attached() {
            match self.hb.fleet_sync() {
                Ok(r) => {
                    counts.published = r.published as u64;
                    counts.fetched = r.fetched_entries as u64;
                }
                Err(e) => tally.record(Err(format!("fleet_sync: {e}"))),
            }
            sync = ns(t2.elapsed());
        }
        match report {
            Ok(r) => {
                counts.changed = r.changed.len() as u64;
                counts.deps = r.dependents_invalidated;
                tally.record(Ok(()));
            }
            Err(e) => tally.record(Err(format!("reload v{v}: {e}"))),
        }
        tally.record(replay);
        counts.checks = self.hb.engine.take_check_log().len() as u64;
        (ns(t1 - t0), ns(t2 - t1), sync, counts)
    }
}

/// Runs one cycle on a writer, returning the per-step counts.
fn cycle(w: &mut Writer, tally: &mut Tally) -> Vec<StepCounts> {
    CYCLE.iter().map(|&v| w.step(v, tally).3).collect()
}

/// Set-up check: the fleet-free Table 2 experiment reproduces the
/// paper's rows exactly.
pub fn check_table2() -> Result<(), String> {
    let rows = run_update_experiment();
    let got: Vec<(usize, u64, usize)> = rows
        .iter()
        .skip(1)
        .map(|r| (r.changed, r.deps, r.checked))
        .collect();
    if got == TABLE2 {
        Ok(())
    } else {
        Err(format!(
            "table2 rows (ΔMeth, Deps, Chk'd) {got:?}, expected {TABLE2:?}"
        ))
    }
}

pub struct Churn {
    rng: Rng,
    full_first: bool,
    /// Checks a fleet-free writer runs for each step of the cycle.
    pub reference_checks: Vec<u64>,
    /// Calibration kernel time around each warm boot pair and each
    /// reload pair.
    pub warm_cal: Vec<f64>,
    pub reload_cal: Vec<f64>,
    /// Time of a bare connect and ping to the read path's daemon before
    /// each warm boot pair: the wait a new connection pays.
    pub connect_ns: Vec<f64>,
    pub warm: Vec<f64>,
    pub warm_orig: Vec<f64>,
    /// Nanoseconds each warm boot spent adopting shared derivations.
    pub adopt_ns: Vec<f64>,
    pub steps: Vec<StepTimes>,
    /// Full reload + replay wall time of traced and untraced steps.
    pub wall: (Vec<f64>, Vec<f64>),
    writer: Writer,
    writer_orig: Writer,
    /// The read path's daemon.
    pub fleet: Fleet,
    /// The write path's daemon.
    pub write_fleet: Fleet,
}

impl Churn {
    /// Starts the daemon, warms it from one cold tenant, boots the
    /// writers and records the fleet-free reference.
    pub fn setup(specs: &[AppSpec], dir: &Path, seed: u64, tally: &mut Tally) -> Churn {
        let mut rng = Rng::new(seed ^ 0xC4A2);
        let full_first = rng.coin();
        let fleet = Fleet::start(dir, &format!("{:x}", rng.next_u64()));
        let order = rng.permutation(specs.len());
        let mut cold = fleet_tenant(specs, &order, &fleet.socket, tally);
        tally.record(
            cold.apps[0]
                .1
                .fleet_sync()
                .map(|_| ())
                .map_err(|e| format!("warming sync: {e}")),
        );
        drop(cold);
        tally.record(check_table2());
        let mut reference = Writer::boot(Mode::Full, None, tally);
        let reference_checks = cycle(&mut reference, tally)
            .iter()
            .map(|c| c.checks)
            .collect();
        let write_fleet = Fleet::start(dir, &format!("{:x}", rng.next_u64()));
        let writer = Writer::boot(Mode::Full, Some(&write_fleet.socket), tally);
        let writer_orig = Writer::boot(Mode::Original, None, tally);
        Churn {
            rng,
            full_first,
            reference_checks,
            warm_cal: Vec::new(),
            reload_cal: Vec::new(),
            connect_ns: Vec::new(),
            warm: Vec::new(),
            warm_orig: Vec::new(),
            adopt_ns: Vec::new(),
            steps: Vec::new(),
            wall: (Vec::new(), Vec::new()),
            writer,
            writer_orig,
            fleet,
            write_fleet,
        }
    }

    /// One warm boot pair, then one redeploy cycle of reload pairs.
    pub fn step(&mut self, specs: &[AppSpec], traced: bool, tally: &mut Tally) {
        self.connect_ns.push(self.fleet.connect_ns(tally));
        let cal = calibrate();
        let order = self.rng.permutation(specs.len());
        let mut warm_boot = |tally: &mut Tally| {
            let t = fleet_tenant(specs, &order, &self.fleet.socket, tally);
            tally.record(check_warm(&t));
            self.warm.push(t.total());
            self.adopt_ns.push(t.stats().shared_adopt_ns as f64);
            apps::digests(specs, t)
        };
        let orig_boot = |tally: &mut Tally| {
            let t = crate::cold::tenant(specs, &order, Mode::Original, None, tally);
            (t.total(), apps::digests(specs, t))
        };
        let (warm, orig) = if self.full_first {
            let w = warm_boot(tally);
            (w, orig_boot(tally))
        } else {
            let o = orig_boot(tally);
            (warm_boot(tally), o)
        };
        self.warm_orig.push(orig.0);
        let mid = calibrate();
        self.warm_cal.push((cal + mid) / 2.0);
        apps::compare(specs, warm, orig.1, tally);

        let mut cal = mid;
        for &v in &CYCLE {
            self.reload_pair(v, traced, tally);
            let next = calibrate();
            self.reload_cal.push((cal + next) / 2.0);
            cal = next;
        }
    }

    /// Reloads version `v` on both writers, the sides in alternating
    /// order, and checks the Full writer against its Original twin.
    fn reload_pair(&mut self, v: usize, traced: bool, tally: &mut Tally) {
        let (full, orig) = if self.full_first {
            let f = self.writer.step(v, tally);
            (f, self.writer_orig.step(v, tally))
        } else {
            let o = self.writer_orig.step(v, tally);
            (self.writer.step(v, tally), o)
        };
        self.full_first = !self.full_first;
        let (reload_file, replay, sync, _) = full;
        self.steps.push(StepTimes {
            reload_file,
            replay,
            sync,
            orig_reload: orig.0 + orig.1,
        });
        if traced {
            self.wall.0.push(reload_file + replay);
        } else {
            self.wall.1.push(reload_file + replay);
        }
        let w = &mut self.writer;
        let check = apps::no_diagnostics("Talks writer", &w.hb).and_then(|()| {
            let (f, o) = (
                apps::state_digest(&w.spec, &mut w.hb)?,
                apps::state_digest(&self.writer_orig.spec, &mut self.writer_orig.hb)?,
            );
            if f == o {
                Ok(())
            } else {
                Err(format!(
                    "Talks writer: Full state differs from Original after v{v}"
                ))
            }
        });
        tally.record(check);
    }
}

/// Deterministic counts of the read and write paths on a fresh daemon:
/// one warm boot, then one full write-path cycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChurnCounts {
    pub shared_hits: u64,
    pub warm_checks: u64,
    pub snapshot_bytes: u64,
    pub entries: u64,
    pub cycle: StepCounts,
    pub per_step: Vec<StepCounts>,
    pub daemon_requests: u64,
}

pub fn count_pass(specs: &[AppSpec], dir: &Path, tag: &str, tally: &mut Tally) -> ChurnCounts {
    let fleet = Fleet::start(dir, tag);
    let order: Vec<usize> = (0..specs.len()).collect();
    let mut cold = fleet_tenant(specs, &order, &fleet.socket, tally);
    tally.record(
        cold.apps[0]
            .1
            .fleet_sync()
            .map(|_| ())
            .map_err(|e| e.to_string()),
    );
    drop(cold);
    let mut out = ChurnCounts::default();
    let warm = fleet_tenant(specs, &order, &fleet.socket, tally);
    tally.record(check_warm(&warm));
    let s = warm.stats();
    out.shared_hits = s.shared_hits;
    out.warm_checks = s.checks_performed;
    drop(warm);
    match fleet
        .client()
        .and_then(|mut c| c.fetch_full().map_err(|e| e.to_string()))
    {
        Ok(resp) => {
            out.snapshot_bytes = resp.snapshot.len() as u64;
            out.entries = CacheSnapshot::from_bytes(&resp.snapshot)
                .map(|s| s.entry_count() as u64)
                .unwrap_or(0);
        }
        Err(e) => tally.record(Err(e)),
    }
    let write_fleet = Fleet::start(dir, &format!("{tag}w"));
    let mut writer = Writer::boot(Mode::Full, Some(&write_fleet.socket), tally);
    let before = write_fleet.requests(tally);
    out.per_step = cycle(&mut writer, tally);
    out.daemon_requests = write_fleet.requests(tally).saturating_sub(before);
    for c in &out.per_step {
        out.cycle.add(c);
    }
    out
}
