//! Tenant-lifecycle benchmark for Hummingbird.
//!
//! ```text
//! cargo run --release --manifest-path lifecycle_bench/Cargo.toml -- \
//!     --workload <cold_boot|steady_serve|redeploy_churn> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client thread drives the six subject apps through a
//! tenant's lifecycle: cold boot with first requests, steady serving on
//! both execution tiers, and redeploy churn through an in-process
//! `hb-fleetd`. Every Full-mode operation is paired with the same
//! operation in `Mode::Original`, interleaved, alternating which side runs
//! first. Every run reports every end-to-end metric, so each run covers
//! the whole lifecycle; the workload names the phase that gets most of
//! the measured seconds. `--trace 1` adds the per-layer attribution.
//! The last stdout line is the JSON result; see `METRICS.md` for every
//! metric's definition.

mod apps;
mod churn;
mod cold;
mod layers;
mod report;
mod stat;
mod steady;

use hb_apps::AppSpec;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Operations attempted and failed (an error or a wrong output); the
/// first few failures are printed to stderr.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failed <= 16 {
                eprintln!("FAILED: {e}");
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Cold,
    Steady,
    Churn,
}

pub const PHASES: [Phase; 3] = [Phase::Cold, Phase::Steady, Phase::Churn];

impl Phase {
    pub fn workload(self) -> &'static str {
        match self {
            Phase::Cold => "cold_boot",
            Phase::Steady => "steady_serve",
            Phase::Churn => "redeploy_churn",
        }
    }
}

/// Share of the measured seconds the workload's own phase gets; the
/// other two phases split the rest evenly.
const PRIMARY_SHARE: f64 = 0.5;
/// The phases take turns in slices of this many seconds (times their
/// share), so slow drifts of the host hit every phase alike.
const SLICE_S: f64 = 1.0;
/// Set-up runs this many times; the last set-up is kept, and `setup_s`
/// is the median (at reference host speed).
const SETUP_REPS: usize = 7;

pub struct Args {
    pub workload: Phase,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    PHASES
                        .into_iter()
                        .find(|p| p.workload() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The state every phase measures against.
pub struct Lab {
    pub cold: cold::Cold,
    pub steady: steady::Steady,
    pub churn: churn::Churn,
}

impl Lab {
    fn setup(specs: &[AppSpec], dir: &Path, seed: u64, tally: &mut Tally) -> Lab {
        Lab {
            cold: cold::Cold::new(seed),
            steady: steady::Steady::setup(specs, seed, tally),
            churn: churn::Churn::setup(specs, dir, seed, tally),
        }
    }

    fn step(&mut self, phase: Phase, specs: &[AppSpec], traced: bool, tally: &mut Tally) {
        match phase {
            Phase::Cold => self.cold.step(specs, traced, tally),
            Phase::Steady => self.steady.step(specs, traced, tally),
            Phase::Churn => self.churn.step(specs, traced, tally),
        }
    }
}

/// Where the fleet socket lives: inside the working directory, named by
/// a relative path so it stays under the Unix socket path limit.
fn run_dir() -> PathBuf {
    PathBuf::from(".bench_run")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lifecycle_bench: {e}");
            std::process::exit(2);
        }
    };
    let dir = run_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("lifecycle_bench: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let result = run(&args, &dir);
    report::print(&args, &result);
    // Dropping the run stops its fleet daemons and removes their sockets.
    drop(result);
    let _ = std::fs::remove_dir(&dir);
}

/// Everything a run measured.
pub struct RunResult {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub lab: Lab,
    pub layers: Option<report::Layers>,
    pub measured_s: f64,
}

fn run(args: &Args, dir: &Path) -> RunResult {
    let specs = hb_apps::all_apps();
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut lab = None;
    for _ in 0..SETUP_REPS {
        drop(lab.take());
        let cal = stat::calibrate();
        let t = Instant::now();
        lab = Some(Lab::setup(&specs, dir, args.seed, &mut tally));
        let secs = t.elapsed().as_secs_f64();
        setup_s.push(stat::at_reference(secs, (cal + stat::calibrate()) / 2.0));
    }
    let mut lab = lab.expect("SETUP_REPS > 0");

    let mut rng = stat::Rng::new(args.seed);
    let order: Vec<Phase> = rng.permutation(3).into_iter().map(|i| PHASES[i]).collect();
    let share = |p: Phase| {
        if p == args.workload {
            PRIMARY_SHARE
        } else {
            (1.0 - PRIMARY_SHARE) / 2.0
        }
    };
    let mut steps = [0usize; 3];
    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    while Instant::now() < deadline {
        for &p in &order {
            let slice_end = Instant::now() + Duration::from_secs_f64(SLICE_S * share(p));
            loop {
                let n = &mut steps[p as usize];
                let traced = args.trace && *n % 2 == 0;
                *n += 1;
                lab.step(p, &specs, traced, &mut tally);
                let now = Instant::now();
                if now >= slice_end || now >= deadline {
                    break;
                }
            }
        }
    }
    let measured_s = start.elapsed().as_secs_f64();
    lab.steady.finish(&specs, &mut tally);
    let layers = args
        .trace
        .then(|| report::layers(&specs, &lab, dir, &mut tally));
    RunResult {
        tally,
        setup_s,
        lab,
        layers,
        measured_s,
    }
}
