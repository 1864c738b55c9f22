//! `steady_serve`: six apps booted once per {tree-walk, bytecode} ×
//! {Full, Original}; each timed round runs `K` request-script iterations
//! per app, Full and Original interleaved app by app. Every app is
//! reseeded before each timed span, outside it, so rounds stay
//! stationary instead of timing ever-growing hb-rails table scans.

use crate::apps;
use crate::stat::{at_reference, calibrate, median, ns, Rng};
use crate::Tally;
use hb_apps::AppSpec;
use hummingbird::{EngineStats, ExecTier, Hummingbird, Mode};
use std::time::Instant;

/// Request-script iterations per app in one timed round.
pub const K: usize = 2;

pub const TIERS: [(ExecTier, &str); 2] = [
    (ExecTier::TreeWalk, "tree_walk"),
    (ExecTier::Bytecode, "bytecode"),
];

/// One tier's apps in both modes, indexed like the app specs.
pub struct TierWorld {
    pub full: Vec<Hummingbird>,
    pub orig: Vec<Hummingbird>,
}

/// Boots and warms one tier: first calls check (or run unchecked), fast
/// entries patch, so timed rounds see steady dispatch only.
pub fn boot_tier(specs: &[AppSpec], tier: ExecTier, tally: &mut Tally) -> TierWorld {
    let mut boot = |mode| -> Vec<Hummingbird> {
        specs
            .iter()
            .map(|spec| {
                let mut hb = hb_apps::build_app_with(spec, apps::builder(mode, tier));
                tally.record(apps::serve(spec, &mut hb, K));
                hb
            })
            .collect()
    };
    let full = boot(Mode::Full);
    let orig = boot(Mode::Original);
    TierWorld { full, orig }
}

/// Per-tier timings. `rounds` holds whole-round Full and Original
/// nanoseconds; `apps[i]` the per-app pairs, in spec order.
#[derive(Default)]
pub struct TierTimes {
    /// Calibration kernel time around each round.
    pub cal: Vec<f64>,
    pub rounds_full: Vec<f64>,
    pub rounds_orig: Vec<f64>,
    pub apps_full: Vec<Vec<f64>>,
    pub apps_orig: Vec<Vec<f64>>,
    /// Whole-round wall time of traced and untraced rounds.
    pub wall: (Vec<f64>, Vec<f64>),
}

pub struct Steady {
    rng: Rng,
    full_first: bool,
    pub worlds: Vec<TierWorld>,
    pub times: Vec<TierTimes>,
}

fn timed_serve(spec: &AppSpec, hb: &mut Hummingbird, tally: &mut Tally) -> f64 {
    tally.record(apps::reseed(spec, hb));
    let t = Instant::now();
    let r = apps::serve(spec, hb, K);
    let d = ns(t.elapsed());
    tally.record(r);
    d
}

impl Steady {
    pub fn setup(specs: &[AppSpec], seed: u64, tally: &mut Tally) -> Steady {
        let mut rng = Rng::new(seed ^ 0x57EA);
        let full_first = rng.coin();
        let worlds = TIERS
            .iter()
            .map(|(tier, _)| boot_tier(specs, *tier, tally))
            .collect();
        let times = TIERS
            .iter()
            .map(|_| TierTimes {
                apps_full: vec![Vec::new(); specs.len()],
                apps_orig: vec![Vec::new(); specs.len()],
                ..TierTimes::default()
            })
            .collect();
        Steady {
            rng,
            full_first,
            worlds,
            times,
        }
    }

    /// One timed round on every tier.
    pub fn step(&mut self, specs: &[AppSpec], traced: bool, tally: &mut Tally) {
        let mut cal = calibrate();
        for (w, world) in self.worlds.iter_mut().enumerate() {
            let times = &mut self.times[w];
            let order = self.rng.permutation(specs.len());
            let wall = Instant::now();
            let (mut round_full, mut round_orig) = (0.0, 0.0);
            for i in order {
                let spec = &specs[i];
                let (f, o) = if self.full_first {
                    let f = timed_serve(spec, &mut world.full[i], tally);
                    (f, timed_serve(spec, &mut world.orig[i], tally))
                } else {
                    let o = timed_serve(spec, &mut world.orig[i], tally);
                    (timed_serve(spec, &mut world.full[i], tally), o)
                };
                self.full_first = !self.full_first;
                times.apps_full[i].push(f);
                times.apps_orig[i].push(o);
                round_full += f;
                round_orig += o;
            }
            times.rounds_full.push(round_full);
            times.rounds_orig.push(round_orig);
            let wall = ns(wall.elapsed());
            let next = calibrate();
            times.cal.push((cal + next) / 2.0);
            cal = next;
            if traced {
                times.wall.0.push(wall);
            } else {
                times.wall.1.push(wall);
            }
        }
    }

    /// End-of-run output checks: each Full app's state matches its
    /// Original twin after the same rounds, no diagnostics were raised,
    /// and no tier's round time trends upward over the run.
    pub fn finish(&mut self, specs: &[AppSpec], tally: &mut Tally) {
        for (w, world) in self.worlds.iter_mut().enumerate() {
            for (i, spec) in specs.iter().enumerate() {
                let (f, o) = (&mut world.full[i], &mut world.orig[i]);
                let check = apps::no_diagnostics(spec.name, f).and_then(|()| {
                    if apps::state_digest(spec, f)? == apps::state_digest(spec, o)? {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} ({}): Full state differs from Original",
                            spec.name, TIERS[w].1
                        ))
                    }
                });
                tally.record(check);
            }
            let t = &self.times[w];
            let rounds: Vec<f64> = t
                .rounds_full
                .iter()
                .zip(&t.cal)
                .map(|(r, c)| at_reference(*r, *c))
                .collect();
            tally.record(trend(&rounds, TIERS[w].1));
        }
    }
}

/// Trend limit: the last third of the rounds may not be slower than the
/// first third by more than this factor, at reference host speed.
const TREND_LIMIT: f64 = 1.5;

fn trend(rounds: &[f64], tier: &str) -> Result<(), String> {
    let third = rounds.len() / 3;
    if third < 2 {
        return Ok(());
    }
    let first = median(&rounds[..third]);
    let last = median(&rounds[rounds.len() - third..]);
    if last <= first * TREND_LIMIT {
        Ok(())
    } else {
        Err(format!(
            "steady_serve ({tier}): round time trends from {:.3} ms to {:.3} ms",
            first / 1e6,
            last / 1e6
        ))
    }
}

/// Engine counters of one steady round on a fresh, warmed tier world
/// (Full apps only): the per-layer counts of the hook and cache. Calls,
/// hits and dynamic checks count the round alone; fast-entry patches and
/// deopts count everything since boot, since a warmed world patches
/// nothing new in a round.
pub fn count_pass(specs: &[AppSpec], tier: ExecTier, tally: &mut Tally) -> EngineStats {
    let mut world = boot_tier(specs, tier, tally);
    let mut sum = EngineStats::default();
    for (spec, hb) in specs.iter().zip(world.full.iter_mut()) {
        tally.record(apps::reseed(spec, hb));
        let before = hb.stats();
        tally.record(apps::serve(spec, hb, K));
        let after = hb.stats();
        sum.intercepted_calls += after.intercepted_calls - before.intercepted_calls;
        sum.cache_hits += after.cache_hits - before.cache_hits;
        sum.dyn_arg_checks += after.dyn_arg_checks - before.dyn_arg_checks;
        sum.fast_entries_patched += after.fast_entries_patched;
        sum.deopts += after.deopts;
        sum.checks_performed += after.checks_performed - before.checks_performed;
    }
    sum
}
