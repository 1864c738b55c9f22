//! `cold_boot`: each sample boots one fresh tenant of the six apps in
//! `Mode::Full` (tree-walk, no shared tier) and serves one iteration of
//! each app's request script, paired with the same sample in
//! `Mode::Original`.

use crate::apps::{self, BootSpans, Tenant};
use crate::stat::{calibrate, Rng};
use crate::Tally;
use hb_apps::AppSpec;
use hummingbird::{ExecTier, Mode};

/// One paired sample, in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct ColdSample {
    /// Calibration kernel time around the sample (see `stat::calibrate`).
    pub cal: f64,
    pub full_boot: f64,
    pub full_first: f64,
    pub orig_boot: f64,
    pub orig_first: f64,
}

impl ColdSample {
    pub fn overhead(&self) -> f64 {
        (self.full_boot + self.full_first) / (self.orig_boot + self.orig_first)
    }
}

/// A fresh tree-walk tenant with no shared tier.
pub fn tenant(
    specs: &[AppSpec],
    order: &[usize],
    mode: Mode,
    spans: Option<&mut BootSpans>,
    tally: &mut Tally,
) -> Tenant {
    let make = |_| apps::builder(mode, ExecTier::TreeWalk);
    apps::tenant(specs, order, make, spans, tally)
}

pub struct Cold {
    rng: Rng,
    full_first: bool,
    pub samples: Vec<ColdSample>,
    /// Boot spans of traced samples.
    pub spans: Vec<BootSpans>,
    /// Check time of traced samples' Full tenants.
    pub check_ns: Vec<f64>,
    /// Full boot + first-request time of traced and untraced samples.
    pub wall: (Vec<f64>, Vec<f64>),
}

impl Cold {
    pub fn new(seed: u64) -> Cold {
        let mut rng = Rng::new(seed ^ 0xC01D);
        let full_first = rng.coin();
        Cold {
            rng,
            full_first,
            samples: Vec::new(),
            spans: Vec::new(),
            check_ns: Vec::new(),
            wall: (Vec::new(), Vec::new()),
        }
    }

    /// One paired sample. `traced` boots the Full side step by step.
    pub fn step(&mut self, specs: &[AppSpec], traced: bool, tally: &mut Tally) {
        let cal = calibrate();
        let order = self.rng.permutation(specs.len());
        let mut full_side = |tally: &mut Tally| {
            let mut spans = BootSpans::default();
            let t = tenant(
                specs,
                &order,
                Mode::Full,
                traced.then_some(&mut spans),
                tally,
            );
            if traced {
                self.spans.push(spans);
                self.check_ns.push(t.stats().check_ns as f64);
                self.wall.0.push(t.total());
            } else {
                self.wall.1.push(t.total());
            }
            ((t.boot, t.first), apps::digests(specs, t))
        };
        let orig_side = |tally: &mut Tally| {
            let t = tenant(specs, &order, Mode::Original, None, tally);
            ((t.boot, t.first), apps::digests(specs, t))
        };
        let (full, orig) = if self.full_first {
            let f = full_side(tally);
            (f, orig_side(tally))
        } else {
            let o = orig_side(tally);
            (full_side(tally), o)
        };
        self.full_first = !self.full_first;
        self.samples.push(ColdSample {
            cal: (cal + calibrate()) / 2.0,
            full_boot: full.0 .0,
            full_first: full.0 .1,
            orig_boot: orig.0 .0,
            orig_first: orig.0 .1,
        });
        apps::compare(specs, full.1, orig.1, tally);
    }
}
