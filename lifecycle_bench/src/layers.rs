//! Layer replays of the traced run: each times one layer's public entry
//! point on inputs a real tenant produced, outside the lifecycle samples.

use crate::churn::Fleet;
use crate::stat::{median, ns};
use crate::Tally;
use hb_apps::AppSpec;
use hummingbird::{CacheSnapshot, ExecTier, FleetClient, Hummingbird, Mode, SharedCache, Value};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each replay; the median is reported.
const REPS: usize = 9;

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&v)
}

/// Every file in the tenant's source maps, as (name, text).
fn files(tenant: &[(usize, Hummingbird)]) -> Vec<(String, String)> {
    tenant
        .iter()
        .flat_map(|(_, hb)| {
            hb.source_map()
                .files()
                .map(|(_, f)| (f.name.clone(), f.text.clone()))
                .collect::<Vec<_>>()
        })
        .collect()
}

pub struct Syntax {
    pub parse_ns: f64,
    pub lex_ns: f64,
    pub bytes: u64,
    /// Parse time of the app annotation files alone.
    pub annotation_parse_ns: f64,
}

/// `hb_syntax::parse_program` and `hb_syntax::lexer::lex` once per file.
pub fn syntax(specs: &[AppSpec], tenant: &[(usize, Hummingbird)]) -> Syntax {
    let files = files(tenant);
    let annotation_files: HashSet<&str> = specs
        .iter()
        .flat_map(|s| s.annotations.iter().map(|(n, _)| *n))
        .collect();
    let parse = |only_annotations: bool| {
        median_of(REPS, || {
            let t = Instant::now();
            for (name, text) in &files {
                if !only_annotations || annotation_files.contains(name.as_str()) {
                    let _ = black_box(hb_syntax::parse_program(black_box(text), name));
                }
            }
            ns(t.elapsed())
        })
    };
    let lex_ns = median_of(REPS, || {
        let t = Instant::now();
        for (_, text) in &files {
            let _ = black_box(hb_syntax::lexer::lex(black_box(text), hb_syntax::FileId(0)));
        }
        ns(t.elapsed())
    });
    Syntax {
        parse_ns: parse(false),
        lex_ns,
        bytes: files.iter().map(|(_, t)| t.len() as u64).sum(),
        annotation_parse_ns: parse(true),
    }
}

pub struct Il {
    pub lower_ns: f64,
    pub compile_ns: f64,
    pub methods: u64,
    pub compiled: u64,
}

/// `hb_il::lower_method` and `hb_il::compile_method` over every method
/// `hb_il::collect_method_defs` finds in the tenant's files.
pub fn il(tenant: &[(usize, Hummingbird)]) -> Il {
    let defs: Vec<_> = files(tenant)
        .iter()
        .filter_map(|(name, text)| hb_syntax::parse_program(text, name).ok())
        .flat_map(|p| hb_il::collect_method_defs(&p))
        .collect();
    let lower_ns = median_of(REPS, || {
        let t = Instant::now();
        for d in &defs {
            black_box(hb_il::lower_method(black_box(&d.def)));
        }
        ns(t.elapsed())
    });
    let compile_ns = median_of(REPS, || {
        let t = Instant::now();
        for d in &defs {
            black_box(hb_il::compile_method(black_box(&d.def)));
        }
        ns(t.elapsed())
    });
    let compiled = defs
        .iter()
        .filter(|d| hb_il::compile_method(&d.def).is_some())
        .count() as u64;
    Il {
        lower_ns,
        compile_ns,
        methods: defs.len() as u64,
        compiled,
    }
}

/// `Hummingbird::check_all` on freshly booted Full apps, summed over the
/// six; the clean apps must produce no diagnostics.
pub fn check_all(specs: &[AppSpec], tally: &mut Tally) -> f64 {
    median_of(3, || {
        let mut total = 0.0;
        for spec in specs {
            let mut hb =
                hb_apps::build_app_with(spec, crate::apps::builder(Mode::Full, ExecTier::TreeWalk));
            let t = Instant::now();
            let diags = hb.check_all();
            total += ns(t.elapsed());
            tally.record(if diags.is_empty() {
                Ok(())
            } else {
                Err(format!(
                    "{}: check_all found {} diagnostics",
                    spec.name,
                    diags.len()
                ))
            });
        }
        total
    })
}

const PROBE: &str = r#"
class Probe
  type :idm, "(Fixnum) -> Fixnum", { "check" => true }
  def idm(x)
    x
  end
end
"#;

/// Calls per timed block of the dispatch probe, and blocks per mode.
const CALLS: i64 = 2000;
const BLOCKS: usize = 60;

/// Per-call nanoseconds of `Interp::call_method` on a checked method in
/// Full, and its paired excess over Original, from interleaved blocks.
pub fn dispatch(tier: ExecTier, tally: &mut Tally) -> (f64, f64) {
    let mut boot = |mode| -> (Hummingbird, Value) {
        let mut hb = crate::apps::builder(mode, tier).build();
        tally.record(hb.eval(PROBE).map(|_| ()).map_err(|e| e.to_string()));
        let recv = hb.eval("Probe.new").unwrap_or(Value::Nil);
        (hb, recv)
    };
    let mut full = boot(Mode::Full);
    let mut orig = boot(Mode::Original);
    let span = hb_syntax::Span::dummy();
    let block = |sys: &mut (Hummingbird, Value)| -> Result<f64, String> {
        let t = Instant::now();
        for i in 0..CALLS {
            let r = sys
                .0
                .interp
                .call_method(sys.1.clone(), "idm", vec![Value::Int(i)], None, span)
                .map_err(|_| "Probe#idm raised".to_string())?;
            black_box(r);
        }
        Ok(ns(t.elapsed()) / CALLS as f64)
    };
    let (mut call, mut hook) = (Vec::new(), Vec::new());
    // The first block of each warms the method (its check, its entry).
    for b in 0..=BLOCKS {
        let (f, o) = if b % 2 == 0 {
            let f = block(&mut full);
            (f, block(&mut orig))
        } else {
            let o = block(&mut orig);
            (block(&mut full), o)
        };
        match (f, o) {
            (Ok(f), Ok(o)) if b > 0 => {
                call.push(f);
                hook.push(f - o);
            }
            (Ok(_), Ok(_)) => {}
            (f, o) => tally.record(f.and(o).map(|_| ())),
        }
    }
    (median(&call), median(&hook))
}

pub struct Fetch {
    pub decode_ns: f64,
    pub attach_ns: f64,
}

/// `CacheSnapshot::from_bytes` on the daemon's full snapshot, and the
/// attach path a fleet-booted tenant takes before any code loads:
/// connect, full fetch, decode, load into a fresh shared tier.
pub fn fetch(fleet: &Fleet, tally: &mut Tally) -> Fetch {
    let bytes = match fleet
        .client()
        .and_then(|mut c| c.fetch_full().map_err(|e| e.to_string()))
    {
        Ok(r) => r.snapshot,
        Err(e) => {
            tally.record(Err(e));
            Vec::new()
        }
    };
    let decode_ns = median_of(REPS, || {
        let t = Instant::now();
        let _ = black_box(CacheSnapshot::from_bytes(black_box(&bytes)));
        ns(t.elapsed())
    });
    let mut failures = Vec::new();
    let attach_ns = median_of(REPS, || {
        let t = Instant::now();
        let r = FleetClient::connect(&fleet.socket)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.fetch_full().map_err(|e| e.to_string()))
            .and_then(|resp| CacheSnapshot::from_bytes(&resp.snapshot).map_err(|e| e.to_string()))
            .and_then(|snap| {
                SharedCache::new()
                    .load_snapshot(&snap)
                    .map_err(|e| e.to_string())
            });
        let d = ns(t.elapsed());
        if let Err(e) = r {
            failures.push(e);
        }
        d
    });
    for e in failures {
        tally.record(Err(format!("fleet attach: {e}")));
    }
    Fetch {
        decode_ns,
        attach_ns,
    }
}
