//! Metrics, output checks on the whole run, and the printed report.

use crate::apps::BootSpans;
use crate::churn::{self, ChurnCounts};
use crate::stat::{at_reference, geomean, median, paired_ratio, quantile, rel_iqr};
use crate::steady::{self, TIERS};
use crate::{cold, layers, Args, Lab, Phase, RunResult, Tally};
use hb_apps::AppSpec;
use hummingbird::EngineStats;
use std::path::Path;

pub const SCHEMA_VERSION: u32 = 1;

/// Largest share by which the traced boot (spans plus residual) may
/// differ from the untraced `tenant_boot_ms.p50` of the same run.
const BOOT_SUM_TOLERANCE: f64 = 0.15;

/// The per-layer numbers only the traced run produces.
pub struct Layers {
    syntax: layers::Syntax,
    il: layers::Il,
    check_all_ns: f64,
    dispatch: Vec<(f64, f64)>,
    fetch: layers::Fetch,
    counts: Counts,
}

/// Every per-layer count, taken on fresh systems. The traced run takes
/// them twice and requires both passes to agree exactly.
#[derive(Debug, PartialEq)]
struct Counts {
    cold: ColdCounts,
    engine: Vec<EngineCounts>,
    churn: ChurnCounts,
}

#[derive(Debug, PartialEq)]
struct ColdCounts {
    checks_performed: u64,
    checks_failed: u64,
    rdl_entries: u64,
    rdl_generated: u64,
}

#[derive(Debug, PartialEq)]
struct EngineCounts {
    intercepted_calls: u64,
    cache_hits: u64,
    dyn_arg_checks: u64,
    fast_entries_patched: u64,
    deopts: u64,
}

impl From<EngineStats> for EngineCounts {
    fn from(s: EngineStats) -> EngineCounts {
        EngineCounts {
            intercepted_calls: s.intercepted_calls,
            cache_hits: s.cache_hits,
            dyn_arg_checks: s.dyn_arg_checks,
            fast_entries_patched: s.fast_entries_patched,
            deopts: s.deopts,
        }
    }
}

fn count_pass(specs: &[AppSpec], dir: &Path, pass: usize, tally: &mut Tally) -> Counts {
    let order: Vec<usize> = (0..specs.len()).collect();
    let t = cold::tenant(specs, &order, hummingbird::Mode::Full, None, tally);
    let s = t.stats();
    let (mut entries, mut generated) = (0, 0);
    for (_, hb) in &t.apps {
        entries += hb.rdl_stats().total as u64;
        generated += hb.rdl_stats().dynamic_generated as u64;
    }
    Counts {
        cold: ColdCounts {
            checks_performed: s.checks_performed,
            checks_failed: s.checks_failed,
            rdl_entries: entries,
            rdl_generated: generated,
        },
        engine: TIERS
            .iter()
            .map(|(tier, _)| steady::count_pass(specs, *tier, tally).into())
            .collect(),
        churn: churn::count_pass(specs, dir, &format!("count{pass}"), tally),
    }
}

/// Runs the layer replays and the two count passes.
pub fn layers(specs: &[AppSpec], lab: &Lab, dir: &Path, tally: &mut Tally) -> Layers {
    let tenant = cold::tenant(
        specs,
        &(0..specs.len()).collect::<Vec<_>>(),
        hummingbird::Mode::Full,
        None,
        tally,
    );
    let counts = count_pass(specs, dir, 0, tally);
    let again = count_pass(specs, dir, 1, tally);
    tally.record(if counts == again {
        Ok(())
    } else {
        Err(format!(
            "per-layer counts differ between two passes:\n{counts:?}\n{again:?}"
        ))
    });
    Layers {
        syntax: layers::syntax(specs, &tenant.apps),
        il: layers::il(&tenant.apps),
        check_all_ns: layers::check_all(specs, tally),
        dispatch: TIERS
            .iter()
            .map(|(tier, _)| layers::dispatch(*tier, tally))
            .collect(),
        fetch: layers::fetch(&lab.churn.fleet, tally),
        counts,
    }
}

/// Metrics in output order: name, value, unit.
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

fn ms(v: f64) -> f64 {
    v / 1e6
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Each sample scaled to the reference host speed by its calibration.
fn scaled(values: impl Iterator<Item = f64>, cal: &[f64]) -> Vec<f64> {
    values.zip(cal).map(|(v, c)| at_reference(v, *c)).collect()
}

fn end_to_end(r: &RunResult) -> Metrics {
    let mut m = Metrics(Vec::new());
    let lab = &r.lab;
    let cold = &lab.cold.samples;
    let cal: Vec<f64> = cold.iter().map(|s| s.cal).collect();
    let boot = scaled(cold.iter().map(|s| s.full_boot), &cal);
    let first = scaled(cold.iter().map(|s| s.full_first), &cal);
    let overhead: Vec<f64> = cold.iter().map(|s| s.overhead()).collect();
    m.put("tenant_boot_ms.p50", ms(median(&boot)), "ms");
    m.put("tenant_boot_ms.p90", ms(quantile(&boot, 0.9)), "ms");
    m.put("first_requests_ms.p50", ms(median(&first)), "ms");
    m.put("cold_overhead_x", median(&overhead), "x");
    for (w, (_, tier)) in TIERS.iter().enumerate() {
        let t = &lab.steady.times[w];
        let rounds = scaled(t.rounds_full.iter().copied(), &t.cal);
        m.put(
            format!("steady_rounds_per_s.{tier}"),
            1e9 / median(&rounds),
            "1/s",
        );
    }
    for (w, (_, tier)) in TIERS.iter().enumerate() {
        m.put(
            format!("steady_overhead_x.{tier}"),
            steady_overhead(lab, w),
            "x",
        );
    }
    let churn = &lab.churn;
    // A warm boot waits for the daemon to accept its connection; that
    // wait does not follow the host's speed, so only the rest is scaled.
    let wait = median(&churn.connect_ns);
    let warm: Vec<f64> = scaled(
        churn.warm.iter().map(|w| (w - wait).max(0.0)),
        &churn.warm_cal,
    )
    .into_iter()
    .map(|w| w + wait)
    .collect();
    let reload = scaled(
        churn.steps.iter().map(|s| s.reload_file + s.replay),
        &churn.reload_cal,
    );
    let sync = scaled(churn.steps.iter().map(|s| s.sync), &churn.reload_cal);
    m.put("warm_boot_ms.p50", ms(median(&warm)), "ms");
    m.put("reload_ms.p50", ms(median(&reload)), "ms");
    m.put("reload_ms.p90", ms(quantile(&reload, 0.9)), "ms");
    m.put("fleet_sync_ms.p50", ms(median(&sync)), "ms");
    m.put("setup_s", median(&r.setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m
}

/// Geometric mean over the apps of each app's median paired Full/Original
/// ratio (paper Table 1's Hum/Orig).
fn steady_overhead(lab: &Lab, w: usize) -> f64 {
    let t = &lab.steady.times[w];
    let per_app: Vec<f64> = t
        .apps_full
        .iter()
        .zip(&t.apps_orig)
        .map(|(f, o)| paired_ratio(f, o))
        .collect();
    geomean(&per_app)
}

fn per_layer(specs: &[AppSpec], r: &RunResult, primary: Phase, tally: &mut Tally) -> Metrics {
    let mut m = Metrics(Vec::new());
    let lab = &r.lab;
    let l = r.layers.as_ref().expect("traced run has layers");
    let c = &l.counts;

    let spans = &lab.cold.spans;
    let span_median =
        |f: &dyn Fn(&BootSpans) -> f64| median(&spans.iter().map(f).collect::<Vec<f64>>());
    let boot_total = span_median(&|s| s.total);
    let mut span_sum = 0.0;
    for (k, (name, _)) in BootSpans::default().named().iter().enumerate() {
        let v = span_median(&|s| s.named()[k].1);
        span_sum += v;
        m.put(format!("boot.{name}_ns"), v, "ns");
    }
    let residual = span_median(&|s| s.residual());
    m.put("boot.residual_ns", residual, "ns");
    // Spans plus residual must add up to the untraced tenant boot.
    let untraced_boot = median(
        &lab.cold
            .samples
            .iter()
            .map(|s| s.full_boot)
            .collect::<Vec<f64>>(),
    );
    let sum = span_sum + residual;
    tally.record(if (sum / untraced_boot - 1.0).abs() <= BOOT_SUM_TOLERANCE {
        Ok(())
    } else {
        Err(format!(
            "boot spans + residual = {:.3} ms, tenant_boot_ms.p50 = {:.3} ms (tolerance {}%)",
            ms(sum),
            ms(untraced_boot),
            BOOT_SUM_TOLERANCE * 100.0
        ))
    });

    let sx = &l.syntax;
    m.put("syntax.parse_ns", sx.parse_ns, "ns");
    m.put("syntax.lex_ns", sx.lex_ns, "ns");
    m.put("syntax.bytes", sx.bytes as f64, "B");
    m.put("syntax.ns_per_byte", sx.parse_ns / sx.bytes as f64, "ns/B");
    m.put("syntax.load_parse_share", sx.parse_ns / boot_total, "ratio");

    let annotations = span_median(&|s| s.annotations);
    m.put(
        "rdl.annotate_ns",
        annotations - sx.annotation_parse_ns,
        "ns",
    );
    m.put("rdl.entries", c.cold.rdl_entries as f64, "count");
    m.put("rdl.generated", c.cold.rdl_generated as f64, "count");

    m.put("il.lower_ns", l.il.lower_ns, "ns");
    m.put("il.methods", l.il.methods as f64, "count");
    m.put("il.compile_ns", l.il.compile_ns, "ns");
    m.put(
        "il.compiled_ratio",
        l.il.compiled as f64 / l.il.methods as f64,
        "ratio",
    );

    let check_ns = median(&lab.cold.check_ns);
    m.put("check.check_all_ns", l.check_all_ns, "ns");
    m.put("check.check_ns", check_ns, "ns");
    m.put(
        "check.checks_performed",
        c.cold.checks_performed as f64,
        "count",
    );
    m.put("check.checks_failed", c.cold.checks_failed as f64, "count");
    m.put(
        "check.ns_per_check",
        check_ns / c.cold.checks_performed as f64,
        "ns",
    );

    for (w, (_, tier)) in TIERS.iter().enumerate() {
        let e = &c.engine[w];
        m.put(
            format!("engine.intercepted_calls.{tier}"),
            e.intercepted_calls as f64,
            "count",
        );
        m.put(
            format!("engine.cache_hits.{tier}"),
            e.cache_hits as f64,
            "count",
        );
        m.put(
            format!("engine.cache_hit_ratio.{tier}"),
            e.cache_hits as f64 / e.intercepted_calls as f64,
            "ratio",
        );
        m.put(
            format!("engine.dyn_arg_checks.{tier}"),
            e.dyn_arg_checks as f64,
            "count",
        );
        m.put(
            format!("engine.fast_entries_patched.{tier}"),
            e.fast_entries_patched as f64,
            "count",
        );
        m.put(format!("engine.deopts.{tier}"), e.deopts as f64, "count");
    }

    for (w, (_, tier)) in TIERS.iter().enumerate() {
        let t = &lab.steady.times[w];
        for (i, spec) in specs.iter().enumerate() {
            m.put(
                format!("interp.app_round_ms.{}.{tier}", spec.name),
                ms(median(&t.apps_full[i])),
                "ms",
            );
            m.put(
                format!("interp.app_overhead_x.{}.{tier}", spec.name),
                paired_ratio(&t.apps_full[i], &t.apps_orig[i]),
                "x",
            );
        }
        m.put(format!("interp.call_ns.{tier}"), l.dispatch[w].0, "ns");
        m.put(format!("interp.hook_ns.{tier}"), l.dispatch[w].1, "ns");
    }

    let ch = &c.churn;
    let churn = &lab.churn;
    m.put("adopt.shared_hits", ch.shared_hits as f64, "count");
    m.put("adopt.adopt_ns", median(&churn.adopt_ns), "ns");
    m.put(
        "adopt.warm_hit_ratio",
        ch.shared_hits as f64 / (ch.shared_hits + ch.warm_checks) as f64,
        "ratio",
    );
    m.put("adopt.decode_ns", l.fetch.decode_ns, "ns");
    m.put("adopt.snapshot_bytes", ch.snapshot_bytes as f64, "B");
    m.put("adopt.entries", ch.entries as f64, "count");

    let steps = &churn.steps;
    let col =
        |f: &dyn Fn(&churn::StepTimes) -> f64| median(&steps.iter().map(f).collect::<Vec<f64>>());
    let reference: u64 = churn.reference_checks.iter().sum();
    m.put("reload.reload_file_ns", col(&|s| s.reload_file), "ns");
    m.put("reload.replay_ns", col(&|s| s.replay), "ns");
    m.put("reload.changed", ch.cycle.changed as f64, "count");
    m.put(
        "reload.dependents_invalidated",
        ch.cycle.deps as f64,
        "count",
    );
    m.put("reload.checks_performed", ch.cycle.checks as f64, "count");
    m.put(
        "reload.useful_check_ratio",
        reference as f64 / ch.cycle.checks as f64,
        "ratio",
    );

    m.put("fleet.attach_ns", l.fetch.attach_ns, "ns");
    m.put("fleet.connect_ns", median(&churn.connect_ns), "ns");
    m.put("fleet.sync_ns", col(&|s| s.sync), "ns");
    m.put("fleet.published", ch.cycle.published as f64, "count");
    m.put("fleet.fetched_entries", ch.cycle.fetched as f64, "count");
    m.put("fleet.daemon_requests", ch.daemon_requests as f64, "count");

    let wall = match primary {
        Phase::Cold => lab.cold.wall.clone(),
        Phase::Steady => {
            let mut t = (Vec::new(), Vec::new());
            for times in &lab.steady.times {
                t.0.extend(&times.wall.0);
                t.1.extend(&times.wall.1);
            }
            t
        }
        Phase::Churn => churn.wall.clone(),
    };
    m.put("trace.overhead_x", median(&wall.0) / median(&wall.1), "x");
    let mut cal: Vec<f64> = lab.cold.samples.iter().map(|s| s.cal).collect();
    for t in &lab.steady.times {
        cal.extend(&t.cal);
    }
    cal.extend(&churn.warm_cal);
    cal.extend(&churn.reload_cal);
    m.put("host.calibration_ns", median(&cal), "ns");
    m
}

fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the human-readable report and the envelope to stdout, then
/// the result object as the last line.
pub fn print(args: &Args, r: &RunResult) {
    let specs = hb_apps::all_apps();
    let mut tally = Tally::default();
    let mut metrics = if args.trace {
        per_layer(&specs, r, args.workload, &mut tally)
    } else {
        end_to_end(r)
    };
    print_envelope(args, r);
    print_pairs(r);
    if let Some(l) = &r.layers {
        let reference = &r.lab.churn.reference_checks;
        for (k, c) in l.counts.churn.per_step.iter().enumerate() {
            println!(
                "  write-path step {k}: changed {} deps {} checks {} (fleet-free {}) \
                 published {} fetched {}",
                c.changed, c.deps, c.checks, reference[k], c.published, c.fetched
            );
        }
    }
    for (name, v, _) in &metrics.0 {
        tally.record(if v.is_finite() {
            Ok(())
        } else {
            Err(format!("metric {name} is not a number"))
        });
    }
    let attempted = r.tally.attempted + tally.attempted;
    let failed = r.tally.failed + tally.failed;
    if args.trace {
        metrics.put("error_rate", failed as f64 / attempted as f64, "ratio");
    }
    let mut body = Vec::new();
    for (name, v, unit) in &metrics.0 {
        println!("  {name:<44} {v:>16.4} {unit}");
        let v = if v.is_finite() { *v } else { 0.0 };
        body.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
}

fn print_envelope(args: &Args, r: &RunResult) {
    let lab = &r.lab;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"envelope\": {{\"schema_version\": {SCHEMA_VERSION}, \"benchmark\": \"lifecycle_bench\", \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {cores}, \
         \"git_revision\": {}, \"rustc\": {}, \"params\": {{\"steady_iters_per_app\": {}, \
         \"setup_reps\": {}, \"primary_share\": {}, \"slice_s\": {}, \
         \"reference_kernel_ns\": {}, \"measured_s\": {:.3}}}, \
         \"samples\": {{\"cold_pairs\": {}, \"steady_rounds\": {}, \"warm_boot_pairs\": {}, \
         \"reload_pairs\": {}}}}}}}",
        json_str(args.workload.workload()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&git_revision()),
        json_str(env!("BENCH_RUSTC_VERSION")),
        steady::K,
        crate::SETUP_REPS,
        crate::PRIMARY_SHARE,
        crate::SLICE_S,
        crate::stat::REFERENCE_KERNEL_NS,
        r.measured_s,
        lab.cold.samples.len(),
        lab.steady.times[0].rounds_full.len(),
        lab.churn.warm.len(),
        lab.churn.steps.len(),
    );
}

/// Full-vs-Original pairs of the run, median and IQR share, for reading.
fn print_pairs(r: &RunResult) {
    let lab = &r.lab;
    let line = |label: &str, full: &[f64], orig: &[f64]| {
        println!(
            "  {label:<28} n={:<5} Full {:>9.3} ms (IQR {:>5.1}%)  Original {:>9.3} ms (IQR {:>5.1}%)  ratio {:.3}",
            full.len(),
            ms(median(full)),
            100.0 * rel_iqr(full),
            ms(median(orig)),
            100.0 * rel_iqr(orig),
            paired_ratio(full, orig)
        )
    };
    let c = &lab.cold.samples;
    let col = |f: fn(&cold::ColdSample) -> f64| c.iter().map(f).collect::<Vec<f64>>();
    line(
        "cold tenant boot",
        &col(|s| s.full_boot),
        &col(|s| s.orig_boot),
    );
    line(
        "cold first requests",
        &col(|s| s.full_first),
        &col(|s| s.orig_first),
    );
    for (w, (_, tier)) in TIERS.iter().enumerate() {
        let t = &lab.steady.times[w];
        line(
            &format!("steady round ({tier})"),
            &t.rounds_full,
            &t.rounds_orig,
        );
    }
    let ch = &lab.churn;
    line("warm boot vs Original boot", &ch.warm, &ch.warm_orig);
    let reload: Vec<f64> = ch.steps.iter().map(|s| s.reload_file + s.replay).collect();
    let orig: Vec<f64> = ch.steps.iter().map(|s| s.orig_reload).collect();
    line("reload + replay", &reload, &orig);
}
