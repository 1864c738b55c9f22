//! The metrics export over the six subject apps under full observability:
//! the JSON and Prometheus exports parse and carry the check-duration and
//! first-request series, and the chrome://tracing export is valid JSON
//! holding the recorded events.

use hb_apps::{all_apps, build_app_with, run_workload};
use hummingbird::{validate_json, Hummingbird, ObsLevel};
use std::collections::HashMap;

/// Parses the Prometheus text format strictly: every non-comment line
/// must be `series value` with a numeric value.
fn parse_prometheus(text: &str) -> HashMap<&str, f64> {
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (series, value) = line
                .rsplit_once(' ')
                .unwrap_or_else(|| panic!("unparseable metrics line: {line:?}"));
            let value = value
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric value in metrics line: {line:?}"));
            (series, value)
        })
        .collect()
}

#[test]
fn six_apps_export_parseable_metrics_and_traces() {
    for spec in all_apps() {
        let name = spec.name;
        let mut hb = build_app_with(&spec, Hummingbird::builder().observability(ObsLevel::Trace));
        run_workload(&spec, &mut hb, 1);

        let json = hb.metrics();
        validate_json(&json).unwrap_or_else(|e| panic!("{name}: bad metrics JSON: {e}"));
        for series in ["hb_check_duration_ns", "hb_first_request_ns"] {
            assert!(
                json.contains(&format!("\"{series}\"")),
                "{name}: metrics JSON must carry {series}"
            );
        }

        let text = hb.metrics_prometheus();
        let prom = parse_prometheus(&text);
        for series in [
            "hb_check_duration_ns_count",
            "hb_first_request_ns_count",
            "hb_engine_checks_performed",
        ] {
            let v = prom
                .get(series)
                .unwrap_or_else(|| panic!("{name}: missing series {series}"));
            assert!(*v > 0.0, "{name}: series {series} must be non-zero");
        }
        // The histogram and the flat stats count and time the same checks.
        let value = |s: &str| {
            prom.get(s)
                .copied()
                .unwrap_or_else(|| panic!("{name}: missing series {s}"))
        };
        assert_eq!(
            value("hb_check_duration_ns_count"),
            value("hb_engine_checks_performed") + value("hb_engine_checks_failed"),
            "{name}: every check is in the duration histogram once"
        );
        assert_eq!(
            value("hb_check_duration_ns_sum"),
            value("hb_engine_check_ns") + value("hb_engine_failed_check_ns"),
            "{name}: the histogram sums the stats' check time"
        );

        let trace = hb.trace_json();
        validate_json(&trace).unwrap_or_else(|e| panic!("{name}: bad trace JSON: {e}"));
        let recorded = hb
            .engine
            .obs()
            .expect("observability is on")
            .ring_snapshot()
            .len();
        assert!(recorded > 0, "{name}: the flight recorder saw the workload");
        assert_eq!(
            trace.matches("\"ph\":").count(),
            recorded,
            "{name}: the trace export carries every recorded event"
        );
    }
}
