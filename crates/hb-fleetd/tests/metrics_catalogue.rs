//! `docs/METRICS.md` names exactly the `hb_engine_*` and `hb_fleetd_*`
//! series that `Hummingbird::metrics_prometheus()` and
//! `FleetDaemon::metrics_prometheus()` emit, one table row per series.

use hb_fleetd::{DaemonConfig, FleetDaemon};
use hummingbird::{Hummingbird, ObsLevel};

const METRICS_MD: &str = include_str!("../../../docs/METRICS.md");

/// The series named in the first cell of each table row, in row order.
fn documented(prefix: &str) -> Vec<&'static str> {
    METRICS_MD
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once("` |"))
        .map(|(series, _)| series)
        .filter(|s| s.starts_with(prefix))
        .collect()
}

/// The series an export declares with `# TYPE`, in emission order.
fn emitted<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    text.lines()
        .filter_map(|l| l.strip_prefix("# TYPE ")?.split_once(' '))
        .map(|(series, _)| series)
        .filter(|s| s.starts_with(prefix))
        .collect()
}

#[test]
fn engine_series_match_the_docs_in_declaration_order() {
    let hb = Hummingbird::builder()
        .observability(ObsLevel::Metrics)
        .build();
    let text = hb.metrics_prometheus();
    let emitted = emitted(&text, "hb_engine_");
    assert_eq!(emitted.len(), hb.stats().fields().len());
    assert_eq!(documented("hb_engine_"), emitted);
}

#[test]
fn daemon_series_match_the_docs() {
    let (daemon, _) = FleetDaemon::new(DaemonConfig::default());
    let text = daemon.metrics_prometheus();
    let mut emitted = emitted(&text, "hb_fleetd_");
    let mut documented = documented("hb_fleetd_");
    // Request and error counters, the request histogram, two connection
    // counters, the five `DaemonStats` counters and the three readings.
    assert_eq!(emitted.len(), 13, "{text}");
    emitted.sort_unstable();
    documented.sort_unstable();
    assert_eq!(documented, emitted);
}
