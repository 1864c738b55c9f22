//! Shared rendering helpers for the evaluation harness binaries.

use hb_apps::Table1Row;

/// Formats a Table 1 row in the paper's column order.
pub fn format_table1_row(r: &Table1Row) -> String {
    format!(
        "{:<10} {:>5} | {:>5} {:>4} {:>4} | {:>5} {:>4} | {:>5} {:>3} | {:>9.1} {:>9.1} {:>9.1} {:>6.1}x | {:>7} {:>5}",
        r.name,
        r.loc,
        r.counts.checked,
        r.counts.app,
        r.counts.all,
        r.counts.generated,
        r.counts.used,
        r.counts.casts,
        r.counts.phases,
        r.orig_ms,
        r.nocache_ms,
        r.hum_ms,
        r.ratio(),
        r.checks_nocache,
        r.checks_hum,
    )
}

/// The Table 1 header line.
pub fn table1_header() -> String {
    format!(
        "{:<10} {:>5} | {:>5} {:>4} {:>4} | {:>5} {:>4} | {:>5} {:>3} | {:>9} {:>9} {:>9} {:>7} | {:>7} {:>5}",
        "App", "LoC", "Chk'd", "App", "All", "Gen'd", "Used", "Casts", "Phs", "Orig(ms)",
        "No$(ms)", "Hum(ms)", "Ratio", "Chk:No$", "Hum"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_apps::AppCounts;

    #[test]
    fn row_formatting_is_stable() {
        let r = Table1Row {
            name: "Talks".to_string(),
            loc: 123,
            counts: AppCounts::default(),
            orig_ms: 10.0,
            nocache_ms: 100.0,
            hum_ms: 20.0,
            checks_nocache: 500,
            checks_hum: 25,
        };
        let s = format_table1_row(&r);
        assert!(s.contains("Talks"));
        assert!(s.contains("2.0x"));
        assert_eq!(table1_header().split('|').count(), s.split('|').count());
    }
}
