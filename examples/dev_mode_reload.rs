//! Rails development mode (paper §4/§5): live-reload a file and watch
//! which methods re-check. The engine judges each redefined method once:
//! a body whose CFG is unchanged up to spans keeps its cached derivation,
//! a changed one invalidates itself and its dependents. Each row's
//! counts are that judgement, as `reload_file` reports it.
//!
//! Run with: `cargo run -p hb-apps --example dev_mode_reload`

use hb_apps::talks_history::run_update_experiment;

fn main() {
    println!("Applying 7 versions of the Talks formatter as live updates:\n");
    println!(
        "{:<14} {:>7} {:>6} {:>5} {:>6}",
        "version", "changed", "added", "deps", "chk'd"
    );
    for row in run_update_experiment() {
        println!(
            "{:<14} {:>7} {:>6} {:>5} {:>6}",
            row.version, row.changed, row.added, row.deps, row.checked
        );
    }
    println!("\nUnchanged methods keep their cached derivations across reloads;");
    println!("changed methods invalidate themselves and their dependents.");
}
